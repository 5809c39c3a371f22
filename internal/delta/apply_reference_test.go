package delta

import (
	"fmt"

	"giant/internal/ontology"
)

// applyReference is Apply as it was before it derived each generation from
// the last: it re-keys every node and edge and indexes the result from
// scratch with ontology.BuildSnapshot. Kept verbatim as the test oracle the
// differential tests and FuzzApply hold Apply to.
func applyReference(cur *ontology.Snapshot, d *Delta) (*ontology.Snapshot, error) {
	retired := map[string]bool{}
	for _, r := range d.Retire {
		retired[refKey(r.Type, r.Phrase)] = true
	}
	touch := map[string]*NodeAdd{}
	for i := range d.Touch {
		t := &d.Touch[i]
		touch[refKey(t.Type, t.Phrase)] = t
	}

	// Survivors, densely renumbered.
	oldNodes := cur.Nodes()
	nodes := make([]ontology.Node, 0, len(oldNodes)+len(d.Add))
	remap := make([]ontology.NodeID, len(oldNodes))
	for i := range remap {
		remap[i] = -1
	}
	index := map[string]ontology.NodeID{} // refKey -> new ID
	for i := range oldNodes {
		n := oldNodes[i]
		key := refKey(n.Type, n.Phrase)
		if retired[key] {
			continue
		}
		if t, ok := touch[key]; ok {
			if d.Day > n.LastSeenDay {
				n.LastSeenDay = d.Day
			}
			if t.Trigger != "" {
				n.Trigger = t.Trigger
			}
			if t.Location != "" {
				n.Location = t.Location
			}
			if n.Type == ontology.Event && t.Day > 0 && n.Day == 0 {
				n.Day = t.Day
			}
			n.Aliases = mergeAliases(n.Phrase, n.Aliases, t.Aliases)
		}
		id := ontology.NodeID(len(nodes))
		remap[n.ID] = id
		n.ID = id
		nodes = append(nodes, n)
		index[key] = id
	}

	// New nodes append after the survivors.
	for _, a := range d.Add {
		key := refKey(a.Type, a.Phrase)
		if _, dup := index[key]; dup {
			continue // already present (idempotent re-apply)
		}
		id := ontology.NodeID(len(nodes))
		n := ontology.Node{
			ID: id, Type: a.Type, Phrase: a.Phrase,
			Aliases:      mergeAliases(a.Phrase, nil, a.Aliases),
			FirstSeenDay: a.Day, LastSeenDay: d.Day,
		}
		if a.Type == ontology.Event || a.Type == ontology.Topic {
			n.Trigger, n.Location, n.Day = a.Trigger, a.Location, a.Day
		}
		nodes = append(nodes, n)
		index[key] = id
	}

	// Surviving edges, remapped; then new edges and re-weights resolved by
	// phrase.
	type edgeKey struct {
		src, dst ontology.NodeID
		typ      ontology.EdgeType
	}
	edges := make([]ontology.Edge, 0, cur.EdgeCount()+len(d.Edges))
	at := map[edgeKey]int{}
	for _, e := range cur.Edges() {
		src, dst := remap[e.Src], remap[e.Dst]
		if src < 0 || dst < 0 {
			continue // incident to a retired node
		}
		k := edgeKey{src, dst, e.Type}
		if _, dup := at[k]; dup {
			continue
		}
		at[k] = len(edges)
		edges = append(edges, ontology.Edge{Src: src, Dst: dst, Type: e.Type, Weight: e.Weight})
	}
	resolve := func(e *EdgeAdd) (ontology.NodeID, ontology.NodeID, bool) {
		src, ok1 := index[refKey(e.SrcType, e.Src)]
		dst, ok2 := index[refKey(e.DstType, e.Dst)]
		return src, dst, ok1 && ok2 && src != dst
	}
	for i := range d.Edges {
		e := &d.Edges[i]
		src, dst, ok := resolve(e)
		if !ok {
			continue
		}
		k := edgeKey{src, dst, e.Type}
		if _, dup := at[k]; dup {
			continue
		}
		at[k] = len(edges)
		edges = append(edges, ontology.Edge{Src: src, Dst: dst, Type: e.Type, Weight: e.Weight})
	}
	for i := range d.Reweight {
		e := &d.Reweight[i]
		src, dst, ok := resolve(e)
		if !ok {
			continue
		}
		k := edgeKey{src, dst, e.Type}
		if idx, exists := at[k]; exists {
			edges[idx].Weight = e.Weight
		} else {
			at[k] = len(edges)
			edges = append(edges, ontology.Edge{Src: src, Dst: dst, Type: e.Type, Weight: e.Weight})
		}
	}

	snap, err := ontology.BuildSnapshot(nodes, edges)
	if err != nil {
		return nil, fmt.Errorf("delta: apply: %w", err)
	}
	return snap, nil
}
