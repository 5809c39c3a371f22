package delta

import (
	"fmt"
	"slices"
	"strings"

	"giant/internal/ontology"
)

// Apply materializes the next ontology generation: retired nodes (and
// every incident edge) drop out, surviving nodes are renumbered densely,
// touched nodes refresh their last-seen day / event attributes / aliases,
// new nodes append, and new edges resolve their phrase endpoints against
// the final node set. The input snapshot is immutable and untouched; the
// result is a fresh immutable snapshot ready for atomic hot-swap.
//
// Apply is deterministic and phrase-keyed: the same delta applies to any
// generation that contains the phrases it references (edges whose
// endpoints are absent are skipped, never errors), which is what lets a
// serving tier replay deltas against whichever generation is current.
//
// A generation costs what its delta costs plus copies: every reference
// resolves through cur's phrase index (or the delta's own additions), a
// new or re-weighted edge is looked up among its source's out-edges in
// cur, and ontology.Snapshot.Derive patches cur's indexes rather than
// rebuilding them. Only the node and edge copies and the CSR are O(N +
// edges). cur's phrases are unique per type and its edges unique per
// (src, dst, type), as every snapshot the pipeline makes is.
func Apply(cur *ontology.Snapshot, d *Delta) (*ontology.Snapshot, error) {
	var retired []ontology.NodeID
	for _, r := range d.Retire {
		if id, ok := cur.Lookup(r.Type, r.Phrase); ok {
			retired = append(retired, id)
		}
	}
	slices.Sort(retired)
	retired = slices.Compact(retired)

	// Survivors, densely renumbered.
	remap := make([]ontology.NodeID, cur.Len()) // cur ID -> next ID, -1 if retired
	nodes := make([]ontology.Node, 0, cur.Len()-len(retired)+len(d.Add))
	rest := retired
	for id := range remap {
		if len(rest) > 0 && rest[0] == ontology.NodeID(id) {
			rest, remap[id] = rest[1:], -1
			continue
		}
		n := *cur.At(ontology.NodeID(id))
		n.ID = ontology.NodeID(len(nodes))
		remap[id] = n.ID
		nodes = append(nodes, n)
	}

	// Touched survivors refresh; the last touch of a node wins.
	touch := map[ontology.NodeID]*NodeAdd{}
	for i := range d.Touch {
		t := &d.Touch[i]
		if id, ok := cur.Lookup(t.Type, t.Phrase); ok && remap[id] >= 0 {
			touch[remap[id]] = t
		}
	}
	for id, t := range touch {
		n := &nodes[id]
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

	// New nodes append after the survivors. resolve finds a (type, phrase)
	// in the next generation: its ID there and, for a survivor, its ID in
	// cur (-1 for a node this delta adds).
	type phraseKey struct {
		typ    ontology.NodeType
		phrase string // lowercased
	}
	added := map[phraseKey]ontology.NodeID{}
	resolve := func(t ontology.NodeType, phrase string) (was, id ontology.NodeID, ok bool) {
		if old, found := cur.Lookup(t, phrase); found && remap[old] >= 0 {
			return old, remap[old], true
		}
		id, ok = added[phraseKey{t, strings.ToLower(phrase)}]
		return -1, id, ok
	}
	for _, a := range d.Add {
		if _, _, dup := resolve(a.Type, a.Phrase); dup {
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
		added[phraseKey{a.Type, strings.ToLower(a.Phrase)}] = id
	}

	// Surviving edges keep cur's order; then new edges and re-weights of
	// missing ones append, each (src, dst, type) at most once. find
	// resolves an edge by phrase; at is its position in cur's edges, or -1
	// when cur does not have it.
	type edgeKey struct {
		src, dst ontology.NodeID
		typ      ontology.EdgeType
	}
	edges := cur.Edges()
	var fresh []ontology.Edge // appended edges, in next IDs
	freshAt := map[edgeKey]int{}
	find := func(e *EdgeAdd) (k edgeKey, at int, ok bool) {
		wasSrc, src, ok1 := resolve(e.SrcType, e.Src)
		wasDst, dst, ok2 := resolve(e.DstType, e.Dst)
		if !ok1 || !ok2 || src == dst {
			return k, -1, false
		}
		at = -1
		if wasSrc >= 0 && wasDst >= 0 {
			if i, exists := cur.EdgeIndex(wasSrc, wasDst, e.Type); exists {
				at = i
			}
		}
		return edgeKey{src, dst, e.Type}, at, true
	}
	appendFresh := func(k edgeKey, w float64) {
		freshAt[k] = len(fresh)
		fresh = append(fresh, ontology.Edge{Src: k.src, Dst: k.dst, Type: k.typ, Weight: w})
	}
	for i := range d.Edges {
		e := &d.Edges[i]
		if k, at, ok := find(e); ok && at < 0 {
			if _, dup := freshAt[k]; !dup {
				appendFresh(k, e.Weight)
			}
		}
	}
	for i := range d.Reweight {
		e := &d.Reweight[i]
		k, at, ok := find(e)
		if !ok {
			continue
		}
		if at >= 0 {
			edges[at].Weight = e.Weight
		} else if j, seen := freshAt[k]; seen {
			fresh[j].Weight = e.Weight
		} else {
			appendFresh(k, e.Weight)
		}
	}
	kept := edges[:0]
	for _, e := range edges {
		if e.Src, e.Dst = remap[e.Src], remap[e.Dst]; e.Src >= 0 && e.Dst >= 0 {
			kept = append(kept, e) // not incident to a retired node
		}
	}

	snap, err := cur.Derive(nodes, append(kept, fresh...), retired)
	if err != nil {
		return nil, fmt.Errorf("delta: apply: %w", err)
	}
	return snap, nil
}

// mergeAliases unions alias lists, dropping duplicates (case-insensitive)
// and the canonical phrase itself, preserving first-seen order.
func mergeAliases(phrase string, existing, extra []string) []string {
	if len(extra) == 0 {
		return existing
	}
	seen := map[string]bool{strings.ToLower(phrase): true}
	out := make([]string, 0, len(existing)+len(extra))
	for _, lst := range [][]string{existing, extra} {
		for _, a := range lst {
			k := strings.ToLower(a)
			if !seen[k] {
				seen[k] = true
				out = append(out, a)
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
