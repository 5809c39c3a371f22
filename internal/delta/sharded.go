package delta

// Shard-parallel delta computation and application. The mined batch is
// partitioned by the seed queries' click-graph shard (connected clusters
// never straddle shards, so a shard's mined attentions are exactly the
// output of re-mining that shard's seeds); the per-attention diff phases —
// Add/Touch classification, category re-weighting, entity linking — run
// per shard on the worker pool, while the inventory-wide phases (CSD
// derivation, suffix/containment isA, concept-topic involve, TTL decay)
// run once over the union inventories so no cross-shard link is ever
// missed.
//
// The per-shard Delta is the unit of parallelism and provenance (each
// carries its shard's seeds; global-phase emissions are filed under the
// home shard of the node or edge source, so a shard's delta holds the
// changes its projection will absorb — the shape a future multi-process
// deployment would ship to per-shard servers). It is NOT what drives
// republication: ApplySharded merges the deltas and derives the
// touched-shard set from the merged delta via TouchedShards, which routes
// every referenced (type, phrase) — and the neighbors of retirements —
// through the same ontology.HomeShard hash the projections use.
//
// The equivalence contract: merging the per-shard deltas and applying them
// yields exactly the node and edge sets (with weights and attributes) the
// single-delta Compute would produce — attentions resolving to the same
// canonical node are kept in one shard, the inventory-wide phases see the
// same union inputs, and Apply deduplicates the rare cross-shard repeat.
// Only node-ID assignment order may differ.

import (
	"sort"

	"giant/internal/core"
	"giant/internal/ontology"
	"giant/internal/par"
)

// routedSink routes each emitted entry to its home shard's builder.
type routedSink struct {
	builders []*deltaBuilder
	k        int
}

func (s routedSink) emitAdd(a NodeAdd) {
	b := s.builders[ontology.HomeShard(a.Type, a.Phrase, s.k)]
	b.d.Add = append(b.d.Add, a)
}

func (s routedSink) emitEdge(e EdgeAdd) {
	s.builders[ontology.HomeShard(e.SrcType, e.Src, s.k)].addEdge(e)
}

func (s routedSink) emitRetire(r Ref) {
	b := s.builders[ontology.HomeShard(r.Type, r.Phrase, s.k)]
	b.d.Retire = append(b.d.Retire, r)
}

// ComputeSharded is the k-way analogue of Compute: it returns one Delta
// per shard whose union is set-equivalent to the single Compute delta.
// shardOf maps a seed query to its click-graph shard (unknown seeds fall
// back to shard 0). k <= 1 degrades to plain Compute.
func ComputeSharded(cur *ontology.Snapshot, mined []core.Mined, seeds []string, day int, pol Policy, src Source, shardOf func(seed string) (int, bool), k int) []*Delta {
	if k <= 1 {
		return []*Delta{Compute(cur, mined, seeds, day, pol, src)}
	}
	workers := src.workers()

	// Partition seeds for provenance.
	seedsOf := make([][]string, k)
	for _, s := range seeds {
		shard := 0
		if sh, ok := shardOf(s); ok {
			shard = sh
		}
		seedsOf[shard] = append(seedsOf[shard], s)
	}

	// Partition mined attentions by their seed's shard, keeping every
	// group of attentions that resolves to the same canonical (type,
	// phrase) on a single shard: the group's classification (first
	// occurrence adds or touches, later ones ride along) and its category
	// aggregation are order-sensitive within the group, so splitting one
	// across shards would change the merged result.
	groupShard := map[string]int{}
	minedOf := make([][]core.Mined, k)
	for i := range mined {
		m := &mined[i]
		key := canonicalKey(cur, m)
		shard, ok := groupShard[key]
		if !ok {
			shard = 0
			if s, found := shardOf(m.Seed); found {
				shard = s
			}
			groupShard[key] = shard
		}
		minedOf[shard] = append(minedOf[shard], *m)
	}

	// Per-shard local phases, fanned out over the pool. Each shard runs
	// its inner phases serially (the fan-out is across shards).
	builders := make([]*deltaBuilder, k)
	classifieds := make([]*classified, k)
	localSrc := src
	localSrc.Parallelism = 1
	par.ForEachIndexed(workers, k, func(s int) {
		b := newDeltaBuilder(day, seedsOf[s])
		cl := classify(cur, minedOf[s], b)
		categoryPhase(cur, cl.nodes, pol, localSrc, b, 1)
		entityPhase(cur, cl.nodes, localSrc, b, 1)
		builders[s] = b
		classifieds[s] = cl
	})

	// Union classification state for the inventory-wide phases, with the
	// batch's new phrase lists reconstructed in global mined order so the
	// discovery scans see the same inputs the single-delta path would.
	unionNew := map[string]bool{}
	unionTouched := map[string]bool{}
	for _, cl := range classifieds {
		for key := range cl.newSet {
			unionNew[key] = true
		}
		for key := range cl.touched {
			unionTouched[key] = true
		}
	}
	inv := &inventories{
		newConceptSet: map[string]bool{},
		newEventSet:   map[string]bool{},
		newSet:        unionNew,
	}
	var newEvents []string
	seen := map[string]bool{}
	for i := range mined {
		m := &mined[i]
		typ := ontology.Concept
		if m.IsEvent {
			typ = ontology.Event
		}
		key := refKey(typ, m.Phrase)
		if !unionNew[key] || seen[key] {
			continue
		}
		seen[key] = true
		if m.IsEvent {
			newEvents = append(newEvents, m.Phrase)
			inv.newEventSet[m.Phrase] = true
		} else {
			inv.newConcepts = append(inv.newConcepts, m.Phrase)
			inv.newConceptSet[m.Phrase] = true
		}
	}
	inv.allConcepts = append(phrasesOfType(cur, ontology.Concept), inv.newConcepts...)
	inv.allEvents = append(phrasesOfType(cur, ontology.Event), newEvents...)

	sink := routedSink{builders: builders, k: k}
	derivePhase(cur, inv, day, pol, src, sink, workers)
	ttlPhase(cur, unionTouched, day, pol, sink)

	out := make([]*Delta, k)
	for s := range builders {
		out[s] = builders[s].d
	}
	return out
}

// canonicalKey resolves a mined attention to the refKey of the node it
// will add or touch (the existing canonical node's phrase when the mined
// phrase or one of its aliases is already known).
func canonicalKey(cur *ontology.Snapshot, m *core.Mined) string {
	typ := ontology.Concept
	if m.IsEvent {
		typ = ontology.Event
	}
	if n, ok := findNode(cur, typ, m.Phrase); ok {
		return refKey(typ, n.Phrase)
	}
	return refKey(typ, m.Phrase)
}

// MergeDeltas concatenates per-shard deltas (in shard order) into the
// single delta their union represents: the day is the maximum, seeds are
// re-sorted and entry slices append in shard order. Apply deduplicates
// nodes and edges, so applying the merged delta equals applying the
// shards' deltas jointly.
func MergeDeltas(deltas []*Delta) *Delta {
	if len(deltas) == 1 {
		return deltas[0]
	}
	out := &Delta{}
	for _, d := range deltas {
		if d == nil {
			continue
		}
		if d.Day > out.Day {
			out.Day = d.Day
		}
		out.Seeds = append(out.Seeds, d.Seeds...)
		out.Add = append(out.Add, d.Add...)
		out.Touch = append(out.Touch, d.Touch...)
		out.Edges = append(out.Edges, d.Edges...)
		out.Reweight = append(out.Reweight, d.Reweight...)
		out.Retire = append(out.Retire, d.Retire...)
	}
	sort.Strings(out.Seeds)
	return out
}

// TouchedShards computes which shards' projections a merged delta can
// change: the home shard of every added, touched, retired, re-weighted or
// edge-endpoint node — plus, for retirements, the home shards of the
// retired node's neighbors in the pre-apply union (their projections lose
// the incident edge and possibly a ghost copy).
func TouchedShards(cur *ontology.Snapshot, d *Delta, k int) []bool {
	touched := make([]bool, k)
	mark := func(t ontology.NodeType, phrase string) {
		touched[ontology.HomeShard(t, phrase, k)] = true
	}
	for i := range d.Add {
		mark(d.Add[i].Type, d.Add[i].Phrase)
	}
	for i := range d.Touch {
		mark(d.Touch[i].Type, d.Touch[i].Phrase)
	}
	for i := range d.Edges {
		mark(d.Edges[i].SrcType, d.Edges[i].Src)
		mark(d.Edges[i].DstType, d.Edges[i].Dst)
	}
	for i := range d.Reweight {
		mark(d.Reweight[i].SrcType, d.Reweight[i].Src)
		mark(d.Reweight[i].DstType, d.Reweight[i].Dst)
	}
	for i := range d.Retire {
		r := &d.Retire[i]
		mark(r.Type, r.Phrase)
		id, ok := cur.Lookup(r.Type, r.Phrase)
		if !ok {
			continue
		}
		cur.EachOut(id, func(_ *ontology.Edge, dst *ontology.Node) bool {
			mark(dst.Type, dst.Phrase)
			return true
		})
		cur.EachIn(id, func(_ *ontology.Edge, src *ontology.Node) bool {
			mark(src.Type, src.Phrase)
			return true
		})
	}
	return touched
}

// ApplySharded applies per-shard deltas to a sharded snapshot: the merged
// delta advances the union exactly as Apply would, and only the touched
// shards' projections are re-derived — untouched shards keep their current
// projection (and, in the serving tier, their generation). It returns the
// next sharded snapshot, the merged delta and the touched-shard flags.
func ApplySharded(cur *ontology.ShardedSnapshot, deltas []*Delta) (*ontology.ShardedSnapshot, *Delta, []bool, error) {
	merged := MergeDeltas(deltas)
	touched := TouchedShards(cur.Union(), merged, cur.NumShards())
	nextUnion, err := Apply(cur.Union(), merged)
	if err != nil {
		return nil, nil, nil, err
	}
	next, err := cur.Advance(nextUnion, touched)
	if err != nil {
		return nil, nil, nil, err
	}
	return next, merged, touched, nil
}
