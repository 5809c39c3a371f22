package delta

// Sharded publication of a delta. There is one computed world: Compute
// diffs the mined batch against the union snapshot and Apply advances it. A
// shard is an ontology.HomeShard projection of that union (ontology.Project),
// so publishing to a sharded deployment is Apply plus a projection step —
// TouchedShards routes every (type, phrase) the delta references, and the
// neighbors of its retirements, through the same hash the projections use.
// A per-shard server re-derives its projection only when its shard is
// touched, and otherwise rebases the one it serves onto the new union.

import "giant/internal/ontology"

// TouchedShards computes which shards' projections a delta can change: the
// home shard of every added, touched, retired, re-weighted or edge-endpoint
// node — plus, for retirements, the home shards of the retired node's
// neighbors in the pre-apply union (their projections lose the incident
// edge and possibly a ghost copy).
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
