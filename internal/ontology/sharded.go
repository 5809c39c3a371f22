package ontology

// A k-way partition cuts an immutable ontology snapshot into k per-shard
// projections (Project). A per-shard server derives its one projection;
// ShardedSnapshot holds all k for the whole-world sharded server.
//
// Every node has exactly one home shard, chosen by hashing its
// (type, phrase) key (HomeShard), so routing a phrase to its shard needs
// no directory lookup and stays stable across generations. A shard's
// projection holds its home nodes plus every edge incident to one of them;
// the remote endpoint of a cross-shard edge is materialized as a "ghost"
// copy after the home nodes, so each projection is a self-contained, valid
// Snapshot (dense IDs, in-range CSR adjacency) that can be served, saved
// or swapped independently. An edge whose endpoints live on two different
// shards is therefore stored twice — once per endpoint's projection — and
// deduplicates by phrase keys when shards are merged back together.
//
// The union snapshot is retained as the authoritative composed view
// (Union): whole-world reads — tagging, query understanding, story trees —
// run on it, so node IDs stay coherent across shards. Scatter-gather reads
// (Search, per-shard stats) run against the projections.
//
// Ghost copies trade freshness for locality: when a delta touches only a
// node's home shard, ghost copies of it on other shards keep their old
// attribute values (last-seen day, merged aliases) until those shards next
// republish. Node existence and edge structure are always exact — the
// touched-shard computation in delta.TouchedShards conservatively includes
// every shard whose projection gains or loses nodes or edges.

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// HomeShard returns the home shard of a (type, phrase) node key under a
// k-way partition. It is the single routing function shared by the build,
// delta and serving layers; k <= 1 collapses to shard 0.
func HomeShard(t NodeType, phrase string, k int) int {
	if k <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(nodeKey(t, phrase)))
	return int(h.Sum32() % uint32(k))
}

// ShardedSnapshot composes K per-shard projections (see Project) with the
// union index they project from.
type ShardedSnapshot struct {
	union *Snapshot
	projs []*ShardProjection
}

// ShardSnapshot partitions union into k per-shard projections, each
// derived by Project. k <= 1 yields a single shard whose projection is the
// union itself (no ghosts, no copies) — what serve.New runs on.
func ShardSnapshot(union *Snapshot, k int) (*ShardedSnapshot, error) {
	ss := &ShardedSnapshot{union: union, projs: make([]*ShardProjection, max(k, 1))}
	for s := range ss.projs {
		p, err := Project(union, s, len(ss.projs))
		if err != nil {
			return nil, err
		}
		ss.projs[s] = p
	}
	return ss, nil
}

// ShardChanged is the one rule for whether an applied delta changed shard
// s of k: the one shard at k == 1 (its projection is the union itself),
// and otherwise exactly the shards flagged touched (one flag per shard,
// see delta.TouchedShards). A replica re-derives its projection and moves
// its generation exactly when it holds.
func ShardChanged(touched []bool, k, s int) bool {
	return k == 1 || touched[s]
}

// Project derives shard i of a k-way partition of union: its home nodes
// in union ID order, then the ghost endpoints of cross-shard edges in
// union ID order, then every edge incident to a home node, remapped to
// local IDs, with the local→union ID table resolved through the union
// phrase index. At k == 1 the projection's snapshot is the union itself.
// It is the one partition function: ShardSnapshot, LoadShardInput's
// derive path and a per-shard server's apply all call it.
func Project(union *Snapshot, i, k int) (*ShardProjection, error) {
	if k < 1 || i < 0 || i >= k {
		return nil, fmt.Errorf("ontology: shard index %d out of range for %d shards", i, k)
	}
	snap, home := union, union.Len()
	if k > 1 {
		var err error
		if snap, home, err = projectShard(union, i, k); err != nil {
			return nil, err
		}
	}
	p := &ShardProjection{Snap: snap, Shard: i, NumShards: k, HomeCount: home, grams: &homeGrams{}}
	p.resolve(union)
	return p, nil
}

// Rebase returns p over a later union that did not change p's shard (see
// ShardChanged): the same snapshot, home prefix and term-gram index, with
// only the union IDs re-resolved, since retiring a node elsewhere
// renumbers the union. The snapshot's lazily built indexes (token
// postings, term grams) therefore carry over, and so does one stale
// field: a ghost copy keeps the LastSeenDay it had, because touching a
// node marks only its home shard (delta.TouchedShards). No read renders
// it: a shard answers for its home nodes only, and LastSeenDay, which
// drives TTL retirement on the union, is in no wire form.
func (p *ShardProjection) Rebase(union *Snapshot) *ShardProjection {
	q := &ShardProjection{Snap: p.Snap, Shard: p.Shard, NumShards: p.NumShards, HomeCount: p.HomeCount, grams: p.grams}
	q.resolve(union)
	return q
}

// resolve sets the local→union ID table through union's phrase index
// (exactly the remap scatter-gather Search performs), so a per-shard
// server renders the node IDs the composed view renders.
func (p *ShardProjection) resolve(union *Snapshot) {
	p.UnionIDs = make([]NodeID, len(p.Snap.nodes))
	for j := range p.Snap.nodes {
		n := &p.Snap.nodes[j]
		p.UnionIDs[j] = -1
		if uid, ok := union.Lookup(n.Type, n.Phrase); ok {
			p.UnionIDs[j] = uid
		}
	}
}

// projectShard builds shard s's snapshot of a k-way partition and returns
// it with its home-node count.
func projectShard(union *Snapshot, s, k int) (*Snapshot, int, error) {
	mine := make([]bool, union.Len())
	for i := range union.nodes {
		n := &union.nodes[i]
		mine[n.ID] = HomeShard(n.Type, n.Phrase, k) == s
	}
	local := make([]NodeID, union.Len())
	for i := range local {
		local[i] = -1
	}
	var nodes []Node
	adopt := func(id NodeID) {
		if local[id] >= 0 {
			return
		}
		n := union.nodes[id]
		n.ID = NodeID(len(nodes))
		local[id] = n.ID
		nodes = append(nodes, n)
	}
	for id := range mine {
		if mine[id] {
			adopt(NodeID(id))
		}
	}
	home := len(nodes)
	// Ghosts: remote endpoints of edges incident to a home node, in union
	// ID order so the projection is deterministic.
	ghost := make([]bool, union.Len())
	for i := range union.edges {
		e := &union.edges[i]
		if mine[e.Src] && !mine[e.Dst] {
			ghost[e.Dst] = true
		}
		if mine[e.Dst] && !mine[e.Src] {
			ghost[e.Src] = true
		}
	}
	for id := range ghost {
		if ghost[id] {
			adopt(NodeID(id))
		}
	}
	var edges []Edge
	for i := range union.edges {
		e := union.edges[i]
		if !mine[e.Src] && !mine[e.Dst] {
			continue
		}
		e.Src, e.Dst = local[e.Src], local[e.Dst]
		edges = append(edges, e)
	}
	snap, err := BuildSnapshot(nodes, edges)
	if err != nil {
		return nil, 0, fmt.Errorf("ontology: project shard %d: %w", s, err)
	}
	return snap, home, nil
}

// NumShards returns K.
func (ss *ShardedSnapshot) NumShards() int { return len(ss.projs) }

// Union returns the authoritative composed snapshot the projections were
// derived from.
func (ss *ShardedSnapshot) Union() *Snapshot { return ss.union }

// Shard returns shard i's projected snapshot.
func (ss *ShardedSnapshot) Shard(i int) *Snapshot { return ss.projs[i].Snap }

// HomeCount returns the number of home (non-ghost) nodes in shard i's
// projection.
func (ss *ShardedSnapshot) HomeCount(i int) int { return ss.projs[i].HomeCount }

// HomeNodes returns a copy of shard i's home nodes (ghosts excluded).
func (ss *ShardedSnapshot) HomeNodes(i int) []Node {
	p := ss.projs[i]
	return append([]Node(nil), p.Snap.nodes[:p.HomeCount]...)
}

// Projection returns shard i's projection, the one Project derives.
func (ss *ShardedSnapshot) Projection(i int) *ShardProjection { return ss.projs[i] }

// CandidateShards routes an already-lowercased needle through the per-shard
// term-gram indexes: the returned shards (ascending) are the only ones
// whose home nodes could contain the needle. Exact in the negative — a
// shard not listed contributes nothing to the full scatter.
func (ss *ShardedSnapshot) CandidateShards(needle string) []int {
	out := make([]int, 0, len(ss.projs))
	for s, p := range ss.projs {
		if p.TermGrams().MayContain(needle) {
			out = append(out, s)
		}
	}
	return out
}

// Search is the scatter-gather analogue of Snapshot.Search, attacked from
// two sides so the sharded path stays within small-constant distance of the
// single-snapshot scan:
//
//   - Term-gram routing: only the shards whose home-gram index may contain
//     the needle are consulted at all (most needles route to 0–2 shards).
//   - Score-bounded merge: the candidate shards are walked through lazy
//     match cursors merged in union node-ID order (the "score" — smaller is
//     better, exactly Snapshot.Search's output order). A shard advances
//     only while it holds the minimum, and the merge stops at limit, so no
//     shard scans meaningfully past the union position of the limit-th
//     match — the same early-termination bound the union scan enjoys,
//     instead of every shard scanning to its own limit-th match.
//
// The result is identical to Union().Search(needle, limit): home nodes
// partition the union and preserve union ID order within a shard, gram
// pruning is a superset filter, and the k-way merge visits matches in
// exactly ascending union ID.
func (ss *ShardedSnapshot) Search(needle string, limit int) []Node {
	if len(ss.projs) == 1 || limit <= 0 {
		return ss.union.Search(needle, limit)
	}
	needle = strings.ToLower(needle)
	if needle == "" {
		return nil
	}
	cursors := make([]*searchCursor, 0, len(ss.projs))
	for _, p := range ss.projs {
		if !p.TermGrams().MayContain(needle) {
			continue
		}
		c := &searchCursor{p: p}
		if c.advance(needle) {
			cursors = append(cursors, c)
		}
	}
	var out []Node
	for len(cursors) > 0 && len(out) < limit {
		best := 0
		for i := 1; i < len(cursors); i++ {
			if cursors[i].unionID < cursors[best].unionID {
				best = i
			}
		}
		out = append(out, *ss.union.At(cursors[best].unionID))
		if !cursors[best].advance(needle) {
			cursors[best] = cursors[len(cursors)-1]
			cursors = cursors[:len(cursors)-1]
		}
	}
	return out
}

// searchCursor walks one shard's home-node prefix to successive matches,
// with each match's union ID from the projection's ID table.
type searchCursor struct {
	p       *ShardProjection
	pos     int
	unionID NodeID
}

// advance scans forward to the next home match, returning false when the
// prefix is exhausted. A home node the union does not resolve (which a
// well-formed partition never produces) is skipped.
func (c *searchCursor) advance(needle string) bool {
	for ; c.pos < c.p.HomeCount; c.pos++ {
		if uid := c.p.UnionIDs[c.pos]; uid >= 0 && nodeMatches(&c.p.Snap.nodes[c.pos], needle) {
			c.unionID = uid
			c.pos++
			return true
		}
	}
	return false
}

// searchNodes is the shared substring scan: up to limit nodes whose phrase
// or alias contains the lowercased needle, in slice order.
func searchNodes(nodes []Node, needle string, limit int) []Node {
	var out []Node
	for i := range nodes {
		n := &nodes[i]
		if !nodeMatches(n, needle) {
			continue
		}
		out = append(out, *n)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}
