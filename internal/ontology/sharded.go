package ontology

// ShardedSnapshot partitions an immutable ontology snapshot into K
// per-shard Snapshots — the unit of publication for the sharded serving
// and ingest tiers.
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
// touched-shard computation in delta.ApplySharded conservatively includes
// every shard whose projection gains or loses nodes or edges.

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
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

// shardGramsBox lazily holds one shard's home-prefix term-gram index. It is
// a separate allocation so Advance can carry an untouched shard's built
// index to the next generation alongside its projection (grams depend only
// on the shard's own home-node contents, never on the union).
type shardGramsBox struct {
	once sync.Once
	g    *TermGrams
}

// ShardedSnapshot composes K per-shard Snapshots with a phrase→shard
// routing index and the union index they project from.
type ShardedSnapshot struct {
	union     *Snapshot
	k         int
	shards    []*Snapshot
	homeCount []int // per shard: nodes[0:homeCount] are home, the rest ghosts
	grams     []*shardGramsBox
}

// freshGramsBoxes allocates empty gram boxes for k shards.
func freshGramsBoxes(k int) []*shardGramsBox {
	out := make([]*shardGramsBox, k)
	for i := range out {
		out[i] = &shardGramsBox{}
	}
	return out
}

// ShardSnapshot partitions union into k per-shard projections. k <= 1
// yields a single shard whose projection is the union itself (no ghosts,
// no copies) — what serve.New runs on, at zero overhead.
func ShardSnapshot(union *Snapshot, k int) (*ShardedSnapshot, error) {
	if k < 1 {
		k = 1
	}
	ss := &ShardedSnapshot{union: union, k: k, shards: make([]*Snapshot, k), homeCount: make([]int, k), grams: freshGramsBoxes(k)}
	if k == 1 {
		ss.shards[0] = union
		ss.homeCount[0] = union.Len()
		return ss, nil
	}
	homes := unionHomes(union, k)
	for s := 0; s < k; s++ {
		snap, home, err := projectShard(union, homes, s)
		if err != nil {
			return nil, err
		}
		ss.shards[s] = snap
		ss.homeCount[s] = home
	}
	return ss, nil
}

// ShardChanged is the one rule for whether an applied delta changed shard
// s of k: every shard when the touch flags are nil, the one shard at k ==
// 1 (its projection is the union itself), and otherwise exactly the shards
// flagged touched. Advance re-derives the projections it names, and a
// replica moves a shard's generation exactly when it holds. touched is nil
// or has one flag per shard.
func ShardChanged(touched []bool, k, s int) bool {
	return touched == nil || k == 1 || touched[s]
}

// Advance re-partitions onto nextUnion, rebuilding only the shards
// ShardChanged names and carrying the previous projections for the rest —
// the per-shard publication path: an ingest delta that touched two shards
// re-indexes two projections, not K.
func (ss *ShardedSnapshot) Advance(nextUnion *Snapshot, touched []bool) (*ShardedSnapshot, error) {
	if touched == nil || ss.k == 1 {
		return ShardSnapshot(nextUnion, ss.k) // every shard changed
	}
	if len(touched) != ss.k {
		return nil, fmt.Errorf("ontology: Advance got %d touch flags for %d shards", len(touched), ss.k)
	}
	next := &ShardedSnapshot{union: nextUnion, k: ss.k, shards: make([]*Snapshot, ss.k), homeCount: make([]int, ss.k), grams: freshGramsBoxes(ss.k)}
	var homes []int
	for s := 0; s < ss.k; s++ {
		if !ShardChanged(touched, ss.k, s) {
			next.shards[s] = ss.shards[s]
			next.homeCount[s] = ss.homeCount[s]
			next.grams[s] = ss.grams[s]
			continue
		}
		if homes == nil {
			homes = unionHomes(nextUnion, ss.k)
		}
		snap, home, err := projectShard(nextUnion, homes, s)
		if err != nil {
			return nil, err
		}
		next.shards[s] = snap
		next.homeCount[s] = home
	}
	return next, nil
}

// unionHomes computes the home shard of every union node.
func unionHomes(union *Snapshot, k int) []int {
	homes := make([]int, union.Len())
	for i := range union.nodes {
		n := &union.nodes[i]
		homes[n.ID] = HomeShard(n.Type, n.Phrase, k)
	}
	return homes
}

// projectShard builds shard s's projection: home nodes in union ID order,
// then ghost endpoints of cross-shard edges in union ID order, then every
// edge incident to a home node, remapped to local IDs.
func projectShard(union *Snapshot, homes []int, s int) (*Snapshot, int, error) {
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
	for id := range homes {
		if homes[id] == s {
			adopt(NodeID(id))
		}
	}
	home := len(nodes)
	// Ghosts: remote endpoints of edges incident to a home node, in union
	// ID order so the projection is deterministic.
	ghost := make([]bool, union.Len())
	for i := range union.edges {
		e := &union.edges[i]
		if homes[e.Src] == s && homes[e.Dst] != s {
			ghost[e.Dst] = true
		}
		if homes[e.Dst] == s && homes[e.Src] != s {
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
		if homes[e.Src] != s && homes[e.Dst] != s {
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
func (ss *ShardedSnapshot) NumShards() int { return ss.k }

// Union returns the authoritative composed snapshot the projections were
// derived from.
func (ss *ShardedSnapshot) Union() *Snapshot { return ss.union }

// Shard returns shard i's projection.
func (ss *ShardedSnapshot) Shard(i int) *Snapshot { return ss.shards[i] }

// HomeCount returns the number of home (non-ghost) nodes in shard i's
// projection.
func (ss *ShardedSnapshot) HomeCount(i int) int { return ss.homeCount[i] }

// HomeNodes returns a copy of shard i's home nodes (ghosts excluded).
func (ss *ShardedSnapshot) HomeNodes(i int) []Node {
	out := make([]Node, ss.homeCount[i])
	copy(out, ss.shards[i].nodes[:ss.homeCount[i]])
	return out
}

// ShardTermGrams returns shard i's home-prefix term-gram index, building
// it on first use (safe under concurrent readers). Advance carries the
// built index of an untouched shard to the next generation.
func (ss *ShardedSnapshot) ShardTermGrams(i int) *TermGrams {
	b := ss.grams[i]
	b.once.Do(func() {
		if b.g == nil {
			b.g = BuildTermGrams(ss.shards[i].nodes[:ss.homeCount[i]])
		}
	})
	return b.g
}

// CandidateShards routes an already-lowercased needle through the per-shard
// term-gram indexes: the returned shards (ascending) are the only ones
// whose home nodes could contain the needle. Exact in the negative — a
// shard not listed contributes nothing to the full scatter.
func (ss *ShardedSnapshot) CandidateShards(needle string) []int {
	out := make([]int, 0, ss.k)
	for s := 0; s < ss.k; s++ {
		if ss.ShardTermGrams(s).MayContain(needle) {
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
	if ss.k == 1 || limit <= 0 {
		return ss.union.Search(needle, limit)
	}
	needle = strings.ToLower(needle)
	if needle == "" {
		return nil
	}
	cursors := make([]*searchCursor, 0, ss.k)
	for s := 0; s < ss.k; s++ {
		if !ss.ShardTermGrams(s).MayContain(needle) {
			continue
		}
		c := &searchCursor{nodes: ss.shards[s].nodes[:ss.homeCount[s]], union: ss.union}
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
// resolving each match's union ID (home copies keep the union's phrase
// keys, so the union index is the authoritative renderer — exactly the
// remap the eager scatter-gather performed per hit).
type searchCursor struct {
	nodes   []Node
	union   *Snapshot
	pos     int
	unionID NodeID
}

// advance scans forward to the next home match, returning false when the
// prefix is exhausted. A home node missing from the union index (which a
// well-formed partition never produces) is skipped, matching the eager
// merge's behaviour.
func (c *searchCursor) advance(needle string) bool {
	for ; c.pos < len(c.nodes); c.pos++ {
		n := &c.nodes[c.pos]
		if !nodeMatches(n, needle) {
			continue
		}
		if id, ok := c.union.Lookup(n.Type, n.Phrase); ok {
			c.unionID = id
			c.pos++
			return true
		}
	}
	return false
}

// Projection packages shard i's snapshot as a self-describing
// ShardProjection — the boot artifact for a per-shard serving process.
// The local→union ID table is derived through the union phrase index
// (exactly the remap scatter-gather Search performs), so a per-shard
// server renders the same node IDs the composed view renders.
func (ss *ShardedSnapshot) Projection(i int) *ShardProjection {
	snap := ss.shards[i]
	ids := make([]NodeID, len(snap.nodes))
	for j := range snap.nodes {
		n := &snap.nodes[j]
		if uid, ok := ss.union.Lookup(n.Type, n.Phrase); ok {
			ids[j] = uid
		} else {
			ids[j] = -1
		}
	}
	p := &ShardProjection{
		Snap: snap, Shard: i, NumShards: ss.k,
		HomeCount: ss.homeCount[i], UnionIDs: ids,
	}
	p.index()
	return p
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
