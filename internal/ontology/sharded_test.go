package ontology

import (
	"fmt"
	"reflect"
	"testing"
)

// buildSample builds a small ontology with cross-type edges so shard
// projections get both home nodes and ghosts.
func buildSample(t *testing.T) *Snapshot {
	t.Helper()
	o := New()
	var ids []NodeID
	for i := 0; i < 12; i++ {
		ids = append(ids, o.AddNode(Concept, fmt.Sprintf("concept %02d", i)))
	}
	for i := 0; i < 6; i++ {
		ids = append(ids, o.AddNode(Entity, fmt.Sprintf("entity %02d", i)))
	}
	o.AddAlias(ids[0], "concept zero")
	for i := 0; i < 6; i++ {
		if err := o.AddEdge(ids[i], ids[12+i], IsA, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 12; i++ {
		if err := o.AddEdge(ids[0], ids[i], Correlate, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	return o.Snapshot()
}

func TestShardSnapshotPartition(t *testing.T) {
	union := buildSample(t)
	for _, k := range []int{1, 2, 4} {
		ss, err := ShardSnapshot(union, k)
		if err != nil {
			t.Fatal(err)
		}
		if ss.NumShards() != k || ss.Union() != union {
			t.Fatalf("k=%d: NumShards/Union broken", k)
		}
		// Every node home in exactly one shard, matching the routing index.
		seen := map[string]int{}
		total := 0
		for s := 0; s < k; s++ {
			for _, n := range ss.HomeNodes(s) {
				key := n.Type.String() + "|" + n.Phrase
				if prev, dup := seen[key]; dup {
					t.Fatalf("k=%d: %s home in shards %d and %d", k, key, prev, s)
				}
				seen[key] = s
				id, ok := union.Lookup(n.Type, n.Phrase)
				if !ok {
					t.Fatalf("k=%d: the union has no %s", k, key)
				}
				if u := union.At(id); HomeShard(u.Type, u.Phrase, k) != s {
					t.Fatalf("k=%d: union node %s homes on %d, not %d", k, key, HomeShard(u.Type, u.Phrase, k), s)
				}
				if HomeShard(n.Type, n.Phrase, k) != s {
					t.Fatalf("k=%d: HomeShard disagrees for %s", k, key)
				}
				total++
			}
		}
		if total != union.NodeCount() {
			t.Fatalf("k=%d: %d home nodes, want %d", k, total, union.NodeCount())
		}
		// Every shard projection is internally consistent: each edge
		// incident to at least one home node, endpoints resolvable.
		for s := 0; s < k; s++ {
			snap := ss.Shard(s)
			home := ss.HomeCount(s)
			for _, e := range snap.Edges() {
				if int(e.Src) >= snap.Len() || int(e.Dst) >= snap.Len() {
					t.Fatalf("k=%d shard %d: edge endpoint out of range", k, s)
				}
				if int(e.Src) >= home && int(e.Dst) >= home {
					t.Fatalf("k=%d shard %d: edge between two ghosts", k, s)
				}
			}
		}
	}
}

// TestAdvanceReusesUntouched: moving a set of shard projections to a new
// union re-derives exactly the shards ShardChanged names; every other
// shard's Rebase keeps its snapshot pointer and its lazily built term-gram
// index, and re-resolves the same union IDs.
func TestAdvanceReusesUntouched(t *testing.T) {
	union := buildSample(t)
	const k = 4
	projs := make([]*ShardProjection, k)
	for s := range projs {
		p, err := Project(union, s, k)
		if err != nil {
			t.Fatal(err)
		}
		p.TermGrams()
		projs[s] = p
	}
	advance := func(touched []bool) []*ShardProjection {
		next := make([]*ShardProjection, k)
		for s, p := range projs {
			if !ShardChanged(touched, k, s) {
				next[s] = p.Rebase(union)
				continue
			}
			q, err := Project(union, s, k)
			if err != nil {
				t.Fatal(err)
			}
			next[s] = q
		}
		return next
	}
	// Same union, nothing touched: all projections reused.
	next := advance([]bool{false, false, false, false})
	for s := 0; s < k; s++ {
		if next[s].Snap != projs[s].Snap || next[s].grams != projs[s].grams {
			t.Fatalf("untouched shard %d rebuilt", s)
		}
		if !reflect.DeepEqual(next[s].UnionIDs, projs[s].UnionIDs) || next[s].HomeCount != projs[s].HomeCount {
			t.Fatalf("untouched shard %d re-resolved to different union IDs", s)
		}
	}
	// One touched shard rebuilds, others are reused.
	next = advance([]bool{false, true, false, false})
	for s := 0; s < k; s++ {
		reused := next[s].Snap == projs[s].Snap
		if s == 1 && reused {
			t.Fatal("touched shard 1 not rebuilt")
		}
		if s != 1 && !reused {
			t.Fatalf("untouched shard %d rebuilt", s)
		}
	}
	// At k == 1 the one shard is the union itself and always changes.
	if !ShardChanged([]bool{false}, 1, 0) {
		t.Fatal("the single shard must change with every delta")
	}
	if _, err := Project(union, k, k); err == nil {
		t.Fatal("out-of-range shard index must error")
	}
}

func TestShardSnapshotSingleShardIsUnion(t *testing.T) {
	union := buildSample(t)
	ss, err := ShardSnapshot(union, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Shard(0) != union {
		t.Fatal("k=1 must reuse the union snapshot, not copy it")
	}
	if ss.HomeCount(0) != union.Len() {
		t.Fatal("k=1 home count mismatch")
	}
}

func TestShardedSearchMatchesUnion(t *testing.T) {
	union := buildSample(t)
	for _, k := range []int{2, 4} {
		ss, err := ShardSnapshot(union, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, needle := range []string{"concept", "entity 0", "zero", "02", "no such phrase", ""} {
			for _, limit := range []int{1, 3, 100} {
				want := union.Search(needle, limit)
				got := ss.Search(needle, limit)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("k=%d Search(%q, %d) = %v, want %v", k, needle, limit, got, want)
				}
			}
		}
	}
}

func TestShardStatsCountsHomeNodesOnly(t *testing.T) {
	union := buildSample(t)
	ss, err := ShardSnapshot(union, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantTotals := union.ComputeStats()
	gotTotals := map[string]int{}
	for s := 0; s < 4; s++ {
		stats := ss.Projection(s).HomeStats()
		n := 0
		for typ, c := range stats.NodesByType {
			gotTotals[typ] += c
			n += c
		}
		if n != ss.HomeCount(s) {
			t.Fatalf("shard %d stats count %d nodes, home count %d", s, n, ss.HomeCount(s))
		}
	}
	if !reflect.DeepEqual(gotTotals, wantTotals.NodesByType) {
		t.Fatalf("summed shard node stats %v != union %v", gotTotals, wantTotals.NodesByType)
	}
}
