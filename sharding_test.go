package giant

// End-to-end sharding checks: the per-shard projections of a full build and
// of every generation of a day-by-day ingest replay partition that one
// world, and a batch changes no projection outside delta.TouchedShards.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"giant/internal/delta"
	"giant/internal/ontology"
)

// assertShardPartition checks the sharded snapshot's invariants: every
// union node home in exactly one shard and the union of per-shard edges
// (phrase-keyed) equal to the union snapshot's edge set.
func assertShardPartition(t *testing.T, ss *ontology.ShardedSnapshot) {
	t.Helper()
	union := ss.Union()
	homes := 0
	seen := map[string]bool{}
	for s := 0; s < ss.NumShards(); s++ {
		for _, n := range ss.HomeNodes(s) {
			key := n.Type.String() + "|" + n.Phrase
			if seen[key] {
				t.Fatalf("node %s home in two shards", key)
			}
			seen[key] = true
			homes++
		}
	}
	if homes != union.NodeCount() {
		t.Fatalf("home nodes %d != union nodes %d", homes, union.NodeCount())
	}
	edgeSet := func(s *ontology.Snapshot) map[string]bool {
		out := map[string]bool{}
		for _, e := range s.Edges() {
			src, _ := s.Get(e.Src)
			dst, _ := s.Get(e.Dst)
			out[fmt.Sprintf("%s|%s|%s|%s|%s|%.6f", src.Type, src.Phrase, e.Type, dst.Type, dst.Phrase, e.Weight)] = true
		}
		return out
	}
	merged := map[string]bool{}
	for s := 0; s < ss.NumShards(); s++ {
		for k := range edgeSet(ss.Shard(s)) {
			merged[k] = true
		}
	}
	want := edgeSet(union)
	if len(merged) != len(want) {
		t.Fatalf("merged shard edges %d != union edges %d", len(merged), len(want))
	}
	for k := range want {
		if !merged[k] {
			t.Fatalf("union edge %s missing from every shard", k)
		}
	}
}

// TestShardedBuildEquivalence: the sharded projection of the full build
// partitions it exactly, for K in {2, 4}.
func TestShardedBuildEquivalence(t *testing.T) {
	base := fullSystem(t, equivalenceConfig())
	for _, k := range []int{2, 4} {
		ss, err := ontology.ShardSnapshot(base.Snapshot(), k)
		if err != nil {
			t.Fatalf("ShardSnapshot: %v", err)
		}
		if ss.NumShards() != k {
			t.Fatalf("sharded snapshot has %d shards, want %d", ss.NumShards(), k)
		}
		assertShardPartition(t, ss)
	}
}

// TestShardedIngestReplayEquivalence: replaying the corpus in quarter-day
// batches through Ingest, every generation's K-way projection stays a real
// partition for K in {2, 4}, and every shard delta.TouchedShards leaves
// untouched projects to the same home nodes and the same edges before
// and after the batch — what lets a per-shard server keep serving an
// untouched projection's snapshot.
func TestShardedIngestReplayEquivalence(t *testing.T) {
	cfg := equivalenceConfig()
	full := fullSystem(t, cfg)
	maxDay := maxRecordDay(full)
	if maxDay < 2 {
		t.Fatalf("log too shallow for a split: max day %d", maxDay)
	}
	splitDay := maxDay / 2
	inc, err := BuildUpToDay(cfg, splitDay)
	if err != nil {
		t.Fatalf("BuildUpToDay: %v", err)
	}
	var batches []delta.Batch
	for day := splitDay + 1; day <= maxDay; day++ {
		var clicks []delta.Click
		for _, r := range full.Log.Records {
			if r.Day == day {
				clicks = append(clicks, delta.Click{Query: r.Query, DocID: r.DocID, Clicks: r.Clicks, Day: r.Day})
			}
		}
		// Quarter-day slices: a whole day's batch touches every shard.
		for q := 0; q < 4; q++ {
			batches = append(batches, delta.Batch{Day: day, Clicks: clicks[q*len(clicks)/4 : (q+1)*len(clicks)/4]})
		}
	}
	untouched := 0
	for _, batch := range batches {
		day := batch.Day
		prev := inc.Snapshot()
		next, d, err := inc.Ingest(batch)
		if err != nil {
			t.Fatalf("Ingest day %d: %v", day, err)
		}
		for _, k := range []int{2, 4} {
			touched := delta.TouchedShards(prev, d, k)
			if d.Empty() && slices.Contains(touched, true) {
				t.Fatalf("k=%d day %d: empty delta touched shards %v", k, day, touched)
			}
			before, err := ontology.ShardSnapshot(prev, k)
			if err != nil {
				t.Fatal(err)
			}
			after, err := ontology.ShardSnapshot(next, k)
			if err != nil {
				t.Fatal(err)
			}
			assertShardPartition(t, after)
			for s := 0; s < k; s++ {
				if touched[s] {
					continue
				}
				untouched++
				if !reflect.DeepEqual(before.HomeNodes(s), after.HomeNodes(s)) || !reflect.DeepEqual(edgeKeys(before.Shard(s)), edgeKeys(after.Shard(s))) {
					t.Fatalf("k=%d day %d: untouched shard %d projects differently after the batch", k, day, s)
				}
			}
		}
	}
	if untouched == 0 {
		t.Fatal("no batch left a shard untouched: the replay does not exercise the rule")
	}
}

// edgeKeys lists a snapshot's edges by endpoint phrase keys, in edge order.
func edgeKeys(s *ontology.Snapshot) []string {
	var out []string
	for _, e := range s.Edges() {
		src, dst := s.At(e.Src), s.At(e.Dst)
		out = append(out, fmt.Sprintf("%s|%s|%s|%s|%s|%g", src.Type, src.Phrase, e.Type, dst.Type, dst.Phrase, e.Weight))
	}
	return out
}
