package giant

// End-to-end sharding equivalence: for any Shards count, a full build and
// every generation of a day-by-day ingest replay are byte-identical to the
// 1-shard path, and the per-shard projections partition that one world.

import (
	"bytes"
	"fmt"
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

// TestShardedBuildEquivalence: the full build is byte-identical for every
// shard count, and the sharded projection partitions it exactly.
func TestShardedBuildEquivalence(t *testing.T) {
	cfg := equivalenceConfig()
	base := fullSystem(t, cfg)
	want := ontologyJSON(t, base.Snapshot())
	for _, k := range []int{2, 4} {
		c := cfg
		c.Shards = k
		sys, err := Build(c)
		if err != nil {
			t.Fatalf("Build shards=%d: %v", k, err)
		}
		if !bytes.Equal(ontologyJSON(t, sys.Snapshot()), want) {
			t.Fatalf("shards=%d build is not byte-identical to the 1-shard build", k)
		}
		ss, err := sys.ShardedSnapshot()
		if err != nil {
			t.Fatalf("ShardedSnapshot: %v", err)
		}
		if ss.NumShards() != k {
			t.Fatalf("sharded snapshot has %d shards, want %d", ss.NumShards(), k)
		}
		assertShardPartition(t, ss)
	}
}

// TestShardedIngestReplayEquivalence: replaying the corpus day by day
// through IngestSharded yields, after every batch, a union byte-identical
// to the 1-shard Ingest replay's generation, for Shards in {2, 4}, with
// per-shard publication staying a real partition at every step.
func TestShardedIngestReplayEquivalence(t *testing.T) {
	cfg := equivalenceConfig()
	full := fullSystem(t, cfg)
	maxDay := maxRecordDay(full)
	if maxDay < 2 {
		t.Fatalf("log too shallow for a split: max day %d", maxDay)
	}
	splitDay := maxDay / 2

	_, _, ref := incrementalCase(t, cfg, splitDay, maxDay)

	for _, k := range []int{2, 4} {
		c := cfg
		c.Shards = k
		inc, err := BuildUpToDay(c, splitDay)
		if err != nil {
			t.Fatalf("BuildUpToDay shards=%d: %v", k, err)
		}
		for day := splitDay + 1; day <= maxDay; day++ {
			batch := delta.Batch{Day: day}
			for _, r := range full.Log.Records {
				if r.Day == day {
					batch.Clicks = append(batch.Clicks, delta.Click{Query: r.Query, DocID: r.DocID, Clicks: r.Clicks, Day: r.Day})
				}
			}
			ss, d, touched, err := inc.IngestSharded(batch, nil)
			if err != nil {
				t.Fatalf("IngestSharded shards=%d day %d: %v", k, day, err)
			}
			if len(touched) != k || ss.NumShards() != k {
				t.Fatalf("shards=%d day %d: touched=%v", k, day, touched)
			}
			if d.Empty() && slices.Contains(touched, true) {
				t.Fatalf("shards=%d day %d: empty delta touched shards %v", k, day, touched)
			}
			var got, want bytes.Buffer
			if err := ss.Union().WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if err := ref[day-splitDay-1].WriteJSON(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("shards=%d day %d: union is not byte-identical to the 1-shard replay's generation", k, day)
			}
			assertShardPartition(t, ss)
		}
	}
}
