package ontology

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// benchCorpus builds a deterministic synthetic ontology big enough that
// load time is dominated by decode work, with the shape the real pipeline
// produces: mostly entities and events under a thin concept/category
// layer, aliases on a minority of nodes, and a few edges per node.
func benchCorpus(n int) *Snapshot {
	rng := rand.New(rand.NewSource(1))
	nodes := make([]Node, n)
	for i := range nodes {
		var t NodeType
		switch {
		case i < n/100+1:
			t = Category
		case i < n/10:
			t = Concept
		case i < n/2:
			t = Entity
		case i < n*9/10:
			t = Event
		default:
			t = Topic
		}
		nodes[i] = Node{
			ID:           NodeID(i),
			Type:         t,
			Phrase:       fmt.Sprintf("%s phrase number %d of the bench corpus", t, i),
			FirstSeenDay: rng.Intn(60),
		}
		nodes[i].LastSeenDay = nodes[i].FirstSeenDay + rng.Intn(30)
		if t == Event {
			nodes[i].Trigger = "announces"
			nodes[i].Location = "city " + fmt.Sprint(i%50)
			nodes[i].Day = nodes[i].FirstSeenDay
		}
		if i%5 == 0 {
			nodes[i].Aliases = []string{
				fmt.Sprintf("alias one of node %d", i),
				fmt.Sprintf("alias two of node %d", i),
			}
		}
	}
	edges := make([]Edge, 0, 4*n)
	for i := 1; i < n; i++ {
		deg := 1 + rng.Intn(6)
		for d := 0; d < deg && len(edges) < cap(edges); d++ {
			src := rng.Intn(i)
			edges = append(edges, Edge{
				Src: NodeID(src), Dst: NodeID(i),
				Type:   EdgeType(rng.Intn(int(NumEdgeTypes))),
				Weight: float64(rng.Intn(1000)) / 1000,
			})
		}
	}
	snap, err := BuildSnapshot(nodes, edges)
	if err != nil {
		panic(err)
	}
	return snap
}

// BenchmarkSnapshotLoad measures cold boot from a GIANTBIN file — the
// number a restarting giantd pays once per artifact (see
// bench/BENCH_baseline.json for the gated figure).
func BenchmarkSnapshotLoad(b *testing.B) {
	n := 30000
	if testing.Short() {
		n = 4000
	}
	snap := benchCorpus(n)
	binPath := filepath.Join(b.TempDir(), "ao.bin")
	if err := snap.SaveBinaryFile(binPath); err != nil {
		b.Fatal(err)
	}
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := LoadSnapshotFile(binPath)
			if err != nil {
				b.Fatal(err)
			}
			if s.Len() != n {
				b.Fatalf("loaded %d nodes, want %d", s.Len(), n)
			}
		}
	})
}

// BenchmarkShardLoad is the same measurement for a per-shard boot
// artifact — the giantrouter fleet's restart cost. Each load is checked
// against the in-memory projection.
func BenchmarkShardLoad(b *testing.B) {
	n := 30000
	if testing.Short() {
		n = 4000
	}
	ss, err := ShardSnapshot(benchCorpus(n), 4)
	if err != nil {
		b.Fatal(err)
	}
	p := ss.Projection(0)
	binPath := filepath.Join(b.TempDir(), "shard.bin")
	if err := p.SaveBinaryFile(binPath); err != nil {
		b.Fatal(err)
	}
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp, err := LoadShardInput(binPath, p.Shard, p.NumShards)
			if err != nil {
				b.Fatal(err)
			}
			if sp.Shard != p.Shard || sp.NumShards != p.NumShards || sp.HomeCount != p.HomeCount || sp.Snap.Len() != p.Snap.Len() {
				b.Fatalf("loaded shard %d/%d (%d home, %d nodes), want %d/%d (%d home, %d nodes)",
					sp.Shard, sp.NumShards, sp.HomeCount, sp.Snap.Len(), p.Shard, p.NumShards, p.HomeCount, p.Snap.Len())
			}
		}
	})
}
