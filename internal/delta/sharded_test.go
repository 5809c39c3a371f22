package delta

import (
	"testing"

	"giant/internal/core"
	"giant/internal/ontology"
)

// TestApplyShardedReusesUntouchedProjections pins the publication unit: a
// delta confined to one shard advances only that shard's projection.
func TestApplyShardedReusesUntouchedProjections(t *testing.T) {
	cur := baseSnapshot(t)
	const k = 4
	ss, err := ontology.ShardSnapshot(cur, k)
	if err != nil {
		t.Fatal(err)
	}
	// A pure touch of one existing concept (TTLs off so no retirement
	// rides along): only its home shard (and no other) may republish.
	mined := []core.Mined{{Phrase: "family sedans", Seed: "best family sedans", Day: 6}}
	pol := testPolicy()
	pol.EventTTL = 0
	d := Compute(cur, mined, []string{"best family sedans"}, 6, pol, Source{})
	next, touched, err := ApplySharded(ss, d)
	if err != nil {
		t.Fatal(err)
	}
	id, ok := ss.Union().Lookup(ontology.Concept, "family sedans")
	if !ok {
		t.Fatal("concept not routable")
	}
	home := ontology.HomeShard(ontology.Concept, ss.Union().At(id).Phrase, k)
	for s := 0; s < k; s++ {
		if s == home {
			if !touched[s] {
				t.Fatalf("home shard %d not touched", s)
			}
			continue
		}
		if touched[s] {
			t.Fatalf("shard %d touched by a foreign delta: %v", s, touched)
		}
		if next.Shard(s) != ss.Shard(s) {
			t.Fatalf("untouched shard %d was rebuilt", s)
		}
	}
	if next.Shard(home) == ss.Shard(home) {
		t.Fatal("touched home shard kept its stale projection")
	}
}

// TestTouchedShardsRetireMarksNeighbors: retiring a node must also touch
// the home shards of its neighbors (their projections lose the edge and
// possibly a ghost).
func TestTouchedShardsRetireMarksNeighbors(t *testing.T) {
	cur := baseSnapshot(t)
	const k = 8
	d := &Delta{Day: 30, Retire: []Ref{{Type: ontology.Event, Phrase: "automaker recalls sedans"}}}
	touched := TouchedShards(cur, d, k)
	want := map[int]bool{
		ontology.HomeShard(ontology.Event, "automaker recalls sedans", k): true,
		// The event involves honda civic; its home shard loses the edge.
		ontology.HomeShard(ontology.Entity, "honda civic", k): true,
	}
	for s, isTouched := range touched {
		if isTouched != want[s] {
			t.Fatalf("touched[%d] = %v, want %v (touched=%v)", s, isTouched, want[s], touched)
		}
	}
}
