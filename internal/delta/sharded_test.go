package delta

import (
	"reflect"
	"testing"

	"giant/internal/core"
	"giant/internal/ontology"
)

// richMined is a batch mixing touches, new concepts, new events and an
// alias-resolved touch, spread over several seeds.
func richMined() []core.Mined {
	return []core.Mined{
		{Phrase: "family sedans", Seed: "best family sedans", Day: 4, DocIDs: []int{0}},
		{Phrase: "hybrid sedans", Seed: "top hybrid sedans", Day: 4, DocIDs: []int{1}},
		{Phrase: "compact sedans", Seed: "compact sedans review", Day: 4, DocIDs: []int{0, 1}},
		{Phrase: "automaker recalls sedans", IsEvent: true, Seed: "recall news", Day: 4, Entities: []string{"honda"}},
		{Phrase: "automaker ships sedans", IsEvent: true, Seed: "shipping news", Day: 4, Trigger: "ships"},
	}
}

func richSource() Source {
	return Source{
		DocCategory:    func(docID int) (int, bool) { return 0, true },
		CategoryPhrase: func(cat int) (string, bool) { return "autos", cat == 0 },
		DocEntities: func(docID int) []string {
			if docID == 0 {
				return []string{"honda civic"}
			}
			return []string{"toyota camry"}
		},
		DocContent:    func(docID int) string { return "sedans on the road" },
		ResolveEntity: func(tok string) (string, bool) { return "honda civic", tok == "honda" },
	}
}

var richSeeds = []string{"best family sedans", "top hybrid sedans", "compact sedans review", "recall news", "shipping news"}

// TestComputeParallelDeterminism pins the satellite contract: the diff
// passes may fan out over any worker count, but the emitted delta is
// byte-identical to the serial path.
func TestComputeParallelDeterminism(t *testing.T) {
	cur := baseSnapshot(t)
	for _, workers := range []int{2, 4, 8} {
		serial, parallel := richSource(), richSource()
		serial.Parallelism = 1
		parallel.Parallelism = workers
		d1 := Compute(cur, richMined(), richSeeds, 4, testPolicy(), serial)
		dN := Compute(cur, richMined(), richSeeds, 4, testPolicy(), parallel)
		if !reflect.DeepEqual(d1, dN) {
			t.Fatalf("delta differs between Parallelism=1 and %d:\n serial:  %+v\n parallel: %+v", workers, d1, dN)
		}
	}
}

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
	home, ok := ss.ShardOf(ontology.Concept, "family sedans")
	if !ok {
		t.Fatal("concept not routable")
	}
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
