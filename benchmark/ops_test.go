package main

import (
	"fmt"
	"reflect"
	"testing"

	"giant/internal/ontology"
	"giant/internal/synth"
)

// testVocab is a hand-made corpus: big enough that first-time draws never
// run out, small enough to build in microseconds.
func testVocab(t *testing.T) *vocab {
	t.Helper()
	var nodes []ontology.Node
	add := func(typ ontology.NodeType, phrase string) {
		nodes = append(nodes, ontology.Node{ID: ontology.NodeID(len(nodes)), Type: typ, Phrase: phrase})
	}
	for i := 0; i < 40; i++ {
		add(ontology.Concept, fmt.Sprintf("foldable phones model%d", i))
		add(ontology.Entity, fmt.Sprintf("brand%d handset", i))
		add(ontology.Event, fmt.Sprintf("brand%d launch event city%d", i, i%7))
	}
	snap, err := ontology.BuildSnapshot(nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	world := &synth.World{Entities: []synth.Entity{{ID: 0, Name: "brand0 handset"}, {ID: 1, Name: "brand1 handset"}}}
	log := &synth.Log{}
	for i := 0; i < 30; i++ {
		log.Docs = append(log.Docs, synth.Doc{ID: i, Title: fmt.Sprintf("title %d", i), Content: "body", Entities: []int{i % 2}})
		log.Records = append(log.Records, synth.Record{Query: fmt.Sprintf("best model%d", i), DocID: i, Clicks: 2, Day: i % 10})
	}
	return newVocab(snap, world, log)
}

func TestOpListsAreDeterministicPerSeed(t *testing.T) {
	v := testVocab(t)
	for _, sharded := range []bool{false, true} {
		a := servingRounds(v, 7, sharded, 2)
		b := servingRounds(v, 7, sharded, 2)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("sharded=%v: same seed gave different op lists", sharded)
		}
		c := servingRounds(v, 8, sharded, 2)
		if reflect.DeepEqual(a, c) {
			t.Fatalf("sharded=%v: different seeds gave the same op lists", sharded)
		}
	}
	if a, b := routedRounds(v, 3, 2), routedRounds(v, 3, 2); !reflect.DeepEqual(a, b) {
		t.Fatal("routed: same seed gave different op lists")
	}
}

func TestColdReadsNeverRepeatAndHoldTheMix(t *testing.T) {
	v := testVocab(t)
	lists := servingRounds(v, 1, true, 5)
	seen := map[string]bool{}
	for r, ops := range lists {
		if len(ops) != coldOpsPerRound {
			t.Fatalf("round %d has %d ops, want %d", r, len(ops), coldOpsPerRound)
		}
		var count [numKinds]int
		for _, o := range ops {
			count[o.kind]++
			if o.kind == kindTag {
				continue // POST bodies are never cached and may repeat
			}
			if seen[o.uri] {
				t.Fatalf("round %d repeats %s", r, o.uri)
			}
			seen[o.uri] = true
		}
		for _, k := range readKinds {
			if want := coldOpsPerRound * readMix[k] / 100; count[k] != want {
				t.Errorf("round %d: %d %s ops, want exactly %d", r, count[k], k, want)
			}
		}
	}
}

func TestMixesSumToOneHundred(t *testing.T) {
	for name, m := range map[string]mix{"readMix": readMix, "hotMix": hotMix} {
		sum := 0
		for _, share := range m {
			sum += share
		}
		if sum != 100 {
			t.Errorf("%s sums to %d", name, sum)
		}
	}
	if hotMix[kindTag] != 0 {
		t.Error("hotMix holds /v1/tag, which giantd never caches")
	}
}

func TestCachedInterleavingIsFourHotToOneMiss(t *testing.T) {
	v := testVocab(t)
	lists := servingRounds(v, 1, false, 5)
	hotURIs := map[string]bool{}
	missURIs := map[string]bool{}
	for r, ops := range lists {
		if len(ops) != cachedOpsPerRound {
			t.Fatalf("round %d has %d ops", r, len(ops))
		}
		for i, o := range ops {
			if wantHot := i%5 != 4; o.hot != wantHot {
				t.Fatalf("round %d op %d: hot=%v, want %v", r, i, o.hot, wantHot)
			}
			if o.hot {
				hotURIs[o.uri] = true
				if o.kind == kindTag {
					t.Fatal("hot set holds an uncacheable op")
				}
			} else if o.kind != kindTag {
				if missURIs[o.uri] || hotURIs[o.uri] {
					t.Fatalf("round %d op %d: miss %s was requested before", r, i, o.uri)
				}
				missURIs[o.uri] = true
			}
		}
	}
	if len(hotURIs) != hotSetSize {
		t.Fatalf("hot set has %d distinct URIs, want %d", len(hotURIs), hotSetSize)
	}
}

func TestRoutedInterleavingIsFourReadsToOneWrite(t *testing.T) {
	v := testVocab(t)
	for r, ops := range routedRounds(v, 1, 3) {
		if len(ops) != routedOpsPerRnd {
			t.Fatalf("round %d has %d ops", r, len(ops))
		}
		for i, o := range ops {
			if isWrite := o.kind == kindIngest; isWrite != (i%5 == 4) {
				t.Fatalf("round %d op %d is %s", r, i, o.kind)
			}
		}
	}
}

func TestSampleBlocksKeepsWholeBlocksAndPhasesAreDisjoint(t *testing.T) {
	a, b := sampleBlocks(1000, 5, 10, 0), sampleBlocks(1000, 5, 10, 5)
	if len(a) != 100 || len(b) != 100 {
		t.Fatalf("samples have %d and %d ops, want 100 each", len(a), len(b))
	}
	in := map[int]bool{}
	for i, idx := range a {
		in[idx] = true
		if i%5 != 0 && idx != a[i-1]+1 {
			t.Fatalf("block broken at %d", idx)
		}
	}
	writes := 0
	for _, idx := range b {
		if in[idx] {
			t.Fatalf("op %d is in both samples", idx)
		}
		if idx%5 == 4 {
			writes++
		}
	}
	if writes != 20 {
		t.Fatalf("sample of a 4:1 list holds %d of 100 minor ops, want 20", writes)
	}
}

func TestReplayRoundsShuffleInsideBatchesOnly(t *testing.T) {
	var recs []synth.Record
	for day := offlineSplitDay + 1; day <= offlineLastDay; day++ {
		for i := 0; i < 250; i++ {
			recs = append(recs, synth.Record{Query: fmt.Sprintf("q%d-%d", day, i), DocID: i, Clicks: 1, Day: day})
		}
	}
	a, b, c := replayRounds(recs, 1, 5), replayRounds(recs, 1, 5), replayRounds(recs, 2, 5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different batches")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same click order")
	}
	if len(a) != 6 {
		t.Fatalf("%d rounds, want warm-up + 5", len(a))
	}
	for r := range a {
		if len(a[r]) != offlineSlicesPerDay {
			t.Fatalf("round %d has %d batches", r, len(a[r]))
		}
		for i := range a[r] {
			if a[r][i].Day != offlineSplitDay+1+r {
				t.Fatalf("round %d batch %d is day %d", r, i, a[r][i].Day)
			}
			// Same clicks in the same batch, whatever the seed.
			set := map[string]bool{}
			for _, cl := range a[r][i].Clicks {
				set[cl.Query] = true
			}
			for _, cl := range c[r][i].Clicks {
				if !set[cl.Query] {
					t.Fatalf("seed moved click %s to another batch", cl.Query)
				}
			}
		}
	}
}
