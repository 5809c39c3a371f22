package linking

import (
	"math/rand"
	"strings"
	"testing"
)

func TestAttentionCategoryEdges(t *testing.T) {
	clicks := map[string]map[int]int{
		"economy cars": {1: 8, 2: 2}, // P(1)=0.8, P(2)=0.2
		"weird phrase": {1: 1, 2: 1}, // both 0.5 > 0.3
	}
	edges := AttentionCategoryEdges(clicks, 0.3)
	got := map[string][]int{}
	for _, e := range edges {
		got[e.Phrase] = append(got[e.Phrase], e.Category)
	}
	if len(got["economy cars"]) != 1 || got["economy cars"][0] != 1 {
		t.Fatalf("economy cars edges = %v", got["economy cars"])
	}
	if len(got["weird phrase"]) != 2 {
		t.Fatalf("weird phrase edges = %v", got["weird phrase"])
	}
}

func TestSuffixIsAEdges(t *testing.T) {
	concepts := []string{"animated films", "famous animated films", "films"}
	edges := SuffixIsAEdges(concepts)
	want := map[PhrasePair]bool{
		{Parent: "animated films", Child: "famous animated films"}: true,
		{Parent: "films", Child: "famous animated films"}:          true,
		{Parent: "films", Child: "animated films"}:                 true,
	}
	if len(edges) != len(want) {
		t.Fatalf("edges = %+v", edges)
	}
	for _, e := range edges {
		if !want[e] {
			t.Fatalf("unexpected edge %+v", e)
		}
	}
}

func TestContainmentIsAEdges(t *testing.T) {
	phrases := []string{
		"have a concert",
		"jay chou have a concert",
	}
	edges := ContainmentIsAEdges(phrases)
	if len(edges) != 1 {
		t.Fatalf("edges = %+v", edges)
	}
	if edges[0].Parent != "have a concert" || edges[0].Child != "jay chou have a concert" {
		t.Fatalf("edge = %+v", edges[0])
	}
}

func TestConceptTopicInvolveEdges(t *testing.T) {
	edges := ConceptTopicInvolveEdges(
		[]string{"singer", "cellphone"},
		[]string{"singer hold concert"},
	)
	if len(edges) != 1 || edges[0].Child != "singer" {
		t.Fatalf("edges = %+v", edges)
	}
}

func TestCEFeatureExtraction(t *testing.T) {
	pos := CEExample{
		Concept:          "economy cars",
		Entity:           "honda civic",
		Context:          "the honda civic is a economy car that many families love",
		ConsecutiveQuery: true,
		CoClicks:         3,
	}
	f := pos.Features()
	if len(f) != ceFeatureDim {
		t.Fatalf("feature dim = %d", len(f))
	}
	if f[0] == 0 {
		t.Fatal("mention count feature should fire")
	}
	if f[2] != 1 {
		t.Fatal("'is a' pattern feature should fire")
	}
	if f[4] != 1 {
		t.Fatal("consecutive-query feature should fire")
	}
	neg := CEExample{Concept: "economy cars", Entity: "random name", Context: "totally unrelated text"}
	nf := neg.Features()
	if nf[0] != 0 || nf[2] != 0 {
		t.Fatalf("negative features fired: %v", nf)
	}
}

func TestCEClassifierLearnsSeparation(t *testing.T) {
	var positives []CEExample
	for i := 0; i < 30; i++ {
		positives = append(positives, CEExample{
			Concept:          "economy cars",
			Entity:           "honda civic",
			Context:          "the honda civic is a economy car worth buying among economy cars",
			ConsecutiveQuery: i%2 == 0,
			CoClicks:         2,
		})
	}
	dataset := BuildCEDataset(positives, []string{"random brand", "other thing"}, 5)
	if len(dataset) != 60 {
		t.Fatalf("dataset size = %d", len(dataset))
	}
	clf := TrainCEClassifier(dataset, 8, 0.3, 6)
	pos := &dataset[0]
	var negIdx int
	for i := range dataset {
		if !dataset[i].Label {
			negIdx = i
			break
		}
	}
	neg := &dataset[negIdx]
	if !clf.Predict(pos) {
		t.Fatalf("positive scored %v", clf.Score(pos))
	}
	if clf.Score(pos) <= clf.Score(neg) {
		t.Fatalf("positive (%v) should outscore negative (%v)", clf.Score(pos), clf.Score(neg))
	}
}

func TestGBDTFitsXORishData(t *testing.T) {
	// Single-feature threshold data: y = 1 iff x > 0.5.
	var xs [][]float64
	var ys []float64
	for i := 0; i < 40; i++ {
		v := float64(i) / 40
		xs = append(xs, []float64{v})
		if v > 0.5 {
			ys = append(ys, 1)
		} else {
			ys = append(ys, 0)
		}
	}
	g := TrainGBDT(xs, ys, 15, 0.5)
	if g.Raw([]float64{0.9}) <= g.Raw([]float64{0.1}) {
		t.Fatal("GBDT failed to learn threshold")
	}
}

func TestEntityEmbedderSeparates(t *testing.T) {
	e := NewEntityEmbedder(8)
	var pairs [][2]string
	// Two tight clusters: a0..a3 co-occur, b0..b3 co-occur.
	names := []string{"a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3"}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			pairs = append(pairs, [2]string{names[i], names[j]})
			pairs = append(pairs, [2]string{names[4+i], names[4+j]})
		}
	}
	// Repeat to give training signal.
	all := append([][2]string{}, pairs...)
	for i := 0; i < 4; i++ {
		all = append(all, pairs...)
	}
	e.Train(all)
	if e.Distance("a0", "a1") >= e.Distance("a0", "b0") {
		t.Fatalf("intra-cluster %v >= inter-cluster %v", e.Distance("a0", "a1"), e.Distance("a0", "b0"))
	}
	if !e.Correlated("a0", "a1") {
		t.Fatalf("co-occurring pair not correlated (d=%v)", e.Distance("a0", "a1"))
	}
	cors := e.CorrelatePairs([][2]string{{"a0", "a1"}, {"a0", "b3"}})
	for _, p := range cors {
		if p[0] == "a0" && p[1] == "b3" {
			t.Fatal("cross-cluster pair should not correlate")
		}
	}
	if i, ok := e.index["a0"]; !ok {
		t.Fatal("a0 has no embedding")
	} else if len(e.vecs[i]) != 8 {
		t.Fatalf("vector dim = %d", len(e.vecs[i]))
	}
	if d := e.Distance("a0", "missing"); !isInf(d) {
		t.Fatalf("unknown entity distance = %v", d)
	}
}

func isInf(f float64) bool { return f > 1e300 }

// filterTouching is the reference the restricted scans are pinned to: the
// full scan's output, keeping the pairs with an endpoint in fresh.
func filterTouching(full []PhrasePair, fresh map[string]bool) []PhrasePair {
	var out []PhrasePair
	for _, pr := range full {
		if fresh[pr.Parent] || fresh[pr.Child] {
			out = append(out, pr)
		}
	}
	return out
}

func samePairs(a, b []PhrasePair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTouchingScansEqualFilteredFullScans is the property the incremental
// path rests on: asking for the pairs that touch a fresh set returns the
// full scan's pairs that pass the filter, element for element and in the
// same order — over randomized inventories with duplicate phrases,
// stop-word-only phrases, nested suffix/containment chains, and fresh sets
// that are empty, everything, foreign, parents only or children only.
func TestTouchingScansEqualFilteredFullScans(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	words := []string{"phones", "flagship", "budget", "cars", "family", "recall", "launch", "announcement", "concert", "jay", "chou", "have"}
	stops := []string{"the", "a", "of", "in"}
	phrase := func() string {
		if rng.Intn(12) == 0 { // stop words only: an empty content-token set
			return stops[rng.Intn(len(stops))] + " " + stops[rng.Intn(len(stops))]
		}
		n := 1 + rng.Intn(4)
		toks := make([]string, 0, n+1)
		for i := 0; i < n; i++ {
			if rng.Intn(6) == 0 {
				toks = append(toks, stops[rng.Intn(len(stops))])
			}
			toks = append(toks, words[rng.Intn(len(words))])
		}
		return strings.Join(toks, " ")
	}
	nonEmpty := 0
	for round := 0; round < 300; round++ {
		inv := make([]string, 0, 40)
		for i, n := 0, rng.Intn(40); i < n; i++ {
			p := phrase()
			inv = append(inv, p)
			if rng.Intn(8) == 0 { // duplicate phrase in the inventory
				inv = append(inv, p)
			}
			if rng.Intn(3) == 0 { // a longer phrase ending in / containing p
				inv = append(inv, words[rng.Intn(len(words))]+" "+p)
			}
		}
		fullSuffix, fullContain := SuffixIsAEdges(inv), ContainmentIsAEdges(inv)

		fresh := map[string]bool{}
		switch round % 6 {
		case 0: // empty
		case 1: // everything
			for _, p := range inv {
				fresh[p] = true
			}
		case 2: // only phrases that appear as a parent
			for _, pr := range append(append([]PhrasePair(nil), fullSuffix...), fullContain...) {
				if rng.Intn(2) == 0 {
					fresh[pr.Parent] = true
				}
			}
		case 3: // only phrases that appear as a child
			for _, pr := range append(append([]PhrasePair(nil), fullSuffix...), fullContain...) {
				if rng.Intn(2) == 0 {
					fresh[pr.Child] = true
				}
			}
		case 4: // a random subset plus a phrase the inventory does not hold
			for _, p := range inv {
				if rng.Intn(5) == 0 {
					fresh[p] = true
				}
			}
			fresh["not in the inventory"] = true
		case 5: // a single phrase
			if len(inv) > 0 {
				fresh[inv[rng.Intn(len(inv))]] = true
			}
		}

		wantSuffix, wantContain := filterTouching(fullSuffix, fresh), filterTouching(fullContain, fresh)
		if got := SuffixIsAEdgesTouching(inv, fresh); !samePairs(got, wantSuffix) {
			t.Fatalf("round %d: suffix scan touching %v over %q\n got  %v\n want %v", round, fresh, inv, got, wantSuffix)
		}
		if got := ContainmentIsAEdgesTouching(inv, fresh); !samePairs(got, wantContain) {
			t.Fatalf("round %d: containment scan touching %v over %q\n got  %v\n want %v", round, fresh, inv, got, wantContain)
		}
		nonEmpty += len(wantSuffix) + len(wantContain)
	}
	if nonEmpty < 1000 {
		t.Fatalf("property is near-vacuous: only %d pairs compared", nonEmpty)
	}
}
