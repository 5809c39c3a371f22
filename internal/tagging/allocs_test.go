package tagging

import (
	"fmt"
	"testing"

	"giant/internal/nlp"
	"giant/internal/ontology"
)

// paddedOntology is sampleOntology plus filler events, topics, concepts and
// entities that share no token with the test documents.
func paddedOntology(filler int) *ontology.Snapshot {
	o := sampleOntology()
	for i := 0; i < filler; i++ {
		o.AddNode(ontology.Event, fmt.Sprintf("filler%d vendor ships widget%d", i, i))
		o.AddNode(ontology.Topic, fmt.Sprintf("widget%d shipping season", i))
		o.AddNode(ontology.Concept, fmt.Sprintf("filler%d widgets", i))
		o.AddNode(ontology.Entity, fmt.Sprintf("widget%d", i))
	}
	return o.Snapshot()
}

// TestEventPartialAllocsIndependentOfWorld pins that a warm
// EventTagger.Partial does per-request work only: it allocates the same
// number of times over a world 100 times larger, because it reads the
// snapshot's cached phrase tokens, reuses one pair of LCS rows and encodes
// the document for the matcher once.
func TestEventPartialAllocsIndependentOfWorld(t *testing.T) {
	d := NewDuet(5)
	p := nlp.Tokenize("hero studios release sequel")
	d.Train([]DuetExample{
		{Phrase: p, Doc: nlp.Tokenize("hero studios release sequel this summer"), Label: true},
		{Phrase: p, Doc: nlp.Tokenize("gardening tips for spring"), Label: false},
	}, 40, 0.05, 6)
	doc := &Document{Title: "hero studios release sequel this summer", Content: "the sequel arrives."}
	allocs := func(filler int) (float64, int) {
		snap := paddedOntology(filler)
		tagger := NewEventTagger(snap, d)
		scope := ontology.UnionScope(snap)
		got := len(tagger.Partial(scope, doc)) // warm: tokenizes the phrases once
		return testing.AllocsPerRun(50, func() { tagger.Partial(scope, doc) }), got
	}
	small, nSmall := allocs(2)
	large, nLarge := allocs(200)
	if nSmall == 0 || nSmall != nLarge {
		t.Fatalf("candidates = %d and %d, want the same positive count", nSmall, nLarge)
	}
	if small != large {
		t.Fatalf("warm Partial allocates %v times over the small world, %v over the large one", small, large)
	}
}

// stopWordPaddedOntology is sampleOntology plus filler events and topics
// that share only the stop word "the" with the test documents, at under
// half of their token positions.
func stopWordPaddedOntology(filler int) *ontology.Snapshot {
	o := sampleOntology()
	for i := 0; i < filler; i++ {
		o.AddNode(ontology.Event, fmt.Sprintf("the filler%d vendor ships widget%d", i, i))
		o.AddNode(ontology.Topic, fmt.Sprintf("widget%d shipping of the season", i))
	}
	return o.Snapshot()
}

// TestHomePhrasesWorkIndependentOfWorld pins the work of a warm
// EventTagger.Partial, not just its allocations: the phrases HomePhrases
// hands it for the test document are as many over a world 100 times
// larger, whether the filler shares no token with the document or only a
// stop word, which the half-the-positions bound alone drops.
func TestHomePhrasesWorkIndependentOfWorld(t *testing.T) {
	doc := &Document{Title: "hero studios release sequel this summer", Content: "the sequel arrives."}
	docToks := docString(doc)
	visited := func(snap *ontology.Snapshot, frac float64) int {
		n := 0
		for _, typ := range []ontology.NodeType{ontology.Event, ontology.Topic} {
			for range ontology.UnionScope(snap).HomePhrases(typ, docToks, frac) {
				n++
			}
		}
		return n
	}
	for _, v := range []struct {
		name string
		pad  func(int) *ontology.Snapshot
	}{{"disjoint", paddedOntology}, {"stop word", stopWordPaddedOntology}} {
		small, large := v.pad(2), v.pad(200)
		if n, m := visited(small, lcsThreshold), visited(large, lcsThreshold); n == 0 || n != m {
			t.Errorf("%s filler: HomePhrases yields %d phrases over the small world, %d over the large one", v.name, n, m)
		}
		allocs := func(snap *ontology.Snapshot) float64 {
			tagger := NewEventTagger(snap, nil)
			scope := ontology.UnionScope(snap)
			tagger.Partial(scope, doc) // warm: builds the phrase postings once
			return testing.AllocsPerRun(50, func() { tagger.Partial(scope, doc) })
		}
		if a, b := allocs(small), allocs(large); a != b {
			t.Errorf("%s filler: warm Partial allocates %v times over the small world, %v over the large one", v.name, a, b)
		}
	}
	if n, m := visited(stopWordPaddedOntology(2), 0), visited(stopWordPaddedOntology(200), 0); n == m {
		t.Errorf("stop-word filler: with no bound HomePhrases yields %d phrases on both worlds, want the large world's filler too", n)
	}
}
