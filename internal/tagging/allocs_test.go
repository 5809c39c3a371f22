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
