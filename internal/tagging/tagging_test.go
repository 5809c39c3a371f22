package tagging

import (
	"testing"

	"giant/internal/nlp"
	"giant/internal/ontology"
)

func sampleOntology() *ontology.Ontology {
	o := ontology.New()
	con := o.AddNode(ontology.Concept, "marvel superhero movies")
	e1 := o.AddNode(ontology.Entity, "iron man")
	e2 := o.AddNode(ontology.Entity, "captain america")
	_ = o.AddEdge(con, e1, ontology.IsA, 1)
	_ = o.AddEdge(con, e2, ontology.IsA, 1)
	o.AddNode(ontology.Event, "hero studios release sequel")
	o.AddNode(ontology.Topic, "studios release sequel")
	return o
}

func TestTagConceptsViaParents(t *testing.T) {
	o := sampleOntology()
	tagger := NewConceptTagger(o.Snapshot(), map[string][]string{
		"marvel superhero movies": {"best marvel superhero movies ranked"},
	})
	doc := &Document{
		Title:    "iron man and captain america reviewed : marvel superhero movies",
		Content:  "iron man is a superhero movie . captain america follows .",
		Entities: []string{"iron man", "captain america"},
	}
	tags := tagger.TagConcepts(doc)
	if len(tags) == 0 || tags[0].Phrase != "marvel superhero movies" {
		t.Fatalf("tags = %+v", tags)
	}
}

func TestTagConceptsInferenceFallback(t *testing.T) {
	o := ontology.New()
	o.AddNode(ontology.Concept, "superhero movies")
	// Entity exists in the doc but has no ontology parents.
	o.AddNode(ontology.Entity, "iron man")
	tagger := NewConceptTagger(o.Snapshot(), nil)
	tagger.InferThreshold = 0.01
	doc := &Document{
		Title:    "iron man review",
		Content:  "iron man is one of the great superhero movies of the decade.",
		Entities: []string{"iron man"},
	}
	tags := tagger.TagConcepts(doc)
	found := false
	for _, tg := range tags {
		if tg.Phrase == "superhero movies" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Eq.12 inference missed the concept: %+v", tags)
	}
}

func TestLCSLen(t *testing.T) {
	a := nlp.Tokenize("jay chou hold concert in taipei")
	b := nlp.Tokenize("breaking : jay chou hold big concert tonight")
	if got := LCSLen(a, b); got != 4 { // jay chou hold concert
		t.Fatalf("LCSLen = %d", got)
	}
	if LCSLen(nil, b) != 0 || LCSLen(a, nil) != 0 {
		t.Fatal("empty LCS")
	}
}

func TestDuetLearnsMatching(t *testing.T) {
	d := NewDuet(3)
	var examples []DuetExample
	phrases := [][]string{
		nlp.Tokenize("acme release earnings"),
		nlp.Tokenize("globex cancel tour"),
		nlp.Tokenize("initech launch phone"),
	}
	docs := [][]string{
		nlp.Tokenize("breaking acme release earnings surprise analysts"),
		nlp.Tokenize("globex cancel tour after outcry"),
		nlp.Tokenize("initech launch phone with fanfare"),
	}
	for i := range phrases {
		for j := range docs {
			examples = append(examples, DuetExample{Phrase: phrases[i], Doc: docs[j], Label: i == j})
		}
	}
	d.Train(examples, 30, 0.05, 4)
	score := func(p, doc []string) float64 { return d.score(p, d.encodeDoc(doc)) }
	if !d.Match(phrases[0], docs[0]) {
		t.Fatalf("matching pair rejected: score %v", score(phrases[0], docs[0]))
	}
	if score(phrases[0], docs[1]) >= score(phrases[0], docs[0]) {
		t.Fatal("mismatched pair outscored match")
	}
}

func TestTagEventsRequiresBothSignals(t *testing.T) {
	o := sampleOntology()
	d := NewDuet(5)
	// Train duet to accept overlapping pairs.
	p := nlp.Tokenize("hero studios release sequel")
	pos := nlp.Tokenize("hero studios release sequel this summer")
	neg := nlp.Tokenize("totally different text about gardening tips")
	d.Train([]DuetExample{
		{Phrase: p, Doc: pos, Label: true},
		{Phrase: p, Doc: neg, Label: false},
	}, 40, 0.05, 6)
	tagger := NewEventTagger(o.Snapshot(), d)
	doc := &Document{Title: "hero studios release sequel this summer", Content: "the sequel arrives."}
	tags := tagger.TagEvents(doc)
	if len(tags) == 0 {
		t.Fatal("matching event not tagged")
	}
	// A document with no overlap never gets the tag.
	doc2 := &Document{Title: "gardening tips for spring", Content: "plant early."}
	if tags := tagger.TagEvents(doc2); len(tags) != 0 {
		t.Fatalf("spurious tags: %+v", tags)
	}
}
