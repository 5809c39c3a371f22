package queryund

import (
	"strings"
	"testing"

	"giant/internal/ontology"
)

func sampleOntology() *ontology.Ontology {
	o := ontology.New()
	con := o.AddNode(ontology.Concept, "economy cars")
	e1 := o.AddNode(ontology.Entity, "honda civic")
	e2 := o.AddNode(ontology.Entity, "toyota corolla")
	e3 := o.AddNode(ontology.Entity, "ford focus")
	_ = o.AddEdge(con, e1, ontology.IsA, 1)
	_ = o.AddEdge(con, e2, ontology.IsA, 1)
	_ = o.AddEdge(e1, e2, ontology.Correlate, 1)
	_ = o.AddEdge(e3, e1, ontology.Correlate, 1)
	return o
}

func TestConceptQueryRewrites(t *testing.T) {
	u := New(sampleOntology().Snapshot())
	a := u.Analyze("best economy cars 2019")
	if a.Concept != "economy cars" {
		t.Fatalf("concept = %q", a.Concept)
	}
	if len(a.Rewrites) != 2 {
		t.Fatalf("rewrites = %v", a.Rewrites)
	}
	for _, r := range a.Rewrites {
		if !strings.HasPrefix(r, "best economy cars 2019 ") {
			t.Fatalf("rewrite format: %q", r)
		}
	}
}

func TestEntityQueryRecommendations(t *testing.T) {
	u := New(sampleOntology().Snapshot())
	a := u.Analyze("honda civic")
	if a.Entity != "honda civic" {
		t.Fatalf("entity = %q", a.Entity)
	}
	// Correlations in both directions must surface.
	want := map[string]bool{"toyota corolla": true, "ford focus": true}
	if len(a.Recommendations) != 2 {
		t.Fatalf("recommendations = %v", a.Recommendations)
	}
	for _, r := range a.Recommendations {
		if !want[r] {
			t.Fatalf("unexpected recommendation %q", r)
		}
	}
}

func TestNoMatch(t *testing.T) {
	u := New(sampleOntology().Snapshot())
	a := u.Analyze("completely unrelated query")
	if a.Concept != "" || a.Entity != "" || len(a.Rewrites) != 0 {
		t.Fatalf("spurious analysis: %+v", a)
	}
}

func TestLongestConceptWins(t *testing.T) {
	o := sampleOntology()
	o.AddNode(ontology.Concept, "cars")
	u := New(o.Snapshot())
	if got := u.Conceptualize("best economy cars"); got != "economy cars" {
		t.Fatalf("Conceptualize = %q", got)
	}
}

func TestMaxExpansions(t *testing.T) {
	o := ontology.New()
	con := o.AddNode(ontology.Concept, "things")
	for i := 0; i < 10; i++ {
		e := o.AddNode(ontology.Entity, "entity "+string(rune('a'+i)))
		_ = o.AddEdge(con, e, ontology.IsA, 1)
	}
	u := New(o.Snapshot())
	u.MaxExpansions = 3
	a := u.Analyze("things")
	if len(a.Rewrites) != 3 {
		t.Fatalf("rewrites = %d, want 3", len(a.Rewrites))
	}
}
