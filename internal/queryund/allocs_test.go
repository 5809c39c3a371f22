package queryund

import (
	"fmt"
	"testing"

	"giant/internal/ontology"
)

// TestPartialAllocsIndependentOfWorld pins that a warm Understander.Partial
// does per-request work only: it allocates the same number of times over a
// world 100 times larger, because it reads the snapshot's cached phrase
// tokens and tests containment without building a needle per phrase.
func TestPartialAllocsIndependentOfWorld(t *testing.T) {
	allocs := func(filler int) (float64, *Partial) {
		o := sampleOntology()
		for i := 0; i < filler; i++ {
			o.AddNode(ontology.Concept, fmt.Sprintf("filler%d family station wagons of the long distance kind", i))
			o.AddNode(ontology.Entity, fmt.Sprintf("wagon model%d", i))
		}
		snap := o.Snapshot()
		u := New(snap)
		scope := ontology.UnionScope(snap)
		const q = "best economy cars like the honda civic"
		p := u.Partial(scope, q) // warm: tokenizes the phrases once
		return testing.AllocsPerRun(50, func() { u.Partial(scope, q) }), p
	}
	small, pSmall := allocs(2)
	large, pLarge := allocs(200)
	if pSmall.Concept == nil || pSmall.EntityContained == nil || pLarge.Concept == nil || pLarge.EntityContained == nil {
		t.Fatalf("partials miss the concept or entity: %+v %+v", pSmall, pLarge)
	}
	if small != large {
		t.Fatalf("warm Partial allocates %v times over the small world, %v over the large one", small, large)
	}
}
