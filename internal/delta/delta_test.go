package delta

import (
	"bytes"
	"testing"

	"giant/internal/core"
	"giant/internal/ontology"
)

// baseSnapshot builds a small ontology: one category, two entities, one
// concept linked to both, and one old event.
func baseSnapshot(t *testing.T) *ontology.Snapshot {
	t.Helper()
	o := ontology.New()
	cat := o.AddNode(ontology.Category, "autos")
	con := o.AddNodeAt(ontology.Concept, "family sedans", 1)
	e1 := o.AddNode(ontology.Entity, "honda civic")
	e2 := o.AddNode(ontology.Entity, "toyota camry")
	evt := o.AddNodeAt(ontology.Event, "automaker recalls sedans", 1)
	o.SetEventAttrs(evt, "recalls", "", 1)
	for _, e := range []ontology.Edge{
		{Src: cat, Dst: con, Type: ontology.IsA, Weight: 0.8},
		{Src: con, Dst: e1, Type: ontology.IsA, Weight: 1},
		{Src: con, Dst: e2, Type: ontology.IsA, Weight: 1},
		{Src: evt, Dst: e1, Type: ontology.Involve, Weight: 1},
	} {
		if err := o.AddEdge(e.Src, e.Dst, e.Type, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	return o.Snapshot()
}

func testPolicy() Policy {
	p := DefaultPolicy()
	p.EventTTL = 3
	return p
}

func TestComputeAddsAndTouches(t *testing.T) {
	cur := baseSnapshot(t)
	mined := []core.Mined{
		{Phrase: "family sedans", Seed: "best family sedans", Day: 4, DocIDs: []int{0}},
		{Phrase: "hybrid sedans", Seed: "top hybrid sedans", Day: 4, DocIDs: []int{1}},
	}
	src := Source{
		DocCategory:    func(docID int) (int, bool) { return 0, true },
		CategoryPhrase: func(cat int) (string, bool) { return "autos", cat == 0 },
	}
	d := Compute(cur, mined, []string{"best family sedans", "top hybrid sedans"}, 4, testPolicy(), src)
	if len(d.Add) != 1 || d.Add[0].Phrase != "hybrid sedans" || d.Add[0].Type != ontology.Concept {
		t.Fatalf("Add = %+v, want the new concept only", d.Add)
	}
	if len(d.Touch) != 1 || d.Touch[0].Phrase != "family sedans" {
		t.Fatalf("Touch = %+v, want the re-observed concept", d.Touch)
	}
	// Category edge for the new concept: every clicked doc in category 0.
	foundCat := false
	for _, e := range d.Edges {
		if e.SrcType == ontology.Category && e.Dst == "hybrid sedans" {
			foundCat = true
			if e.Weight != 1 {
				t.Fatalf("category edge weight = %v, want 1", e.Weight)
			}
		}
	}
	if !foundCat {
		t.Fatalf("no category edge for the new concept in %+v", d.Edges)
	}
	// The re-observed concept's category probability moved from 0.8 to 1.
	if len(d.Reweight) != 1 || d.Reweight[0].Dst != "family sedans" || d.Reweight[0].Weight != 1 {
		t.Fatalf("Reweight = %+v, want the family-sedans category edge at 1", d.Reweight)
	}
	if len(d.Retire) != 0 {
		t.Fatalf("nothing should retire on day 4 with TTL 3 and the event seen day 1: %+v", d.Retire)
	}
}

func TestComputeRetiresExpiredEvents(t *testing.T) {
	cur := baseSnapshot(t)
	d := Compute(cur, nil, nil, 30, testPolicy(), Source{})
	if len(d.Retire) != 1 || d.Retire[0].Phrase != "automaker recalls sedans" || d.Retire[0].Type != ontology.Event {
		t.Fatalf("Retire = %+v, want the stale event only", d.Retire)
	}
	// Concepts have no TTL by default.
	for _, r := range d.Retire {
		if r.Type == ontology.Concept {
			t.Fatalf("concept retired despite ConceptTTL=0: %+v", r)
		}
	}
	// A re-observed event survives the same horizon.
	mined := []core.Mined{{Phrase: "automaker recalls sedans", IsEvent: true, Seed: "recall news", Day: 30}}
	d2 := Compute(cur, mined, []string{"recall news"}, 30, testPolicy(), Source{})
	if len(d2.Retire) != 0 {
		t.Fatalf("touched event must not retire: %+v", d2.Retire)
	}
	if len(d2.Touch) != 1 {
		t.Fatalf("Touch = %+v", d2.Touch)
	}
}

func TestApplyRetireRenumbersAndDropsEdges(t *testing.T) {
	cur := baseSnapshot(t)
	d := &Delta{Day: 30, Retire: []Ref{{Type: ontology.Event, Phrase: "automaker recalls sedans"}}}
	next, err := Apply(cur, d)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if next.NodeCount() != cur.NodeCount()-1 {
		t.Fatalf("node count %d, want %d", next.NodeCount(), cur.NodeCount()-1)
	}
	if _, ok := next.Find(ontology.Event, "automaker recalls sedans"); ok {
		t.Fatal("retired event still resolvable")
	}
	// The involve edge into honda civic went with it; concept edges stay.
	if got := next.EdgeCount(ontology.Involve); got != 0 {
		t.Fatalf("involve edges after retirement = %d, want 0", got)
	}
	if got := next.EdgeCount(ontology.IsA); got != 3 {
		t.Fatalf("isA edges after retirement = %d, want 3", got)
	}
	// Renumbered IDs stay dense and self-consistent.
	for _, n := range next.Nodes() {
		if got, ok := next.Get(n.ID); !ok || got.Phrase != n.Phrase {
			t.Fatalf("node %q broke after renumbering", n.Phrase)
		}
	}
}

func TestApplyAddTouchReweight(t *testing.T) {
	cur := baseSnapshot(t)
	d := &Delta{
		Day: 9,
		Add: []NodeAdd{{Type: ontology.Concept, Phrase: "hybrid sedans", Day: 9, Aliases: []string{"hybrids"}}},
		Touch: []NodeAdd{{Type: ontology.Event, Phrase: "automaker recalls sedans",
			Trigger: "recalled", Location: "detroit", Aliases: []string{"sedan recall"}}},
		Edges: []EdgeAdd{
			{SrcType: ontology.Concept, Src: "hybrid sedans", DstType: ontology.Entity, Dst: "toyota camry", Type: ontology.IsA, Weight: 1},
			{SrcType: ontology.Concept, Src: "hybrid sedans", DstType: ontology.Entity, Dst: "no such entity", Type: ontology.IsA, Weight: 1},
		},
		Reweight: []EdgeAdd{{SrcType: ontology.Category, Src: "autos", DstType: ontology.Concept, Dst: "family sedans", Type: ontology.IsA, Weight: 0.95}},
	}
	next, err := Apply(cur, d)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	n, ok := next.Find(ontology.Concept, "hybrid sedans")
	if !ok || n.FirstSeenDay != 9 || n.LastSeenDay != 9 {
		t.Fatalf("added node = %+v", n)
	}
	if id, ok := next.LookupAlias(ontology.Concept, "hybrids"); !ok || id != n.ID {
		t.Fatal("alias of the added node not indexed")
	}
	evt, _ := next.Find(ontology.Event, "automaker recalls sedans")
	if evt.Trigger != "recalled" || evt.Location != "detroit" || evt.LastSeenDay != 9 {
		t.Fatalf("touched event did not converge: %+v", evt)
	}
	if id, ok := next.LookupAlias(ontology.Event, "sedan recall"); !ok || id != evt.ID {
		t.Fatal("touched event's merged alias not indexed")
	}
	// New edge landed; the edge with a dangling endpoint was skipped.
	if got := len(next.Children(n.ID, ontology.IsA)); got != 1 {
		t.Fatalf("new concept has %d isA children, want 1", got)
	}
	// Reweight updated in place.
	cat, _ := next.Find(ontology.Category, "autos")
	found := false
	next.EachOut(cat.ID, func(e *ontology.Edge, dst *ontology.Node) bool {
		if dst.Phrase == "family sedans" {
			found = true
			if e.Weight != 0.95 {
				t.Fatalf("reweighted edge = %v, want 0.95", e.Weight)
			}
		}
		return true
	})
	if !found {
		t.Fatal("reweighted edge vanished")
	}
}

// TestApplyDeterministic re-applies the same delta to the same snapshot
// and expects byte-identical serialization — the contract that makes
// log replay sound.
func TestApplyDeterministic(t *testing.T) {
	cur := baseSnapshot(t)
	d := &Delta{
		Day:    9,
		Add:    []NodeAdd{{Type: ontology.Concept, Phrase: "hybrid sedans", Day: 9}},
		Edges:  []EdgeAdd{{SrcType: ontology.Concept, Src: "hybrid sedans", DstType: ontology.Entity, Dst: "toyota camry", Type: ontology.IsA, Weight: 1}},
		Retire: []Ref{{Type: ontology.Event, Phrase: "automaker recalls sedans"}},
	}
	a, err := Apply(cur, d)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Apply(cur, d)
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	if err := a.WriteJSON(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("same delta on same snapshot produced different generations")
	}
}

func TestDeltaSummaryAndEmpty(t *testing.T) {
	d := &Delta{}
	if !d.Empty() {
		t.Fatal("zero delta should be empty")
	}
	d.Add = append(d.Add, NodeAdd{Type: ontology.Concept, Phrase: "x"})
	if d.Empty() {
		t.Fatal("delta with adds is not empty")
	}
	if d.Summary() == "" {
		t.Fatal("summary must render")
	}
}
