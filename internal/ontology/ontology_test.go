package ontology

import (
	"bytes"
	"sync"
	"testing"
)

func TestAddNodeDeduplicates(t *testing.T) {
	o := New()
	a := o.AddNode(Concept, "economy cars")
	b := o.AddNode(Concept, "economy cars")
	if a != b {
		t.Fatal("duplicate phrase created a second node")
	}
	c := o.AddNode(Entity, "economy cars") // same phrase, different type
	if c == a {
		t.Fatal("node types must namespace phrases")
	}
	if n := o.Snapshot().NodeCount(); n != 2 {
		t.Fatalf("node count = %d", n)
	}
}

func TestEdgesAndTraversal(t *testing.T) {
	o := New()
	cat := o.AddNode(Category, "auto")
	con := o.AddNode(Concept, "economy cars")
	ent := o.AddNode(Entity, "honda civic")
	if err := o.AddEdge(cat, con, IsA, 1); err != nil {
		t.Fatal(err)
	}
	if err := o.AddEdge(con, ent, IsA, 1); err != nil {
		t.Fatal(err)
	}
	s := o.Snapshot()
	// Children/parents.
	if ch := s.Children(con, IsA); len(ch) != 1 || ch[0].Phrase != "honda civic" {
		t.Fatalf("children = %+v", ch)
	}
	if ps := s.Parents(ent, IsA); len(ps) != 1 || ps[0].Phrase != "economy cars" {
		t.Fatalf("parents = %+v", ps)
	}
	anc := s.Ancestors(ent)
	if len(anc) != 2 {
		t.Fatalf("ancestors = %d, want 2", len(anc))
	}
}

func TestEdgeDedupAndSelfEdge(t *testing.T) {
	o := New()
	a := o.AddNode(Concept, "a")
	b := o.AddNode(Concept, "b")
	if err := o.AddEdge(a, b, IsA, 1); err != nil {
		t.Fatal(err)
	}
	if err := o.AddEdge(a, b, IsA, 0.5); err != nil {
		t.Fatal(err) // dedupe silently
	}
	if n := o.Snapshot().EdgeCount(IsA); n != 1 {
		t.Fatalf("edge count = %d", n)
	}
	if err := o.AddEdge(a, a, Correlate, 1); err == nil {
		t.Fatal("self edge should error")
	}
	if err := o.AddEdge(a, NodeID(99), IsA, 1); err == nil {
		t.Fatal("out-of-range edge should error")
	}
}

func TestAliases(t *testing.T) {
	o := New()
	id := o.AddNode(Concept, "fuel-efficient cars")
	o.AddAlias(id, "fuel efficient car")
	o.AddAlias(id, "fuel efficient car")  // repeat
	o.AddAlias(id, "fuel-efficient cars") // same as phrase
	n, _ := o.Snapshot().Get(id)
	if len(n.Aliases) != 1 {
		t.Fatalf("aliases = %v", n.Aliases)
	}
}

func TestStatsAndGrowth(t *testing.T) {
	o := New()
	o.AddNodeAt(Concept, "a", 1)
	o.AddNodeAt(Concept, "b", 2)
	o.AddNodeAt(Event, "c happened", 2)
	s := o.Snapshot()
	st := s.ComputeStats()
	if st.NodesByType["concept"] != 2 || st.NodesByType["event"] != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if s.GrowthOn(Concept, 2) != 1 || s.GrowthOn(Event, 2) != 1 {
		t.Fatal("growth accounting wrong")
	}
}

func TestCycleDetection(t *testing.T) {
	o := New()
	a := o.AddNode(Concept, "a")
	b := o.AddNode(Concept, "b")
	c := o.AddNode(Concept, "c")
	_ = o.AddEdge(a, b, IsA, 1)
	_ = o.AddEdge(b, c, IsA, 1)
	if o.Snapshot().HasCycleIsA() {
		t.Fatal("acyclic graph reported cyclic")
	}
	_ = o.AddEdge(c, a, IsA, 1)
	if !o.Snapshot().HasCycleIsA() {
		t.Fatal("cycle not detected")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	o := New()
	cat := o.AddNodeAt(Category, "music", 0)
	ev := o.AddNodeAt(Event, "taylor swift hold concert", 3)
	o.SetEventAttrs(ev, "hold", "london", 3)
	o.AddAlias(ev, "swift concert")
	_ = o.AddEdge(cat, ev, IsA, 0.8)

	var buf bytes.Buffer
	if err := o.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	o2, err := SnapshotFromJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n, ok := o2.Find(Event, "taylor swift hold concert")
	if !ok {
		t.Fatal("event lost in round trip")
	}
	if n.Trigger != "hold" || n.Location != "london" || n.Day != 3 {
		t.Fatalf("event attrs lost: %+v", n)
	}
	if len(n.Aliases) != 1 || n.Aliases[0] != "swift concert" {
		t.Fatalf("aliases lost: %v", n.Aliases)
	}
	if o2.EdgeCount(IsA) != 1 {
		t.Fatal("edges lost")
	}
	es := o2.Edges(IsA)
	if es[0].Weight != 0.8 {
		t.Fatalf("weight lost: %v", es[0].Weight)
	}
}

func TestFindAny(t *testing.T) {
	o := New()
	o.AddNode(Topic, "cellphone explosion")
	s := o.Snapshot()
	n, ok := s.FindAny("cellphone explosion")
	if !ok || n.Type != Topic {
		t.Fatalf("FindAny = %+v %v", n, ok)
	}
	if _, ok := s.FindAny("nothing"); ok {
		t.Fatal("FindAny on missing phrase")
	}
}

func TestConcurrentMutation(t *testing.T) {
	o := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := o.AddNode(Entity, "shared entity") // same node from all goroutines
				_ = id
				other := o.AddNode(Concept, "concept")
				_ = o.AddEdge(other, id, IsA, 1)
				o.Lookup(Concept, "concept")
				o.Snapshot()
			}
		}(w)
	}
	wg.Wait()
	if s := o.Snapshot(); s.NodeCount() != 2 || s.EdgeCount() != 1 {
		t.Fatalf("concurrent dedupe failed: %d nodes %d edges", s.NodeCount(), s.EdgeCount())
	}
}

func TestTypeStrings(t *testing.T) {
	if Concept.String() != "concept" || IsA.String() != "isA" || Correlate.String() != "correlate" {
		t.Fatal("type strings broken")
	}
}
