package ontology

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// richOntology builds a small ontology exercising every persisted field:
// aliases, event attributes, first-seen days and all edge types.
func richOntology() *Ontology {
	o := New()
	auto := o.AddNode(Category, "auto")
	sedans := o.AddNodeAt(Concept, "family sedans", 2)
	o.AddAlias(sedans, "sedans for families")
	o.AddAlias(sedans, "family sedan")
	civic := o.AddNode(Entity, "honda civic")
	accord := o.AddNode(Entity, "honda accord")
	show := o.AddNodeAt(Event, "honda unveils new accord", 7)
	o.SetEventAttrs(show, "unveils", "tokyo", 7)
	season := o.AddNode(Topic, "honda launch season")
	for _, e := range []Edge{
		{Src: auto, Dst: sedans, Type: IsA, Weight: 0.8},
		{Src: sedans, Dst: civic, Type: IsA, Weight: 1},
		{Src: sedans, Dst: accord, Type: IsA, Weight: 1},
		{Src: show, Dst: accord, Type: Involve, Weight: 1},
		{Src: season, Dst: show, Type: IsA, Weight: 1},
		{Src: civic, Dst: accord, Type: Correlate, Weight: 0.5},
	} {
		if err := o.AddEdge(e.Src, e.Dst, e.Type, e.Weight); err != nil {
			panic(err)
		}
	}
	return o
}

// TestSnapshotMatchesOntologyReads checks every read of a snapshot agrees
// with the brute-force reference over the builder's raw lists, over
// randomized instances.
func TestSnapshotMatchesOntologyReads(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		b := randomOntology(seed)
		o := referenceOf(b)
		s := b.Snapshot()
		if !reflect.DeepEqual(o.Nodes(), s.Nodes()) {
			t.Fatalf("seed %d: Nodes mismatch", seed)
		}
		if !reflect.DeepEqual(o.Edges(), s.Edges()) {
			t.Fatalf("seed %d: Edges mismatch", seed)
		}
		if !reflect.DeepEqual(o.ComputeStats(), s.ComputeStats()) {
			t.Fatalf("seed %d: stats mismatch", seed)
		}
		for nt := NodeType(0); nt < NumNodeTypes; nt++ {
			if o.NodeCount(nt) != s.NodeCount(nt) {
				t.Fatalf("seed %d: NodeCount(%v) %d != %d", seed, nt, o.NodeCount(nt), s.NodeCount(nt))
			}
			if !reflect.DeepEqual(o.Nodes(nt), s.Nodes(nt)) {
				t.Fatalf("seed %d: Nodes(%v) mismatch", seed, nt)
			}
			if !reflect.DeepEqual(o.PhraseTokens(nt), s.PhraseTokens(nt)) {
				t.Fatalf("seed %d: PhraseTokens(%v) mismatch", seed, nt)
			}
			if !reflect.DeepEqual(o.PhrasePostings(nt), s.PhrasePostings(nt)) {
				t.Fatalf("seed %d: PhrasePostings(%v) mismatch", seed, nt)
			}
			for day := 0; day < 30; day++ {
				if o.GrowthOn(nt, day) != s.GrowthOn(nt, day) {
					t.Fatalf("seed %d: GrowthOn(%v, %d) mismatch", seed, nt, day)
				}
			}
		}
		if o.HasCycleIsA() != s.HasCycleIsA() {
			t.Fatalf("seed %d: HasCycleIsA mismatch", seed)
		}
		for et := EdgeType(0); et < NumEdgeTypes; et++ {
			if o.EdgeCount(et) != s.EdgeCount(et) {
				t.Fatalf("seed %d: EdgeCount(%v) %d != %d", seed, et, o.EdgeCount(et), s.EdgeCount(et))
			}
		}
		for _, n := range o.Nodes() {
			if got, ok := s.Get(n.ID); !ok || !reflect.DeepEqual(got, n) {
				t.Fatalf("seed %d: Get(%d) = %+v, %v", seed, n.ID, got, ok)
			}
			if got, ok := s.Find(n.Type, n.Phrase); !ok || got.ID != n.ID {
				t.Fatalf("seed %d: Find(%v,%q) = %+v, %v", seed, n.Type, n.Phrase, got, ok)
			}
			oAny, oOK := o.FindAny(n.Phrase)
			sAny, sOK := s.FindAny(n.Phrase)
			if oOK != sOK || oAny.ID != sAny.ID {
				t.Fatalf("seed %d: FindAny(%q) disagrees", seed, n.Phrase)
			}
			for et := EdgeType(0); et < NumEdgeTypes; et++ {
				if !reflect.DeepEqual(o.Children(n.ID, et), s.Children(n.ID, et)) {
					t.Fatalf("seed %d: Children(%d,%v) mismatch", seed, n.ID, et)
				}
				if !reflect.DeepEqual(o.Parents(n.ID, et), s.Parents(n.ID, et)) {
					t.Fatalf("seed %d: Parents(%d,%v) mismatch", seed, n.ID, et)
				}
			}
			if !reflect.DeepEqual(o.Ancestors(n.ID), s.Ancestors(n.ID)) {
				t.Fatalf("seed %d: Ancestors(%d) mismatch", seed, n.ID)
			}
		}
	}
}

// TestPhraseTokensConcurrentFirstUse has readers race to build a fresh
// snapshot's lazy phrase tokens and token postings, half of them reaching
// for the postings first; every reader must see the one complete list and
// index the brute-force reference computes (run under -race).
func TestPhraseTokensConcurrentFirstUse(t *testing.T) {
	b := randomOntology(7)
	o := referenceOf(b)
	s := b.Snapshot()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for nt := NodeType(0); nt < NumNodeTypes; nt++ {
				if g%2 == 1 {
					if got := s.PhrasePostings(nt); !reflect.DeepEqual(got, o.PhrasePostings(nt)) {
						t.Errorf("PhrasePostings(%v) = %+v", nt, got)
					}
				}
				if got := s.PhraseTokens(nt); !reflect.DeepEqual(got, o.PhraseTokens(nt)) {
					t.Errorf("PhraseTokens(%v) = %+v", nt, got)
				}
				if got := s.PhrasePostings(nt); !reflect.DeepEqual(got, o.PhrasePostings(nt)) {
					t.Errorf("PhrasePostings(%v) = %+v", nt, got)
				}
			}
		}()
	}
	wg.Wait()
}

// TestSnapshotIsImmune checks that mutating the source ontology after the
// snapshot is taken never shows through.
func TestSnapshotIsImmune(t *testing.T) {
	o := richOntology()
	s := o.Snapshot()
	nodes, edges := s.NodeCount(), s.EdgeCount()
	id := o.AddNode(Concept, "late arrival")
	o.AddAlias(id, "very late arrival")
	sedans, _ := o.Lookup(Concept, "family sedans")
	o.AddAlias(sedans, "post-snapshot alias")
	if err := o.AddEdge(id, sedans, Correlate, 1); err != nil {
		t.Fatal(err)
	}
	if s.NodeCount() != nodes || s.EdgeCount() != edges {
		t.Fatalf("snapshot grew: %d/%d -> %d/%d", nodes, edges, s.NodeCount(), s.EdgeCount())
	}
	if _, ok := s.Find(Concept, "late arrival"); ok {
		t.Fatal("snapshot sees a node added after it was taken")
	}
	snapSedans, _ := s.Find(Concept, "family sedans")
	for _, a := range snapSedans.Aliases {
		if a == "post-snapshot alias" {
			t.Fatal("snapshot sees an alias added after it was taken")
		}
	}
}

func TestSnapshotAliasAndAnyLookup(t *testing.T) {
	s := richOntology().Snapshot()
	id, ok := s.LookupAlias(Concept, "Sedans For Families")
	if !ok {
		t.Fatal("alias lookup failed")
	}
	if n, _ := s.Get(id); n.Phrase != "family sedans" {
		t.Fatalf("alias resolved to %q", n.Phrase)
	}
	if _, ok := s.LookupAny("family sedan"); !ok {
		t.Fatal("LookupAny should fall back to aliases")
	}
	if _, ok := s.LookupAny("no such phrase"); ok {
		t.Fatal("LookupAny hallucinated a node")
	}
	if got := s.Search("honda", 0); len(got) != 4 {
		t.Fatalf("Search(honda) = %d nodes, want 4", len(got))
	}
	if got := s.Search("honda", 2); len(got) != 2 {
		t.Fatalf("Search(honda, limit 2) = %d nodes", len(got))
	}
}

// TestSnapshotLookupZeroAlloc enforces the serving-tier contract: phrase
// lookup on the hot path allocates nothing.
func TestSnapshotLookupZeroAlloc(t *testing.T) {
	s := richOntology().Snapshot()
	var sink NodeID
	allocs := testing.AllocsPerRun(200, func() {
		id, ok := s.Lookup(Concept, "family sedans")
		if !ok {
			t.Fatal("lookup failed")
		}
		sink = id
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocates %.1f times per op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		s.EachOut(sink, func(e *Edge, dst *Node) bool { return true })
	})
	if allocs != 0 {
		t.Fatalf("EachOut allocates %.1f times per op, want 0", allocs)
	}
}

// TestJSONRoundTripThroughSnapshot is giantctl convert's export/import
// contract: SaveFile then SnapshotFromJSON preserves node/edge counts,
// aliases and event attributes, and the snapshot re-saves byte-for-byte.
func TestJSONRoundTripThroughSnapshot(t *testing.T) {
	b := richOntology()
	o := referenceOf(b)
	dir := t.TempDir()
	path := filepath.Join(dir, "ao.json")
	if err := b.Snapshot().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	s, err := SnapshotFromJSON(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if s.NodeCount() != o.NodeCount() || s.EdgeCount() != o.EdgeCount() {
		t.Fatalf("counts changed: %d/%d -> %d/%d", o.NodeCount(), o.EdgeCount(), s.NodeCount(), s.EdgeCount())
	}
	if !reflect.DeepEqual(o.Nodes(), s.Nodes()) {
		t.Fatal("nodes (incl. aliases/event attrs) changed across save/load/snapshot")
	}
	if !reflect.DeepEqual(o.Edges(), s.Edges()) {
		t.Fatal("edges changed across save/load/snapshot")
	}
	ev, ok := s.Find(Event, "honda unveils new accord")
	if !ok || ev.Trigger != "unveils" || ev.Location != "tokyo" || ev.Day != 7 {
		t.Fatalf("event attrs lost: %+v", ev)
	}

	resaved := filepath.Join(dir, "ao2.json")
	if err := s.SaveFile(resaved); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(resaved)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("re-save is not byte-for-byte identical")
	}
}

// BenchmarkSnapshotLookup measures the lock-free hot path; the 0 allocs/op
// report is part of the serving contract.
func BenchmarkSnapshotLookup(b *testing.B) {
	s := richOntology().Snapshot()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Lookup(Concept, "family sedans"); !ok {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkOntologyLookup is the builder's mutex-guarded lookup, for
// comparison.
func BenchmarkOntologyLookup(b *testing.B) {
	o := richOntology()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := o.Lookup(Concept, "family sedans"); !ok {
			b.Fatal("find failed")
		}
	}
}
