package ontology

import "testing"

func storeSnap(t *testing.T, phrases ...string) *Snapshot {
	t.Helper()
	o := New()
	for _, p := range phrases {
		o.AddNode(Concept, p)
	}
	return o.Snapshot()
}

func TestStorePushCurrentGet(t *testing.T) {
	st := NewStore(3)
	if _, ok := st.Current(); ok {
		t.Fatal("empty store has no current generation")
	}
	a := storeSnap(t, "a")
	b := storeSnap(t, "a", "b")
	if gen := st.Push(a); gen != 1 {
		t.Fatalf("first generation = %d, want 1", gen)
	}
	if gen := st.Push(b); gen != 2 {
		t.Fatalf("second generation = %d, want 2", gen)
	}
	cur, ok := st.Current()
	if !ok || cur.Gen != 2 || cur.Snap != b || cur.Nodes != 2 {
		t.Fatalf("current = %+v, want gen 2 of b", cur)
	}
	if got, ok := st.Get(1); !ok || got != a {
		t.Fatal("generation 1 should stay retrievable")
	}
}

func TestStoreBoundedRetention(t *testing.T) {
	st := NewStore(2)
	snaps := []*Snapshot{storeSnap(t, "a"), storeSnap(t, "b"), storeSnap(t, "c")}
	for _, s := range snaps {
		st.Push(s)
	}
	if st.Len() != 2 {
		t.Fatalf("retention 2 store holds %d generations", st.Len())
	}
	if _, ok := st.Get(1); ok {
		t.Fatal("oldest generation should have been evicted")
	}
	gens := st.Generations()
	if len(gens) != 2 || gens[0].Gen != 2 || gens[1].Gen != 3 {
		t.Fatalf("generations = %+v, want [2 3]", gens)
	}
	if gens[0].Snap != nil {
		t.Fatal("Generations must not leak snapshots in the summary view")
	}
}
