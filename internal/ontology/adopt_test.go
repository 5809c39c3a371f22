package ontology

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
)

func snapshotJSON(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFromSnapshotSharingContract pins lazy adoption: an adopted ontology
// hands back the very snapshot it was adopted from until it is mutated,
// looks up exactly what a node-by-node rebuild looks up, materializes on
// its first mutation exactly the rebuild's lists and maps, and a mutation
// lands on a private copy — the adopted snapshot never changes.
func TestFromSnapshotSharingContract(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		src := randomOntology(seed)
		src.AddAlias(0, "alias-one")
		src.AddAlias(0, "alias-two")
		s := src.Snapshot()
		before := snapshotJSON(t, s)

		o := FromSnapshot(s)
		if o.Snapshot() != s {
			t.Fatalf("seed %d: unmodified adopted ontology copied its snapshot", seed)
		}
		rebuilt, err := fromNodesEdges(s.Nodes(), s.Edges())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapshotJSON(t, o.Snapshot()), snapshotJSON(t, rebuilt.Snapshot())) {
			t.Fatalf("seed %d: adopted ontology serializes differently from a rebuild", seed)
		}
		adopted, fresh := referenceLists(o.Snapshot()), referenceOf(rebuilt)
		for _, n := range s.Nodes() {
			if id, ok := o.Lookup(n.Type, n.Phrase); !ok || id != n.ID {
				t.Fatalf("seed %d: Lookup(%v, %q) = %d, %v", seed, n.Type, n.Phrase, id, ok)
			}
			if id, ok := rebuilt.Lookup(n.Type, n.Phrase); !ok || id != n.ID {
				t.Fatalf("seed %d: rebuilt Lookup(%v, %q) = %d, %v", seed, n.Type, n.Phrase, id, ok)
			}
			if !reflect.DeepEqual(adopted.Children(n.ID, IsA), fresh.Children(n.ID, IsA)) ||
				!reflect.DeepEqual(adopted.Parents(n.ID, IsA), fresh.Parents(n.ID, IsA)) {
				t.Fatalf("seed %d: adjacency of node %d differs from a rebuild", seed, n.ID)
			}
		}
		if adopted.HasCycleIsA() != fresh.HasCycleIsA() || !reflect.DeepEqual(adopted.ComputeStats(), fresh.ComputeStats()) {
			t.Fatalf("seed %d: derived reads differ from a rebuild", seed)
		}
		if o.Snapshot() != s {
			t.Fatalf("seed %d: reads made the adopted ontology let go of its snapshot", seed)
		}

		// Mutations: a new node, an alias appended to a node that already
		// has some (the append must not land in s's backing array), a new
		// edge and refreshed attributes.
		mutate := func(o *Ontology) {
			id := o.AddNode(Concept, "brand new concept")
			o.AddAlias(0, "alias-three")
			o.SetLastSeen(0, 99)
			if err := o.AddEdge(0, id, Correlate, 1); err != nil {
				t.Fatal(err)
			}
		}
		mutate(o)
		mutate(rebuilt)
		if !reflect.DeepEqual(o.nodes, rebuilt.nodes) || !reflect.DeepEqual(o.edges, rebuilt.edges) ||
			!reflect.DeepEqual(o.byPhrase, rebuilt.byPhrase) || !reflect.DeepEqual(o.edgeSet, rebuilt.edgeSet) {
			t.Fatalf("seed %d: materialized state differs from a rebuild's", seed)
		}
		next := o.Snapshot()
		if next == s {
			t.Fatalf("seed %d: mutated ontology still returns the adopted snapshot", seed)
		}
		if _, ok := next.Find(Concept, "brand new concept"); !ok || next.EdgeCount() != s.EdgeCount()+1 {
			t.Fatalf("seed %d: mutations missing from the next snapshot", seed)
		}
		if n0 := next.At(0); len(n0.Aliases) != 3 || n0.LastSeenDay != 99 {
			t.Fatalf("seed %d: node 0 after mutation: %+v", seed, *n0)
		}
		if !bytes.Equal(snapshotJSON(t, s), before) {
			t.Fatalf("seed %d: mutating the adopted ontology disturbed its snapshot", seed)
		}
	}
}

// TestAdoptedOntologyConcurrentUse hammers a lazily adopted ontology from 8
// goroutines — Snapshot and Lookup racing the first materialization and
// one AddNode — under -race. Every Snapshot() is either the adopted
// snapshot or a post-mutation one that holds the new node, every Lookup
// sees either world, and the adopted snapshot is byte-for-byte what it
// was.
func TestAdoptedOntologyConcurrentUse(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := randomOntology(int64(round)).Snapshot()
		before := snapshotJSON(t, s)
		probe := s.At(0)
		o := FromSnapshot(s)

		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					switch {
					case w == 0 && i == 25:
						o.AddNode(Event, "added mid-flight")
					case w%3 == 0:
						got := o.Snapshot()
						_, added := got.Find(Event, "added mid-flight")
						if (got == s) == added || got.Len() != s.Len()+btoi(added) {
							t.Errorf("round %d: Snapshot() is neither the adopted world nor the mutated one", round)
							return
						}
					case w%3 == 1:
						if id, ok := o.Lookup(probe.Type, probe.Phrase); !ok || id != 0 {
							t.Errorf("round %d: Lookup lost node 0", round)
							return
						}
					default:
						if id, ok := o.Lookup(Event, "added mid-flight"); ok && int(id) != s.Len() {
							t.Errorf("round %d: Lookup found the added node at %d", round, id)
							return
						}
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		if !bytes.Equal(snapshotJSON(t, s), before) {
			t.Fatalf("round %d: the pre-mutation snapshot was disturbed", round)
		}
		if _, ok := o.Lookup(Event, "added mid-flight"); !ok {
			t.Fatalf("round %d: AddNode lost", round)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
