package ontology

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomOntology builds a random (acyclic-by-construction for IsA) ontology
// from a seed.
func randomOntology(seed int64) *Ontology {
	rng := rand.New(rand.NewSource(seed))
	o := New()
	n := 3 + rng.Intn(20)
	ids := make([]NodeID, 0, n)
	for i := 0; i < n; i++ {
		t := NodeType(rng.Intn(int(NumNodeTypes)))
		id := o.AddNodeAt(t, t.String()+"-"+string(rune('a'+i%26))+string(rune('0'+i/26)), rng.Intn(30))
		ids = append(ids, id)
	}
	// Edges only from lower to higher index keep IsA acyclic.
	for k := 0; k < n*2; k++ {
		i := rng.Intn(n - 1)
		j := i + 1 + rng.Intn(n-i-1)
		et := EdgeType(rng.Intn(int(NumEdgeTypes)))
		_ = o.AddEdge(ids[i], ids[j], et, rng.Float64())
	}
	return o
}

func TestPropertyJSONRoundTripPreservesEverything(t *testing.T) {
	f := func(seed int64) bool {
		b := randomOntology(seed)
		o := referenceOf(b)
		var buf bytes.Buffer
		if err := b.Snapshot().WriteJSON(&buf); err != nil {
			return false
		}
		o2, err := SnapshotFromJSON(&buf)
		if err != nil {
			return false
		}
		if o2.NodeCount() != o.NodeCount() || o2.EdgeCount() != o.EdgeCount() {
			return false
		}
		for _, et := range []EdgeType{IsA, Involve, Correlate} {
			if o2.EdgeCount(et) != o.EdgeCount(et) {
				return false
			}
		}
		// Every node findable by (type, phrase) in both.
		for _, n := range o.Nodes() {
			if _, ok := o2.Find(n.Type, n.Phrase); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyForwardEdgesStayAcyclic(t *testing.T) {
	f := func(seed int64) bool {
		s := randomOntology(seed).Snapshot()
		return !s.HasCycleIsA() && !referenceLists(s).HasCycleIsA()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyParentsChildrenInverse(t *testing.T) {
	f := func(seed int64) bool {
		o := randomOntology(seed).Snapshot()
		for _, n := range o.Nodes() {
			for _, child := range o.Children(n.ID, IsA) {
				ok := false
				for _, p := range o.Parents(child.ID, IsA) {
					if p.ID == n.ID {
						ok = true
					}
				}
				if !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyNodeCountPartitionsByType(t *testing.T) {
	f := func(seed int64) bool {
		o := randomOntology(seed).Snapshot()
		sum := 0
		for typ := NodeType(0); typ < NumNodeTypes; typ++ {
			sum += o.NodeCount(typ)
		}
		return sum == o.NodeCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
