package ontology

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// deriveWord draws from a small vocabulary in mixed case, so phrases and
// aliases of different nodes collide.
func deriveWord(r *rand.Rand) string {
	w := fmt.Sprintf("w%d", r.Intn(8))
	if r.Intn(3) == 0 {
		return strings.ToUpper(w)
	}
	return w
}

func deriveAliases(r *rand.Rand) []string {
	var out []string
	for a := r.Intn(4); a > 0; a-- {
		out = append(out, deriveWord(r))
	}
	return out
}

// deriveStep draws a random successor of prev in Derive's terms: retired
// IDs, survivors whose alias lists grow, shrink or are replaced, new nodes
// (their phrases may repeat existing ones), surviving edges plus new ones.
func deriveStep(r *rand.Rand, prev *Snapshot) (nodes []Node, edges []Edge, retired []NodeID) {
	remap := make([]NodeID, prev.Len())
	for id := range remap {
		if r.Intn(5) == 0 {
			retired = append(retired, NodeID(id))
			remap[id] = -1
			continue
		}
		n := prev.nodes[id]
		n.ID = NodeID(len(nodes))
		n.LastSeenDay = r.Intn(20)
		switch r.Intn(6) {
		case 0:
			n.Aliases = deriveAliases(r)
		case 1:
			n.Aliases = append(append([]string(nil), n.Aliases...), deriveWord(r))
		case 2:
			if len(n.Aliases) > 0 {
				n.Aliases = append([]string(nil), n.Aliases[1:]...)
			}
		}
		remap[id] = n.ID
		nodes = append(nodes, n)
	}
	for a := r.Intn(4); a > 0; a-- {
		nodes = append(nodes, Node{ID: NodeID(len(nodes)), Type: NodeType(r.Intn(NumNodeTypes)), Phrase: deriveWord(r), Aliases: deriveAliases(r)})
	}
	for _, e := range prev.edges {
		if e.Src, e.Dst = remap[e.Src], remap[e.Dst]; e.Src >= 0 && e.Dst >= 0 {
			edges = append(edges, e)
		}
	}
	for e := r.Intn(4); e > 0 && len(nodes) > 1; e-- {
		src, dst := NodeID(r.Intn(len(nodes))), NodeID(r.Intn(len(nodes)))
		if src != dst {
			edges = append(edges, Edge{Src: src, Dst: dst, Type: EdgeType(r.Intn(NumEdgeTypes)), Weight: 1})
		}
	}
	return nodes, edges, retired
}

// TestDeriveMatchesNewSnapshot holds every index Derive patches to the one
// newSnapshot computes from scratch, over chains of random steps — alias
// lists that shrink or are replaced and duplicate phrases included, which
// delta.Apply never produces but Derive's contract allows.
func TestDeriveMatchesNewSnapshot(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		r := rand.New(rand.NewSource(seed))
		var nodes []Node
		for i := r.Intn(12); i > 0; i-- {
			nodes = append(nodes, Node{ID: NodeID(len(nodes)), Type: NodeType(r.Intn(NumNodeTypes)), Phrase: deriveWord(r), Aliases: deriveAliases(r)})
		}
		prev := newSnapshot(nodes, nil)
		for step := 0; step < 3; step++ {
			nodes, edges, retired := deriveStep(r, prev)
			before := newSnapshot(append([]Node(nil), prev.nodes...), append([]Edge(nil), prev.edges...))
			got, err := prev.Derive(nodes, edges, retired)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			// Maps Derive did not write are shared; prev must be untouched.
			if !reflect.DeepEqual(prev.byPhrase, before.byPhrase) || !reflect.DeepEqual(prev.byAlias, before.byAlias) ||
				!reflect.DeepEqual(prev.byType, before.byType) {
				t.Fatalf("seed %d step %d: Derive changed its predecessor's indexes", seed, step)
			}
			want := newSnapshot(append([]Node(nil), nodes...), append([]Edge(nil), edges...))
			for _, c := range []struct {
				name      string
				got, want any
			}{
				{"byPhrase", got.byPhrase, want.byPhrase},
				{"byAlias", got.byAlias, want.byAlias},
				{"byType", got.byType, want.byType},
				{"outOff", got.outOff, want.outOff},
				{"inOff", got.inOff, want.inOff},
				{"outIdx", got.outIdx, want.outIdx},
				{"inIdx", got.inIdx, want.inIdx},
				{"stats", got.stats, want.stats},
			} {
				if !reflect.DeepEqual(c.got, c.want) {
					t.Fatalf("seed %d step %d: %s = %v, from scratch %v\nprev %+v\nnodes %+v retired %v",
						seed, step, c.name, c.got, c.want, prev.nodes, nodes, retired)
				}
			}
			prev = got
		}
	}
}

func TestDeriveRejectsBrokenSteps(t *testing.T) {
	prev := richOntology().Snapshot()
	nodes := prev.Nodes()
	for name, step := range map[string]func() ([]Node, []Edge, []NodeID){
		"unsorted retired": func() ([]Node, []Edge, []NodeID) { return nodes[:len(nodes)-2], nil, []NodeID{3, 1} },
		"retired out of range": func() ([]Node, []Edge, []NodeID) {
			return nodes[:len(nodes)-1], nil, []NodeID{NodeID(len(nodes))}
		},
		"too few nodes": func() ([]Node, []Edge, []NodeID) { return nodes[:1], nil, nil },
		"phrase changed": func() ([]Node, []Edge, []NodeID) {
			changed := prev.Nodes()
			changed[2].Phrase = "something else"
			return changed, nil, nil
		},
		"self edge": func() ([]Node, []Edge, []NodeID) { return nodes, []Edge{{Src: 1, Dst: 1}}, nil },
	} {
		n, e, r := step()
		if _, err := prev.Derive(n, e, r); err == nil {
			t.Errorf("%s: Derive accepted it", name)
		}
	}
}
