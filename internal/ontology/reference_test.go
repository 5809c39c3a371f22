package ontology

import (
	"slices"
	"strings"

	"giant/internal/nlp"
)

// reference answers the Snapshot's reads by brute force over raw node and
// edge lists: every read is a scan, nothing is indexed or cached. It is
// the oracle the snapshot's indexes (phrase maps, per-type lists, CSR
// adjacency, statistics, phrase tokens and postings) are held to.
type reference struct {
	nodes []Node
	edges []Edge
}

// referenceOf reads the lists an ontology's builder holds. An adopted
// ontology that was never mutated holds none; use referenceLists on its
// snapshot's lists instead.
func referenceOf(o *Ontology) reference {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return reference{nodes: copyNodes(o.nodes), edges: slices.Clone(o.edges)}
}

// referenceLists is the oracle over a snapshot's own raw lists.
func referenceLists(s *Snapshot) reference {
	return reference{nodes: s.nodes, edges: s.edges}
}

func (r reference) Nodes(types ...NodeType) []Node {
	out := []Node{}
	for _, n := range r.nodes {
		if len(types) == 0 || slices.Contains(types, n.Type) {
			out = append(out, n)
		}
	}
	return out
}

func (r reference) Edges(types ...EdgeType) []Edge {
	out := []Edge{}
	for _, e := range r.edges {
		if len(types) == 0 || slices.Contains(types, e.Type) {
			out = append(out, e)
		}
	}
	return out
}

func (r reference) NodeCount(types ...NodeType) int { return len(r.Nodes(types...)) }

func (r reference) EdgeCount(types ...EdgeType) int { return len(r.Edges(types...)) }

func (r reference) Get(id NodeID) (Node, bool) {
	for _, n := range r.nodes {
		if n.ID == id {
			return n, true
		}
	}
	return Node{}, false
}

// Find returns the first node of type t whose phrase equals phrase
// case-insensitively.
func (r reference) Find(t NodeType, phrase string) (Node, bool) {
	for _, n := range r.nodes {
		if n.Type == t && strings.ToLower(n.Phrase) == strings.ToLower(phrase) {
			return n, true
		}
	}
	return Node{}, false
}

func (r reference) FindAny(phrase string) (Node, bool) {
	for t := NodeType(0); t < NumNodeTypes; t++ {
		if n, ok := r.Find(t, phrase); ok {
			return n, true
		}
	}
	return Node{}, false
}

// Children lists the destinations of id's out-edges of type t, in edge
// order.
func (r reference) Children(id NodeID, t EdgeType) []Node {
	var out []Node
	for _, e := range r.edges {
		if e.Src == id && e.Type == t {
			n, _ := r.Get(e.Dst)
			out = append(out, n)
		}
	}
	return out
}

// Parents lists the sources of id's in-edges of type t, in edge order.
func (r reference) Parents(id NodeID, t EdgeType) []Node {
	var out []Node
	for _, e := range r.edges {
		if e.Dst == id && e.Type == t {
			n, _ := r.Get(e.Src)
			out = append(out, n)
		}
	}
	return out
}

// Ancestors walks IsA parents breadth first, each node once.
func (r reference) Ancestors(id NodeID) []Node {
	seen := map[NodeID]bool{id: true}
	var out []Node
	for frontier := []NodeID{id}; len(frontier) > 0; {
		var next []NodeID
		for _, f := range frontier {
			for _, p := range r.Parents(f, IsA) {
				if !seen[p.ID] {
					seen[p.ID] = true
					out = append(out, p)
					next = append(next, p.ID)
				}
			}
		}
		frontier = next
	}
	return out
}

func (r reference) ComputeStats() Stats {
	st := Stats{NodesByType: map[string]int{}, EdgesByType: map[string]int{}}
	for _, n := range r.nodes {
		st.NodesByType[n.Type.String()]++
	}
	for _, e := range r.edges {
		st.EdgesByType[e.Type.String()]++
	}
	return st
}

func (r reference) GrowthOn(t NodeType, day int) int {
	n := 0
	for _, nd := range r.Nodes(t) {
		if nd.FirstSeenDay == day {
			n++
		}
	}
	return n
}

// HasCycleIsA peels nodes with no remaining IsA in-edge (Kahn's
// algorithm); a cycle is whatever cannot be peeled.
func (r reference) HasCycleIsA() bool {
	indeg := make(map[NodeID]int)
	for _, e := range r.edges {
		if e.Type == IsA {
			indeg[e.Dst]++
		}
	}
	var free []NodeID
	for _, n := range r.nodes {
		if indeg[n.ID] == 0 {
			free = append(free, n.ID)
		}
	}
	peeled := 0
	for len(free) > 0 {
		v := free[len(free)-1]
		free = free[:len(free)-1]
		peeled++
		for _, c := range r.Children(v, IsA) {
			if indeg[c.ID]--; indeg[c.ID] == 0 {
				free = append(free, c.ID)
			}
		}
	}
	return peeled != len(r.nodes)
}

func (r reference) PhraseTokens(t NodeType) []PhraseTokens {
	out := []PhraseTokens{}
	for _, n := range r.Nodes(t) {
		toks := nlp.Tokenize(n.Phrase)
		out = append(out, PhraseTokens{ID: n.ID, Phrase: n.Phrase, Tokens: toks, Norm: strings.Join(toks, " ")})
	}
	return out
}

// PhrasePostings counts, for every phrase of type t in order, how many of
// its positions hold each of its tokens.
func (r reference) PhrasePostings(t NodeType) map[string][]Posting {
	post := map[string][]Posting{}
	for i, p := range r.PhraseTokens(t) {
		counts := map[string]int32{}
		for _, tok := range p.Tokens {
			counts[tok]++
		}
		for tok, n := range counts {
			post[tok] = append(post[tok], Posting{Phrase: int32(i), Count: n})
		}
	}
	return post
}
