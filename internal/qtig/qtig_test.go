package qtig

import (
	"testing"

	"giant/internal/nlp"
)

func annotate(lex *nlp.Lexicon, texts ...string) [][]nlp.Token {
	out := make([][]nlp.Token, 0, len(texts))
	for _, t := range texts {
		out = append(out, lex.Annotate(t))
	}
	return out
}

func buildSample(opt BuildOptions) *Graph {
	lex := nlp.NewLexicon()
	lex.Register("miyazaki", nlp.PosPropn, nlp.NerPerson)
	lex.Register("animated", nlp.PosAdj, nlp.NerNone)
	lex.Register("film", nlp.PosNoun, nlp.NerNone)
	qs := annotate(lex, "what are the miyazaki animated film")
	ts := annotate(lex, "review miyazaki animated film", "the famous animated films of miyazaki")
	return Build(qs, ts, opt)
}

func TestNodesAreUniqueTokens(t *testing.T) {
	g := buildSample(BuildOptions{})
	seen := map[string]bool{}
	for _, n := range g.Nodes {
		if seen[n.Token.Text] {
			t.Fatalf("duplicate node %q", n.Token.Text)
		}
		seen[n.Token.Text] = true
	}
	if !seen["<sos>"] || !seen["<eos>"] {
		t.Fatal("missing SOS/EOS")
	}
	// "miyazaki" appears in three inputs but must be a single node.
	if g.nodeOf("miyazaki") < 0 {
		t.Fatal("merged token missing")
	}
}

func TestKeepFirstEdgeRule(t *testing.T) {
	g := buildSample(BuildOptions{})
	// At most one relation per unordered node pair.
	pairCount := map[[2]int]int{}
	for _, e := range g.Edges {
		k := [2]int{e.Src, e.Dst}
		if e.Src > e.Dst {
			k = [2]int{e.Dst, e.Src}
		}
		pairCount[k]++
	}
	for k, c := range pairCount {
		if c > 2 { // one forward + one reverse
			t.Fatalf("pair %v has %d edges; keep-first-edge violated", k, c)
		}
	}
	// The multigraph variant must have at least as many edges.
	gAll := buildSample(BuildOptions{KeepAllEdges: true})
	if len(gAll.Edges) < len(g.Edges) {
		t.Fatal("KeepAllEdges produced fewer edges")
	}
}

func TestSeqEdgesBidirectional(t *testing.T) {
	g := buildSample(BuildOptions{})
	fwd, rev := 0, 0
	for _, e := range g.Edges {
		switch e.Rel {
		case RelSeqFwd:
			fwd++
		case RelSeqRev:
			rev++
		}
	}
	if fwd == 0 || fwd != rev {
		t.Fatalf("seq edges fwd=%d rev=%d", fwd, rev)
	}
}

func TestSkipDependencies(t *testing.T) {
	g := buildSample(BuildOptions{SkipDependencies: true})
	for _, e := range g.Edges {
		if e.Rel >= 2 {
			t.Fatalf("dependency edge %d present despite SkipDependencies", e.Rel)
		}
	}
}

func TestLabelNodes(t *testing.T) {
	g := buildSample(BuildOptions{})
	labels := g.LabelNodes([]string{"miyazaki", "animated", "film"})
	pos := 0
	for i, l := range labels {
		if l == 1 {
			pos++
			if g.Nodes[i].IsSOS || g.Nodes[i].IsEOS {
				t.Fatal("special node labelled positive")
			}
		}
	}
	if pos != 3 {
		t.Fatalf("expected 3 positive nodes, got %d", pos)
	}
}

func TestRelationIDsInRange(t *testing.T) {
	g := buildSample(BuildOptions{})
	for _, e := range g.Edges {
		if e.Rel < 0 || e.Rel >= NumRelations {
			t.Fatalf("relation %d out of range [0,%d)", e.Rel, NumRelations)
		}
	}
}

func TestATSPDistancesOrderRecovery(t *testing.T) {
	g := buildSample(BuildOptions{})
	positive := []int{
		g.nodeOf("miyazaki"),
		g.nodeOf("animated"),
		g.nodeOf("film"),
	}
	nodes, dist := g.ATSPDistances(positive)
	if len(nodes) != 5 { // sos + 3 + eos
		t.Fatalf("nodes = %d", len(nodes))
	}
	// Adjacent-in-input tokens must be at distance 1.
	idx := map[int]int{}
	for i, n := range nodes {
		idx[n] = i
	}
	mi, an, fi := idx[positive[0]], idx[positive[1]], idx[positive[2]]
	if dist[mi][an] != 1 || dist[an][fi] != 1 {
		t.Fatalf("expected unit distances along input order: %v %v", dist[mi][an], dist[an][fi])
	}
	// SOS reaches the first positive token directly.
	if dist[0][mi] != 1 {
		t.Fatalf("sos->miyazaki = %v", dist[0][mi])
	}
}

func TestATSPDistancesUnreachable(t *testing.T) {
	lex := nlp.NewLexicon()
	qs := annotate(lex, "alpha beta")
	g := Build(qs, nil, BuildOptions{})
	a, b := g.nodeOf("alpha"), g.nodeOf("beta")
	_, dist := g.ATSPDistances([]int{a, b})
	// beta -> alpha is against the unidirectional seq edge: unreachable.
	if dist[2][1] < 1e8 {
		t.Fatalf("reverse distance should be infinite-ish, got %v", dist[2][1])
	}
}
