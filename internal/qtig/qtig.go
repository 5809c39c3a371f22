// Package qtig builds the Query-Title Interaction Graph of §3.1
// (Algorithm 2): a token-merged graph over a query-doc cluster whose nodes
// are unique tokens and whose edges are bidirectional "seq" adjacency edges
// plus dependency edges, with a keep-first-edge rule that prefers adjacency
// over syntax and higher-weighted inputs over lower-weighted ones.
package qtig

import (
	"giant/internal/nlp"
)

// Relation identifiers for R-GCN. Forward and reverse directions of the same
// linguistic relation are distinct relation types (the paper draws reverse
// arrows with hollow pointers).
const (
	RelSeqFwd = 0 // next-token edge
	RelSeqRev = 1 // previous-token edge
	// Dependency relations occupy [2, 2+2*NumDepRel): forward at
	// 2+2*rel, reverse at 2+2*rel+1.
	relDepBase = 2
)

// NumRelations is the total relation vocabulary size for R-GCN.
const NumRelations = relDepBase + 2*nlp.NumDepRel

// DepRelFwd returns the forward relation id of a dependency label.
func DepRelFwd(r nlp.DepRel) int { return relDepBase + 2*int(r) }

// DepRelRev returns the reverse relation id of a dependency label.
func DepRelRev(r nlp.DepRel) int { return relDepBase + 2*int(r) + 1 }

// Node is one unique token in the graph.
type Node struct {
	Token nlp.Token
	SeqID int // order in which the node was added (a model feature)
	IsSOS bool
	IsEOS bool
}

// Edge is a directed labeled edge.
type Edge struct {
	Src, Dst int
	Rel      int
}

// Graph is a Query-Title Interaction Graph.
type Graph struct {
	Nodes []Node
	Edges []Edge
	SOS   int
	EOS   int

	index map[string]int
	// edgePresent dedupes by (src,dst) regardless of relation — Algorithm 2
	// keeps only the FIRST edge constructed between a token pair.
	edgePresent map[[2]int]bool
	// Inputs in insertion order (annotated), used by ATSP graph building.
	Inputs [][]nlp.Token
}

// BuildOptions control graph construction; the defaults follow the paper.
type BuildOptions struct {
	// KeepAllEdges disables the keep-first-edge rule (ablation: the paper
	// reports keep-first performs better than the full multigraph).
	KeepAllEdges bool
	// SkipDependencies drops dependency edges entirely (ablation).
	SkipDependencies bool
}

// Build constructs the QTIG from annotated queries and titles, which must be
// ordered by descending random-walk weight (queries first, then titles) so
// that the keep-first-edge rule prefers relations from higher-weighted text.
func Build(queries, titles [][]nlp.Token, opt BuildOptions) *Graph {
	g := &Graph{
		index:       make(map[string]int),
		edgePresent: make(map[[2]int]bool),
	}
	g.SOS = g.addNode(nlp.Token{Text: "<sos>", POS: nlp.PosOther}, true, false)
	g.EOS = g.addNode(nlp.Token{Text: "<eos>", POS: nlp.PosOther}, false, true)

	inputs := make([][]nlp.Token, 0, len(queries)+len(titles))
	inputs = append(inputs, queries...)
	inputs = append(inputs, titles...)
	g.Inputs = inputs

	// Pass 1 (Algorithm 2, lines 2-7): nodes and sequential edges.
	for _, text := range inputs {
		prev := g.SOS
		for _, tok := range text {
			cur := g.addNode(tok, false, false)
			g.addEdgePair(prev, cur, RelSeqFwd, RelSeqRev, opt)
			prev = cur
		}
		g.addEdgePair(prev, g.EOS, RelSeqFwd, RelSeqRev, opt)
	}

	// Pass 2 (lines 8-12): dependency edges.
	if !opt.SkipDependencies {
		for _, text := range inputs {
			arcs := nlp.ParseDeps(text)
			for _, a := range arcs {
				if a.Head < 0 {
					continue
				}
				src := g.nodeOf(text[a.Head].Text)
				dst := g.nodeOf(text[a.Dependent].Text)
				if src < 0 || dst < 0 || src == dst {
					continue
				}
				g.addEdgePair(src, dst, DepRelFwd(a.Rel), DepRelRev(a.Rel), opt)
			}
		}
	}
	return g
}

func (g *Graph) addNode(tok nlp.Token, sos, eos bool) int {
	if i, ok := g.index[tok.Text]; ok {
		return i
	}
	i := len(g.Nodes)
	g.Nodes = append(g.Nodes, Node{Token: tok, SeqID: i, IsSOS: sos, IsEOS: eos})
	g.index[tok.Text] = i
	return i
}

// nodeOf returns the node index for a token text, or -1.
func (g *Graph) nodeOf(text string) int {
	if i, ok := g.index[text]; ok {
		return i
	}
	return -1
}

// addEdgePair adds the bidirectional edge (src->dst rel, dst->src relRev),
// honouring the keep-first rule unless disabled.
func (g *Graph) addEdgePair(src, dst int, rel, relRev int, opt BuildOptions) {
	if src == dst {
		return
	}
	if !opt.KeepAllEdges {
		k := [2]int{src, dst}
		if g.edgePresent[k] || g.edgePresent[[2]int{dst, src}] {
			return
		}
		g.edgePresent[k] = true
		g.edgePresent[[2]int{dst, src}] = true
	}
	g.Edges = append(g.Edges, Edge{src, dst, rel}, Edge{dst, src, relRev})
}

// LabelNodes returns a 0/1 label per node: 1 when the node's token occurs in
// goldTokens. SOS/EOS are always 0. Used to build R-GCN training targets.
func (g *Graph) LabelNodes(goldTokens []string) []int {
	gold := make(map[string]bool, len(goldTokens))
	for _, t := range goldTokens {
		gold[t] = true
	}
	labels := make([]int, len(g.Nodes))
	for i, n := range g.Nodes {
		if !n.IsSOS && !n.IsEOS && gold[n.Token.Text] {
			labels[i] = 1
		}
	}
	return labels
}
