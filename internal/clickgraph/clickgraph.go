// Package clickgraph implements the bipartite search click graph of §3.1:
// queries on one side, documents on the other, edge weights equal to click
// counts. Its random walk over the transport probabilities of Eq. (1)–(2)
// turns a seed query into an ordered query-doc cluster for phrase mining.
package clickgraph

import (
	"slices"
	"sort"

	"giant/internal/nlp"
	"giant/internal/par"
)

// Graph is a weighted bipartite click graph. Zero value is not usable; call
// New.
type Graph struct {
	queries   []string
	queryIdx  map[string]int
	docTitles []string
	docIdx    map[int]int // external doc ID -> internal index
	docIDs    []int       // internal index -> external doc ID
	docDays   []int

	qEdges [][]edge // per query: edges to docs
	dEdges [][]edge // per doc: edges to queries

	qOut []float64 // total clicks per query
	dOut []float64 // total clicks per doc
}

type edge struct {
	to     int
	clicks float64
}

// New returns an empty click graph.
func New() *Graph {
	return &Graph{queryIdx: make(map[string]int), docIdx: make(map[int]int)}
}

// Add records clicks click-throughs from query to the document (docID,
// title). Repeated observations accumulate.
func (g *Graph) Add(query string, docID int, title string, clicks int, day int) {
	if clicks <= 0 {
		clicks = 1
	}
	qi, ok := g.queryIdx[query]
	if !ok {
		qi = len(g.queries)
		g.queryIdx[query] = qi
		g.queries = append(g.queries, query)
		g.qEdges = append(g.qEdges, nil)
		g.qOut = append(g.qOut, 0)
	}
	di, ok := g.docIdx[docID]
	if !ok {
		di = len(g.docTitles)
		g.docIdx[docID] = di
		g.docTitles = append(g.docTitles, title)
		g.docIDs = append(g.docIDs, docID)
		g.docDays = append(g.docDays, day)
		g.dEdges = append(g.dEdges, nil)
		g.dOut = append(g.dOut, 0)
	}
	c := float64(clicks)
	g.qEdges[qi] = addEdge(g.qEdges[qi], di, c)
	g.dEdges[di] = addEdge(g.dEdges[di], qi, c)
	g.qOut[qi] += c
	g.dOut[di] += c
}

func addEdge(es []edge, to int, c float64) []edge {
	for i := range es {
		if es[i].to == to {
			es[i].clicks += c
			return es
		}
	}
	return append(es, edge{to, c})
}

// NumQueries returns the number of distinct queries.
func (g *Graph) NumQueries() int { return len(g.queries) }

// Queries returns all distinct queries (shared slice; do not mutate).
func (g *Graph) Queries() []string { return g.queries }

// Weighted is a text item (query or title) with its random-walk visiting
// probability.
type Weighted struct {
	Text   string
	Weight float64
	DocID  int // external doc ID for titles; -1 for queries
	Day    int
}

// Cluster is a query-doc cluster: the seed query's correlated queries and
// document titles, each ordered by descending walk weight (§3.1:
// "the queries and documents are sorted by the weights calculated during the
// random walk").
type Cluster struct {
	Seed    string
	Queries []Weighted
	Titles  []Weighted
}

// WalkConfig tunes the random-walk clustering.
type WalkConfig struct {
	Steps     int     // power-iteration steps of the two-hop walk
	Threshold float64 // δv: minimum visiting probability to keep a node
	MaxItems  int     // cap on queries/titles kept per cluster
}

// DefaultWalkConfig mirrors the paper's behaviour at laptop scale.
func DefaultWalkConfig() WalkConfig {
	return WalkConfig{Steps: 3, Threshold: 0.02, MaxItems: 8}
}

// ClusterFor runs the random walk from seed and returns its cluster, or
// ok=false if the seed query is unknown. The walk is computed exactly by
// power iteration over the transport probabilities (no sampling), and every
// frontier is visited in ascending node index, so the walkers meeting on a
// node always sum their contributions in the same order: two walks of one
// seed are identical to the last bit.
func (g *Graph) ClusterFor(seed string, cfg WalkConfig) (Cluster, bool) {
	qi, ok := g.queryIdx[seed]
	if !ok {
		return Cluster{}, false
	}
	qProb := map[int]float64{qi: 1}
	dProb := map[int]float64{}
	var keys []int
	for s := 0; s < cfg.Steps; s++ {
		// Query -> doc hop, Eq. (1): P(d|q) = c(q,d) / Σ_k c(q,k).
		nd := map[int]float64{}
		keys = sortedKeys(keys, qProb)
		for _, q := range keys {
			if g.qOut[q] == 0 {
				continue
			}
			p := qProb[q]
			for _, e := range g.qEdges[q] {
				nd[e.to] += p * e.clicks / g.qOut[q]
			}
		}
		// Doc -> query hop, Eq. (2): P(q|d) = c(q,d) / Σ_k c(k,d).
		nq := map[int]float64{}
		keys = sortedKeys(keys, nd)
		for _, d := range keys {
			p := nd[d]
			dProb[d] += p
			if g.dOut[d] == 0 {
				continue
			}
			for _, e := range g.dEdges[d] {
				nq[e.to] += p * e.clicks / g.dOut[d]
			}
		}
		qProb = nq
		qProb[qi] += 0.0 // keep seed key present
	}
	// Accumulate final query visiting probabilities (seed always kept).
	qProb[qi] += 1

	// sortWeighted is a total order (query texts and doc IDs are unique),
	// so the collection below may range the maps in any order.
	cl := Cluster{Seed: seed}
	for q, p := range qProb {
		if q != qi && p < cfg.Threshold {
			continue
		}
		// §3.1: keep a visited query only if it shares more than half of the
		// seed's non-stop words.
		if q != qi && !sharesMajorityNonStop(seed, g.queries[q]) {
			continue
		}
		cl.Queries = append(cl.Queries, Weighted{Text: g.queries[q], Weight: p, DocID: -1})
	}
	for d, p := range dProb {
		if p < cfg.Threshold {
			continue
		}
		cl.Titles = append(cl.Titles, Weighted{Text: g.docTitles[d], Weight: p, DocID: g.docIDs[d], Day: g.docDays[d]})
	}
	sortWeighted(cl.Queries)
	sortWeighted(cl.Titles)
	if cfg.MaxItems > 0 {
		if len(cl.Queries) > cfg.MaxItems {
			cl.Queries = cl.Queries[:cfg.MaxItems]
		}
		if len(cl.Titles) > cfg.MaxItems {
			cl.Titles = cl.Titles[:cfg.MaxItems]
		}
	}
	return cl, true
}

// ClustersN enumerates a cluster for every distinct query, with the
// per-seed random walks fanned out over up to workers goroutines. The graph
// is only read, so any concurrency is safe, and results are assembled in
// query-insertion order — the output is identical for every worker count.
func (g *Graph) ClustersN(cfg WalkConfig, workers int) []Cluster {
	type slot struct {
		c  Cluster
		ok bool
	}
	slots := make([]slot, len(g.queries))
	par.ForEachIndexed(workers, len(g.queries), func(i int) {
		slots[i].c, slots[i].ok = g.ClusterFor(g.queries[i], cfg)
	})
	out := make([]Cluster, 0, len(g.queries))
	for i := range slots {
		if slots[i].ok {
			out = append(out, slots[i].c)
		}
	}
	return out
}

// sortedKeys lists a walk vector's node indexes in ascending order,
// reusing buf's storage.
func sortedKeys(buf []int, m map[int]float64) []int {
	keys := buf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// sortWeighted orders by descending weight, then text, then doc ID (two
// documents may share a title), so no two items ever tie.
func sortWeighted(ws []Weighted) {
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].Weight != ws[j].Weight {
			return ws[i].Weight > ws[j].Weight
		}
		if ws[i].Text != ws[j].Text {
			return ws[i].Text < ws[j].Text
		}
		return ws[i].DocID < ws[j].DocID
	})
}

func sharesMajorityNonStop(seed, other string) bool {
	st := map[string]bool{}
	n := 0
	for _, t := range nlp.Tokenize(seed) {
		if !nlp.IsStopWord(t) {
			st[t] = true
			n++
		}
	}
	if n == 0 {
		return true
	}
	hit := 0
	seen := map[string]bool{}
	for _, t := range nlp.Tokenize(other) {
		if st[t] && !seen[t] {
			hit++
			seen[t] = true
		}
	}
	return hit*2 > n
}

// TopTitlesFor returns up to k clicked titles for a query, by click count —
// the "context-enriched representation" source for phrase normalization.
func (g *Graph) TopTitlesFor(query string, k int) []string {
	qi, ok := g.queryIdx[query]
	if !ok {
		return nil
	}
	es := append([]edge(nil), g.qEdges[qi]...)
	sort.Slice(es, func(i, j int) bool { return es[i].clicks > es[j].clicks })
	if len(es) > k {
		es = es[:k]
	}
	out := make([]string, 0, len(es))
	for _, e := range es {
		out = append(out, g.docTitles[e.to])
	}
	return out
}

// DocsForQuery returns the external IDs of every document the query has
// clicks into, in edge-insertion order.
func (g *Graph) DocsForQuery(query string) []int {
	qi, ok := g.queryIdx[query]
	if !ok {
		return nil
	}
	out := make([]int, 0, len(g.qEdges[qi]))
	for _, e := range g.qEdges[qi] {
		out = append(out, g.docIDs[e.to])
	}
	return out
}

// QueriesForDoc returns every query with clicks into the document (by
// external doc ID), in edge-insertion order.
func (g *Graph) QueriesForDoc(docID int) []string {
	di, ok := g.docIdx[docID]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(g.dEdges[di]))
	for _, e := range g.dEdges[di] {
		out = append(out, g.queries[e.to])
	}
	return out
}

// AffectedQueries computes the set of seed queries whose random-walk
// cluster could change after new click edges touch the given queries and
// documents: a breadth-first expansion of hops query→doc→query rounds
// around the changed region (one round per walk step, since each
// power-iteration step moves probability mass exactly one query hop). The
// result is sorted, so incremental re-mining is deterministic.
func (g *Graph) AffectedQueries(queries []string, docIDs []int, hops int) []string {
	seen := map[string]bool{}
	frontier := make([]string, 0, len(queries))
	add := func(q string) {
		if !seen[q] {
			seen[q] = true
			frontier = append(frontier, q)
		}
	}
	for _, q := range queries {
		if _, ok := g.queryIdx[q]; ok {
			add(q)
		}
	}
	for _, d := range docIDs {
		for _, q := range g.QueriesForDoc(d) {
			add(q)
		}
	}
	for h := 0; h < hops; h++ {
		next := frontier
		frontier = nil
		for _, q := range next {
			for _, d := range g.DocsForQuery(q) {
				for _, nq := range g.QueriesForDoc(d) {
					add(nq)
				}
			}
		}
		if len(frontier) == 0 {
			break
		}
	}
	out := make([]string, 0, len(seen))
	for q := range seen {
		out = append(out, q)
	}
	sort.Strings(out)
	return out
}
