package core

import (
	"runtime"
	"sort"

	"giant/internal/clickgraph"
	"giant/internal/nlp"
	"giant/internal/par"
	"giant/internal/phrase"
	"giant/internal/qtig"
	"giant/internal/rgcn"
	"giant/internal/synth"
)

// Mined is one attention phrase mined from the click graph (Algorithm 1
// output), before ontology assembly.
type Mined struct {
	Phrase  string
	Aliases []string
	IsEvent bool
	Seed    string // the seed query of the cluster
	Day     int    // earliest doc day in the cluster (event time proxy)

	// Event attributes recognized by the 4-class model.
	Entities []string
	Trigger  string
	Location string

	Queries []string
	Titles  []string
	DocIDs  []int
}

// Miner runs Algorithm 1: random-walk clustering, GCTSP-Net phrase
// extraction, key-element recognition and phrase normalization.
type Miner struct {
	Phrase *Model // 2-class phrase extractor
	Keys   *Model // 4-class key-element recognizer
	Lex    *nlp.Lexicon
	// MergeThreshold is δm for normalization (TF-IDF context similarity).
	MergeThreshold float64
	Walk           clickgraph.WalkConfig
	// Parallelism bounds the worker pool that mines clusters; <= 0 means
	// runtime.GOMAXPROCS(0). Any value yields byte-identical output: the
	// per-cluster work is sharded, candidates are merged in seed-query order,
	// and normalization stays a single deterministic pass.
	Parallelism int
}

// NewMiner wires a trained phrase model and key-element model.
func NewMiner(phraseModel, keyModel *Model, lex *nlp.Lexicon) *Miner {
	walk := clickgraph.DefaultWalkConfig()
	// Keep cluster sizes in the range the node classifier was trained on
	// (the CMD/EMD examples carry 2-4 queries and 2-4 titles); larger
	// clusters shift the feature distribution and hurt precision.
	walk.MaxItems = 4
	return &Miner{
		Phrase:         phraseModel,
		Keys:           keyModel,
		Lex:            lex,
		MergeThreshold: 0.35,
		Walk:           walk,
	}
}

// workers resolves the effective worker-pool size.
func (m *Miner) workers() int {
	if m.Parallelism > 0 {
		return m.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// cand is one mined candidate with its normalization context.
type cand struct {
	mined Mined
	ctx   []string
}

// mineCluster runs the per-cluster portion of Algorithm 1 — phrase
// extraction, concept/event classification, context collection — and returns
// nil when the cluster yields no phrase. It only reads shared state (trained
// models, lexicon, click graph), so the miner can shard clusters freely.
func (m *Miner) mineCluster(g *clickgraph.Graph, cl *clickgraph.Cluster) *cand {
	queries := make([]string, 0, len(cl.Queries))
	for _, q := range cl.Queries {
		queries = append(queries, q.Text)
	}
	titles := make([]string, 0, len(cl.Titles))
	docIDs := make([]int, 0, len(cl.Titles))
	day := -1
	for _, t := range cl.Titles {
		titles = append(titles, t.Text)
		docIDs = append(docIDs, t.DocID)
		if day == -1 || t.Day < day {
			day = t.Day
		}
	}
	if len(queries) == 0 || len(titles) == 0 {
		return nil
	}
	// The cluster is annotated and featurized once; the key-element pass of
	// an event cluster reads the same input.
	qg, data := m.Phrase.input(queries, titles)
	p := m.Phrase.phraseFrom(qg, data)
	if p == "" {
		return nil
	}
	mined := Mined{
		Phrase: p, Seed: cl.Seed, Day: day,
		Queries: queries, Titles: titles, DocIDs: docIDs,
	}
	m.classify(&mined, qg, data)
	return &cand{mined, g.TopTitlesFor(cl.Seed, 5)}
}

// mineClusters fans the clusters out over the worker pool and merges the
// results into a deterministic order (sorted by seed query — seeds are unique
// per cluster, so the order is total and independent of scheduling).
func (m *Miner) mineClusters(g *clickgraph.Graph, clusters []clickgraph.Cluster) []cand {
	results := make([]*cand, len(clusters))
	par.ForEachIndexed(m.workers(), len(clusters), func(i int) {
		results[i] = m.mineCluster(g, &clusters[i])
	})
	cands := make([]cand, 0, len(clusters))
	for _, r := range results {
		if r != nil {
			cands = append(cands, *r)
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].mined.Seed < cands[j].mined.Seed })
	return cands
}

// Mine runs the pipeline over every query cluster in the click graph and
// returns deduplicated attention phrases. The cluster walks and the
// per-cluster GCTSP-Net inference are sharded over a pool of
// Miner.Parallelism workers; the output is identical for every pool size.
func (m *Miner) Mine(g *clickgraph.Graph) []Mined {
	clusters := g.ClustersN(m.Walk, m.workers())
	return m.normalize(m.mineClusters(g, clusters))
}

// MineSharded runs Algorithm 1 with the cluster walks and per-cluster
// inference partitioned by a click-graph shard assignment: each shard's
// queries are walked and mined as a contiguous block of the worker pool's
// work list. Because connected clusters never straddle shards, the cluster
// set is exactly Mine's; candidates still merge in seed order and
// normalization stays a single global pass, so the output is identical to
// Mine for every shard assignment (sharding changes scheduling, never
// results).
func (m *Miner) MineSharded(g *clickgraph.Graph, sh *clickgraph.Sharding) []Mined {
	if sh == nil || sh.K() <= 1 {
		return m.Mine(g)
	}
	var ordered []string
	for _, qs := range sh.QueriesOf(g.Queries()) {
		ordered = append(ordered, qs...)
	}
	slots := make([]*clickgraph.Cluster, len(ordered))
	par.ForEachIndexed(m.workers(), len(ordered), func(i int) {
		if cl, ok := g.ClusterFor(ordered[i], m.Walk); ok {
			slots[i] = &cl
		}
	})
	clusters := make([]clickgraph.Cluster, 0, len(ordered))
	for _, s := range slots {
		if s != nil {
			clusters = append(clusters, *s)
		}
	}
	return m.normalize(m.mineClusters(g, clusters))
}

// MineSeeds runs the same pipeline restricted to the clusters of the given
// seed queries — the incremental path: after a batch of new click edges,
// only the affected neighbourhood (see clickgraph.AffectedQueries) needs
// re-mining. Unknown seeds are skipped. Normalization is batch-local:
// near-duplicate merging happens within the returned set, while merging
// against already-published attention nodes is the delta layer's job
// (alias lookups against the current snapshot).
func (m *Miner) MineSeeds(g *clickgraph.Graph, seeds []string) []Mined {
	ordered := append([]string(nil), seeds...)
	sort.Strings(ordered)
	// Drop duplicate seeds so repeated inputs cannot double-mine a cluster.
	uniq := ordered[:0]
	for i, s := range ordered {
		if i == 0 || s != ordered[i-1] {
			uniq = append(uniq, s)
		}
	}
	ordered = uniq
	clusters := make([]clickgraph.Cluster, 0, len(ordered))
	slots := make([]*clickgraph.Cluster, len(ordered))
	par.ForEachIndexed(m.workers(), len(ordered), func(i int) {
		if cl, ok := g.ClusterFor(ordered[i], m.Walk); ok {
			slots[i] = &cl
		}
	})
	for _, s := range slots {
		if s != nil {
			clusters = append(clusters, *s)
		}
	}
	return m.normalize(m.mineClusters(g, clusters))
}

// normalize runs phrase normalization over seed-ordered candidates and
// merges near-duplicates into canonical Mined entries.
func (m *Miner) normalize(cands []cand) []Mined {
	// Normalization: a single deterministic pass over the seed-ordered
	// candidates. Observe feeds every context into the TF-IDF statistics
	// (commutative) before any Add decides merges.
	norm := phrase.NewNormalizer(m.Lex, m.MergeThreshold)
	for i := range cands {
		norm.Observe(cands[i].mined.Phrase, cands[i].ctx)
	}

	// Merge near-duplicates into canonical nodes.
	byCanon := map[string]*Mined{}
	var order []string
	for i := range cands {
		c := &cands[i]
		canonical, merged := norm.Add(c.mined.Phrase, c.ctx)
		if existing, ok := byCanon[canonical]; ok && merged {
			if c.mined.Phrase != canonical {
				existing.Aliases = append(existing.Aliases, c.mined.Phrase)
			}
			if c.mined.Day >= 0 && (existing.Day < 0 || c.mined.Day < existing.Day) {
				existing.Day = c.mined.Day
			}
			continue
		}
		mc := c.mined
		byCanon[canonical] = &mc
		order = append(order, canonical)
	}
	out := make([]Mined, 0, len(order))
	for _, k := range order {
		out = append(out, *byCanon[k])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Phrase < out[j].Phrase })
	return out
}

// classify decides concept-vs-event for a mined phrase and, for events,
// recognizes key elements with the 4-class model. A phrase is an event when
// it contains a non-stop verb (trigger) — concepts are noun phrases. g and
// data are the cluster input the phrase model prepared; the key-element
// model reuses it unless it is configured to prepare clusters differently.
func (m *Miner) classify(mined *Mined, g *qtig.Graph, data *rgcn.GraphData) {
	toks := m.Lex.Annotate(mined.Phrase)
	hasVerb := false
	for _, t := range toks {
		if t.POS == nlp.PosVerb && !t.Stop {
			hasVerb = true
			break
		}
	}
	if !hasVerb {
		return
	}
	mined.IsEvent = true
	if m.Keys == nil {
		return
	}
	if !m.Keys.sharesInput(m.Phrase) {
		g, data = m.Keys.input(mined.Queries, mined.Titles)
	}
	classes := m.Keys.keyElementsFrom(g, data)
	seenEnt := map[string]bool{}
	var locToks []string
	for _, t := range toks {
		switch classes[t.Text] {
		case synth.KeyEntity:
			if !seenEnt[t.Text] {
				seenEnt[t.Text] = true
				mined.Entities = append(mined.Entities, t.Text)
			}
		case synth.KeyTrigger:
			if mined.Trigger == "" {
				mined.Trigger = t.Text
			}
		case synth.KeyLocation:
			locToks = append(locToks, t.Text)
		}
	}
	if len(locToks) > 0 {
		mined.Location = nlp.JoinTokens(locToks)
	}
}
