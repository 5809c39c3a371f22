package core

import (
	"runtime"
	"sort"
	"sync"

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
//
// A Miner remembers, per seed query, the cluster text it last ran GCTSP-Net
// over and what came out, and skips inference for a cluster that comes back
// with exactly that text (see mineClusters). Mining the same clusters twice
// therefore costs the walks and the normalization, not the inference, and a
// replica re-applying a replicated batch pays for the clusters the batch
// actually changed — while every result stays what a Miner created on the
// spot would return. Phrase, Keys and Lex may be swapped or retrained between
// calls (the memo is dropped), not during one.
type Miner struct {
	Phrase *Model // 2-class phrase extractor
	Keys   *Model // 4-class key-element recognizer
	Lex    *nlp.Lexicon
	// MergeThreshold is δm for normalization (TF-IDF context similarity).
	MergeThreshold float64
	Walk           clickgraph.WalkConfig
	// Parallelism bounds the worker pool that mines clusters; <= 0 means
	// runtime.GOMAXPROCS(0). Any value yields byte-identical output: the
	// per-cluster work is spread over the pool, candidates are merged in
	// seed-query order, and normalization stays a single deterministic pass.
	Parallelism int

	// The per-seed memo of extract (see mineClusters). memoMu guards it and
	// the counters against concurrent Mine* callers; the workers of one
	// call never touch them.
	memoMu          sync.Mutex
	memoStamp       memoStamp
	memo            map[string]*memoSlot
	reused, remined uint64
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

// extraction is the part of a mined cluster that depends on nothing but the
// cluster's ordered query and title texts (under frozen models and lexicon):
// the GCTSP-Net phrase and, for events, the key elements. Phrase is "" when
// the cluster yields no phrase.
type extraction struct {
	Phrase   string
	IsEvent  bool
	Entities []string
	Trigger  string
	Location string
}

// memoSlot is what a seed's cluster was last mined from and what came out.
// It is immutable once extract has built it. queries and titles hold string
// headers only — the bytes are the click graph's own.
type memoSlot struct {
	queries, titles []string
	ext             extraction
}

// matches reports whether cl carries exactly the text the slot was mined
// from, string by string and in order.
func (s *memoSlot) matches(cl *clickgraph.Cluster) bool {
	if len(s.queries) != len(cl.Queries) || len(s.titles) != len(cl.Titles) {
		return false
	}
	for i := range cl.Queries {
		if s.queries[i] != cl.Queries[i].Text {
			return false
		}
	}
	for i := range cl.Titles {
		if s.titles[i] != cl.Titles[i].Text {
			return false
		}
	}
	return true
}

// memoStamp names everything extract reads besides the cluster text: which
// models and lexicon, and how often each has changed. Slots are valid only
// under the stamp they were stored with.
type memoStamp struct {
	phrase, keys           *Model
	lex                    *nlp.Lexicon
	phraseEpoch, keysEpoch modelEpoch
	lexEdits               int
}

func (m *Miner) stamp() memoStamp {
	st := memoStamp{phrase: m.Phrase, keys: m.Keys, lex: m.Lex, phraseEpoch: m.Phrase.epoch(), lexEdits: m.Lex.Edits()}
	if m.Keys != nil {
		st.keysEpoch = m.Keys.epoch()
	}
	return st
}

// MemoStats returns how many clusters the miner has so far answered from its
// memo (reused) and how many it ran GCTSP-Net inference for (remined).
func (m *Miner) MemoStats() (reused, remined uint64) {
	m.memoMu.Lock()
	defer m.memoMu.Unlock()
	return m.reused, m.remined
}

// lookup sets slots[i] for every cluster whose text is unchanged since its
// seed was last mined and returns the indices of the rest. If a model or the
// lexicon was swapped, retrained or edited since the last call, every slot
// is dropped first.
func (m *Miner) lookup(clusters []clickgraph.Cluster, slots []*memoSlot) (misses []int) {
	m.memoMu.Lock()
	defer m.memoMu.Unlock()
	if st := m.stamp(); m.memo == nil || m.memoStamp != st {
		m.memoStamp, m.memo = st, make(map[string]*memoSlot)
	}
	for i := range clusters {
		if s := m.memo[clusters[i].Seed]; s != nil && s.matches(&clusters[i]) {
			slots[i] = s
		} else {
			misses = append(misses, i)
		}
	}
	m.reused += uint64(len(clusters) - len(misses))
	m.remined += uint64(len(misses))
	return misses
}

// store keeps the freshly mined slots, one per seed: a seed's previous slot
// is replaced, so the memo never holds more entries than the click graph
// has queries.
func (m *Miner) store(clusters []clickgraph.Cluster, slots []*memoSlot, misses []int) {
	m.memoMu.Lock()
	defer m.memoMu.Unlock()
	for _, i := range misses {
		m.memo[clusters[i].Seed] = slots[i]
	}
}

// extract runs GCTSP-Net over one cluster's text: phrase extraction, then
// concept/event classification and key-element recognition. It only reads
// shared state (trained models, lexicon), so the miner can spread clusters
// over its workers freely.
func (m *Miner) extract(cl *clickgraph.Cluster) *memoSlot {
	s := &memoSlot{
		queries: make([]string, len(cl.Queries)),
		titles:  make([]string, len(cl.Titles)),
	}
	for i := range cl.Queries {
		s.queries[i] = cl.Queries[i].Text
	}
	for i := range cl.Titles {
		s.titles[i] = cl.Titles[i].Text
	}
	if len(s.queries) == 0 || len(s.titles) == 0 {
		return s
	}
	// The cluster is annotated and featurized once; the key-element pass of
	// an event cluster reads the same input.
	qg, data := m.Phrase.input(s.queries, s.titles)
	s.ext.Phrase = m.Phrase.phraseFrom(qg, data)
	if s.ext.Phrase != "" {
		m.classify(&s.ext, s.queries, s.titles, qg, data)
	}
	return s
}

// candFrom joins an extraction with what is read from the live cluster on
// every call: its members, doc IDs, day and normalization context. The
// caller owns the result, so nothing in it shares a slice with a memo slot.
func candFrom(g *clickgraph.Graph, cl *clickgraph.Cluster, ext *extraction) cand {
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
	return cand{
		mined: Mined{
			Phrase: ext.Phrase, IsEvent: ext.IsEvent, Seed: cl.Seed, Day: day,
			Entities: append([]string(nil), ext.Entities...),
			Trigger:  ext.Trigger, Location: ext.Location,
			Queries: queries, Titles: titles, DocIDs: docIDs,
		},
		ctx: g.TopTitlesFor(cl.Seed, 5),
	}
}

// mineClusters runs the per-cluster portion of Algorithm 1 and merges the
// results into a deterministic order (sorted by seed query — seeds are unique
// per cluster, so the order is total and independent of scheduling).
//
// GCTSP-Net inference is memoized per seed: a cluster whose query and title
// texts all compare equal to the ones its seed was last mined from reuses
// that result, and only the rest fan out over the worker pool. The memo is
// read and written on the calling goroutine around the fan-out, so workers
// share nothing and the output is the same for every pool size — and, the
// memoized stage being a pure function of the text, the same as that of a
// miner that never saw the seed.
func (m *Miner) mineClusters(g *clickgraph.Graph, clusters []clickgraph.Cluster) []cand {
	slots := make([]*memoSlot, len(clusters))
	misses := m.lookup(clusters, slots)
	par.ForEachIndexed(m.workers(), len(misses), func(k int) {
		slots[misses[k]] = m.extract(&clusters[misses[k]])
	})
	m.store(clusters, slots, misses)

	cands := make([]cand, 0, len(clusters))
	for i := range clusters {
		if slots[i].ext.Phrase != "" {
			cands = append(cands, candFrom(g, &clusters[i], &slots[i].ext))
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].mined.Seed < cands[j].mined.Seed })
	return cands
}

// Mine runs the pipeline over every query cluster in the click graph and
// returns deduplicated attention phrases. The cluster walks and the
// per-cluster GCTSP-Net inference are spread over a pool of
// Miner.Parallelism workers; the output is identical for every pool size.
func (m *Miner) Mine(g *clickgraph.Graph) []Mined {
	clusters := g.ClustersN(m.Walk, m.workers())
	return m.normalize(m.mineClusters(g, clusters))
}

// clustersFor walks the given seeds on the worker pool and returns their
// clusters in the seeds' order, skipping seeds the graph does not know.
func (m *Miner) clustersFor(g *clickgraph.Graph, seeds []string) []clickgraph.Cluster {
	slots := make([]*clickgraph.Cluster, len(seeds))
	par.ForEachIndexed(m.workers(), len(seeds), func(i int) {
		if cl, ok := g.ClusterFor(seeds[i], m.Walk); ok {
			slots[i] = &cl
		}
	})
	clusters := make([]clickgraph.Cluster, 0, len(seeds))
	for _, s := range slots {
		if s != nil {
			clusters = append(clusters, *s)
		}
	}
	return clusters
}

// MineSeeds runs the same pipeline restricted to the clusters of the given
// seed queries — the incremental path: after a batch of new click edges,
// only the affected neighbourhood (see clickgraph.AffectedQueries) needs
// re-mining, and within it only the clusters whose text the batch changed
// run inference again. Unknown seeds are skipped. Normalization is batch-local:
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
	return m.normalize(m.mineClusters(g, m.clustersFor(g, uniq)))
}

// normalize runs phrase normalization over seed-ordered candidates and
// merges near-duplicates into canonical Mined entries.
func (m *Miner) normalize(cands []cand) []Mined {
	// Normalization: a single deterministic pass over the seed-ordered
	// candidates. Observe feeds every context into the TF-IDF statistics
	// (commutative) before any Add decides merges.
	norm := phrase.NewNormalizer(m.MergeThreshold)
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

// classify decides concept-vs-event for an extracted phrase and, for events,
// recognizes key elements with the 4-class model. A phrase is an event when
// it contains a non-stop verb (trigger) — concepts are noun phrases. g and
// data are the cluster input the phrase model prepared; the key-element
// model reuses it unless it is configured to prepare clusters differently.
func (m *Miner) classify(ext *extraction, queries, titles []string, g *qtig.Graph, data *rgcn.GraphData) {
	toks := m.Lex.Annotate(ext.Phrase)
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
	ext.IsEvent = true
	if m.Keys == nil {
		return
	}
	if !m.Keys.sharesInput(m.Phrase) {
		g, data = m.Keys.input(queries, titles)
	}
	classes := m.Keys.keyElementsFrom(g, data)
	seenEnt := map[string]bool{}
	var locToks []string
	for _, t := range toks {
		switch classes[t.Text] {
		case synth.KeyEntity:
			if !seenEnt[t.Text] {
				seenEnt[t.Text] = true
				ext.Entities = append(ext.Entities, t.Text)
			}
		case synth.KeyTrigger:
			if ext.Trigger == "" {
				ext.Trigger = t.Text
			}
		case synth.KeyLocation:
			locToks = append(locToks, t.Text)
		}
	}
	if len(locToks) > 0 {
		ext.Location = nlp.JoinTokens(locToks)
	}
}
