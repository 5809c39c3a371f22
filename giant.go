// Package giant is the public facade of this reproduction of "GIANT:
// Scalable Creation of a Web-scale Ontology" (SIGMOD 2020). It wires the
// full pipeline end to end: generate (or ingest) a search click log, train
// GCTSP-Net on automatically constructed datasets, mine attention phrases
// from the click graph (Algorithm 1), link them into the Attention Ontology
// (§3.2), and expose the applications of §4 — document tagging, story-tree
// formation and query understanding.
//
// Quick start:
//
//	sys, err := giant.Build(giant.DefaultConfig())
//	...
//	stats := sys.Snapshot().ComputeStats()
//	tags := sys.ConceptTagger().TagConcepts(&tagging.Document{...})
//
// For online serving, System.Snapshot freezes the built ontology into an
// immutable, lock-free ontology.Snapshot that internal/serve (and the
// giantd command) expose over HTTP; see docs/ARCHITECTURE.md for the
// offline-build vs. online-serve dataflow.
package giant

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"giant/internal/clickgraph"
	"giant/internal/core"
	"giant/internal/delta"
	"giant/internal/linking"
	"giant/internal/nlp"
	"giant/internal/ontology"
	"giant/internal/par"
	"giant/internal/phrase"
	"giant/internal/queryund"
	"giant/internal/storytree"
	"giant/internal/synth"
	"giant/internal/tagging"
)

// Config controls the end-to-end build.
type Config struct {
	World synth.Config
	Log   synth.LogConfig
	// TrainConcepts / TrainEvents are dataset sizes for GCTSP-Net training.
	TrainConcepts int
	TrainEvents   int
	GCTSP         core.Options
	// CategoryDelta is δg for attention-category isA edges (paper 0.3).
	CategoryDelta float64
	// SuffixMinFreq is the CSD support threshold.
	SuffixMinFreq int
	// PatternMinFreq / PatternMinSearch are the CPD thresholds.
	PatternMinFreq   int
	PatternMinSearch int
	Seed             int64
	// Parallelism bounds the worker pools used by the training and mining
	// stages; <= 0 means runtime.GOMAXPROCS(0). The built ontology is
	// identical for every value — the workers' results are merged in a
	// deterministic order before anything is committed.
	Parallelism int
	// Update is the incremental-maintenance policy (per-type TTL decay and
	// linking thresholds) applied by System.Ingest. Zero-valued threshold
	// fields fall back to this config's batch thresholds.
	Update delta.Policy
}

// parallelism resolves the effective worker count.
func (c Config) parallelism() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultConfig is a laptop-scale end-to-end configuration.
func DefaultConfig() Config {
	return Config{
		World:            synth.DefaultConfig(),
		Log:              synth.DefaultLogConfig(),
		TrainConcepts:    240,
		TrainEvents:      200,
		GCTSP:            core.Options{Epochs: 6, Fallback: true},
		CategoryDelta:    0.3,
		SuffixMinFreq:    3,
		PatternMinFreq:   2,
		PatternMinSearch: 2,
		Seed:             42,
		Update:           delta.DefaultPolicy(),
	}
}

// TinyConfig is a fast configuration for tests.
func TinyConfig() Config {
	cfg := DefaultConfig()
	cfg.World = synth.TinyConfig()
	cfg.Log = synth.LogConfig{Seed: 5, QueriesPerAspect: 3, DocsPerAspect: 3, MaxClicks: 20, NumSessions: 80}
	cfg.TrainConcepts = 40
	cfg.TrainEvents = 40
	cfg.GCTSP = core.Options{Epochs: 4, Layers: 3, Fallback: true}
	return cfg
}

// System is a fully built GIANT instance.
type System struct {
	Cfg      Config
	World    *synth.World
	Log      *synth.Log
	Click    *clickgraph.Graph
	Miner    *core.Miner
	Mined    []core.Mined
	Ontology *ontology.Ontology
	CEClf    *linking.CEClassifier
	Embedder *linking.EntityEmbedder

	conceptContext map[string][]string // concept phrase -> top titles
	knownMined     map[string]bool     // phrases Mined holds a record for (see knownMinedLocked)
	ingestMu       sync.Mutex          // serializes System.Ingest/IngestShared

	// Checkpoint baseline: corpus/click-stream high-water marks at the end
	// of the deterministic seed build. Everything at or below them is
	// reproducible by re-running Build with the same Config, so
	// CheckpointState ships only the suffix past them (see checkpoint.go).
	seedDocs int
	seedRecs int
}

// Build runs the whole pipeline.
func Build(cfg Config) (*System, error) {
	return BuildUpToDay(cfg, -1)
}

// BuildUpToDay is Build with the click stream truncated: only click
// records with Day <= day reach the click graph and the mining stage
// (day < 0 means all). The generated world, document corpus and session
// stream are untouched — they model the pre-existing knowledge the
// pipeline links against. Later days arrive incrementally through
// System.Ingest, which is how the delta-vs-full-rebuild equivalence tests
// replay a corpus batch by batch.
func BuildUpToDay(cfg Config, day int) (*System, error) {
	sys := &System{Cfg: cfg}
	sys.World = synth.GenWorld(cfg.World)
	sys.Log = sys.World.GenerateLog(cfg.Log)
	if day >= 0 {
		kept := make([]synth.Record, 0, len(sys.Log.Records))
		for _, r := range sys.Log.Records {
			if r.Day <= day {
				kept = append(kept, r)
			}
		}
		sys.Log.Records = kept
	}

	// Click graph.
	sys.Click = clickgraph.New()
	for _, r := range sys.Log.Records {
		doc := sys.Log.Docs[r.DocID]
		sys.Click.Add(r.Query, r.DocID, doc.Title, r.Clicks, r.Day)
	}

	// GCTSP-Net training on automatically constructed datasets. The phrase
	// extractor and the key-element recognizer are independent models over
	// independent datasets, so the two training runs — the pipeline's
	// dominant cost — proceed concurrently; each run is itself sequential
	// and seeded, so the trained weights are identical for any Parallelism.
	lex := sys.World.Lexicon
	conceptTrain := sys.World.ConceptExamples(cfg.TrainConcepts, cfg.Seed+1)
	eventTrain := sys.World.EventExamples(cfg.TrainEvents, cfg.Seed+2)
	phraseModel := core.NewPhraseModel(lex, cfg.GCTSP)
	keyModel := core.NewKeyElementModel(lex, cfg.GCTSP)
	if err := par.RunStages(cfg.parallelism(),
		func() error {
			phraseModel.Train(append(append([]synth.MiningExample{}, conceptTrain...), eventTrain...))
			return nil
		},
		func() error { keyModel.Train(eventTrain); return nil },
	); err != nil {
		return nil, fmt.Errorf("giant: train GCTSP-Net: %w", err)
	}
	sys.Miner = core.NewMiner(phraseModel, keyModel, lex)
	sys.Miner.Parallelism = cfg.parallelism()

	// Algorithm 1: mine attentions.
	sys.Mined = sys.Miner.Mine(sys.Click)

	// Assemble ontology.
	if err := sys.assemble(); err != nil {
		return nil, fmt.Errorf("giant: assemble ontology: %w", err)
	}
	sys.seedDocs = len(sys.Log.Docs)
	sys.seedRecs = len(sys.Log.Records)
	return sys, nil
}

// assemble builds the Attention Ontology from the mined attentions (§3.2).
func (sys *System) assemble() error {
	o := ontology.New()
	cfg := sys.Cfg
	w := sys.World

	// Categories: the pre-defined hierarchy.
	catSpecs := make([]ontology.NodeSpec, len(w.Categories))
	for i, c := range w.Categories {
		catSpecs[i] = ontology.NodeSpec{Type: ontology.Category, Phrase: c.Name}
	}
	catNode := o.AddNodes(catSpecs)
	catEdgeBatch := make([]ontology.Edge, 0, len(w.Categories))
	for i, c := range w.Categories {
		if c.Parent >= 0 {
			catEdgeBatch = append(catEdgeBatch, ontology.Edge{Src: catNode[c.Parent], Dst: catNode[i], Type: ontology.IsA, Weight: 1})
		}
	}
	if err := o.AddEdges(catEdgeBatch); err != nil {
		return err
	}
	// Entities: the pre-existing knowledge-base inventory (the paper links
	// against an existing entity catalogue; here the generative world plays
	// that role).
	entSpecs := make([]ontology.NodeSpec, len(w.Entities))
	for i, e := range w.Entities {
		entSpecs[i] = ontology.NodeSpec{Type: ontology.Entity, Phrase: e.Name}
	}
	o.AddNodes(entSpecs)

	// Mined concepts and events.
	sys.conceptContext = map[string][]string{}
	var conceptPhrases, eventPhrases []string
	dayOf := map[string]int{}
	for i := range sys.Mined {
		m := &sys.Mined[i]
		typ := ontology.Concept
		if m.IsEvent {
			typ = ontology.Event
		}
		id := o.AddNodeAt(typ, m.Phrase, maxDay(m.Day, 0))
		for _, a := range m.Aliases {
			o.AddAlias(id, a)
		}
		dayOf[m.Phrase] = m.Day
		if m.IsEvent {
			o.SetEventAttrs(id, m.Trigger, m.Location, m.Day)
			eventPhrases = append(eventPhrases, m.Phrase)
		} else {
			conceptPhrases = append(conceptPhrases, m.Phrase)
			sys.conceptContext[m.Phrase] = sys.Click.TopTitlesFor(m.Seed, 5)
		}
	}

	// Attention derivation: CSD parents for concepts.
	derived := phrase.CommonSuffixDiscovery(conceptPhrases, cfg.SuffixMinFreq, w.Lexicon)
	for _, d := range derived {
		pid := o.AddNode(ontology.Concept, d.Phrase)
		for _, child := range d.Children {
			if cn, ok := o.Lookup(ontology.Concept, child); ok {
				if err := o.AddEdge(pid, cn, ontology.IsA, 1); err != nil {
					return err
				}
			}
		}
		conceptPhrases = append(conceptPhrases, d.Phrase)
	}
	// CPD topics from events.
	cpdEvents := sys.eventsForCPD()
	topics := phrase.CommonPatternDiscovery(cpdEvents, cfg.PatternMinFreq, cfg.PatternMinSearch)
	topicMembers := map[string][]string{}
	for _, t := range topics {
		tid := o.AddNode(ontology.Topic, t.Phrase)
		topicMembers[t.Phrase] = t.Children
		for _, child := range t.Children {
			if en, ok := o.Lookup(ontology.Event, child); ok {
				if err := o.AddEdge(tid, en, ontology.IsA, 1); err != nil {
					return err
				}
			}
		}
	}

	// Collect topic phrases in sorted order so concept-topic involve edges
	// are discovered deterministically across runs (the map iteration here
	// used to leak Go's random map order into the edge list).
	topicPhrases := make([]string, 0, len(topicMembers))
	for t := range topicMembers {
		topicPhrases = append(topicPhrases, t)
	}
	sort.Strings(topicPhrases)

	// The linking stages below only read state frozen above (mined
	// attentions, phrase lists, the click log and world); their edge
	// proposals are committed to the ontology in one pass.
	catEdges := sys.attentionCategoryEdges()
	suffixPairs := linking.SuffixIsAEdges(conceptPhrases)
	containPairs := linking.ContainmentIsAEdges(eventPhrases)
	involvePairs := linking.ConceptTopicInvolveEdges(conceptPhrases, topicPhrases)
	ceLinks := sys.conceptEntityLinks()
	evLinks := sys.eventEntityLinks()
	corrPairs := sys.entityCorrelatePairs()

	// Commit pass: resolve phrases to node IDs and batch-insert each edge
	// group in stage order.
	var batch []ontology.Edge
	for _, e := range catEdges {
		n, ok := lookupAny(o, e.Phrase)
		if !ok || e.Category >= len(catNode) {
			continue
		}
		batch = append(batch, ontology.Edge{Src: catNode[e.Category], Dst: n, Type: ontology.IsA, Weight: e.P})
	}
	link := func(pt, ct ontology.NodeType, parent, child string, et ontology.EdgeType) {
		p, ok1 := o.Lookup(pt, parent)
		c, ok2 := o.Lookup(ct, child)
		if ok1 && ok2 {
			batch = append(batch, ontology.Edge{Src: p, Dst: c, Type: et, Weight: 1})
		}
	}
	for _, pr := range suffixPairs {
		link(ontology.Concept, ontology.Concept, pr.Parent, pr.Child, ontology.IsA)
	}
	for _, pr := range containPairs {
		link(ontology.Event, ontology.Event, pr.Parent, pr.Child, ontology.IsA)
	}
	for _, pr := range involvePairs {
		link(ontology.Topic, ontology.Concept, pr.Parent, pr.Child, ontology.Involve)
	}
	for _, pr := range ceLinks {
		link(ontology.Concept, ontology.Entity, pr.parent, pr.child, ontology.IsA)
	}
	for _, pr := range evLinks {
		link(ontology.Event, ontology.Entity, pr.parent, pr.child, ontology.Involve)
	}
	for _, p := range corrPairs {
		// Correlate is symmetric; store one canonical direction.
		link(ontology.Entity, ontology.Entity, p[0], p[1], ontology.Correlate)
	}
	if err := o.AddEdges(batch); err != nil {
		return err
	}

	// Concept-concept correlate (the §3.2 extension the paper defers):
	// concepts sharing a large fraction of instances correlate.
	linked := o.Snapshot()
	instances := map[string][]string{}
	for _, c := range linked.Nodes(ontology.Concept) {
		for _, ch := range linked.Children(c.ID, ontology.IsA) {
			if ch.Type == ontology.Entity {
				instances[c.Phrase] = append(instances[c.Phrase], ch.Phrase)
			}
		}
	}
	for _, pr := range linking.ConceptCorrelateEdges(instances, 0.5) {
		a, ok1 := o.Lookup(ontology.Concept, pr.Parent)
		b, ok2 := o.Lookup(ontology.Concept, pr.Child)
		if ok1 && ok2 {
			_ = o.AddEdge(a, b, ontology.Correlate, 1)
		}
	}

	// Adopt the finished world's snapshot: every later read shares it, and
	// the builder's maps are garbage from here on.
	sys.Ontology = ontology.FromSnapshot(o.Snapshot())
	return nil
}

// lookupAny resolves a phrase under the first node type (in NodeType
// order) that holds it.
func lookupAny(o *ontology.Ontology, phrase string) (ontology.NodeID, bool) {
	for t := ontology.NodeType(0); t < ontology.NumNodeTypes; t++ {
		if id, ok := o.Lookup(t, phrase); ok {
			return id, true
		}
	}
	return 0, false
}

// eventsForCPD converts mined events into the CPD input view, mapping
// recognized entity tokens to their concept via the world's lexicon-es...
// (at mining time we only know surface tokens; the entity's concept comes
// from the already-established concept-entity candidates, here the class
// plural discovered via alignment of categories).
func (sys *System) eventsForCPD() []phrase.EventForCPD {
	var out []phrase.EventForCPD
	for i := range sys.Mined {
		m := &sys.Mined[i]
		if !m.IsEvent {
			continue
		}
		toks := nlp.Tokenize(m.Phrase)
		spans := map[int]string{}
		for ti, t := range toks {
			for _, entTok := range m.Entities {
				if t != entTok {
					continue
				}
				if ent, ok := sys.World.EntityByName(entityNameOfToken(sys.World, t)); ok {
					// Most fine-grained common concept ancestor: the class
					// noun (shared by all the entity's concepts).
					spans[ti] = sys.World.Classes[ent.Class].Noun
				}
			}
		}
		out = append(out, phrase.EventForCPD{
			Tokens:      toks,
			EntitySpans: spans,
			SearchCount: len(m.Queries),
		})
	}
	return out
}

// entityNameOfToken resolves a single token to the full entity name
// containing it (entity names are multi-token), through the world's
// token index; a token no entity name holds resolves to itself.
func entityNameOfToken(w *synth.World, tok string) string {
	if name, ok := w.EntityNameOfToken(tok); ok {
		return name
	}
	return tok
}

// phrasePair is an edge proposal between two phrases, resolved to node IDs
// at commit time.
type phrasePair struct {
	parent, child string
}

// attentionCategoryEdges estimates P(g|p) over the clicked docs of each mined
// attention (pure compute).
func (sys *System) attentionCategoryEdges() []linking.CategoryEdge {
	byCat := map[string]map[int]int{}
	for i := range sys.Mined {
		m := &sys.Mined[i]
		cats := map[int]int{}
		for _, docID := range m.DocIDs {
			if docID >= 0 && docID < len(sys.Log.Docs) {
				cats[sys.Log.Docs[docID].Category]++
			}
		}
		byCat[m.Phrase] = cats
	}
	return linking.AttentionCategoryEdges(byCat, sys.Cfg.CategoryDelta)
}

// conceptEntityLinks trains the Fig. 4 classifier from session data and
// returns the accepted concept-entity pairs observed in clicked documents
// (pure compute; the ontology is untouched until the commit pass).
func (sys *System) conceptEntityLinks() []phrasePair {
	// Automatic dataset construction.
	var positives []linking.CEExample
	entityNames := make([]string, 0, len(sys.World.Entities))
	for _, e := range sys.World.Entities {
		entityNames = append(entityNames, e.Name)
	}
	for _, sess := range sys.Log.Sessions {
		if len(sess.Queries) < 2 {
			continue
		}
		conceptQ, entityQ := sess.Queries[0], sess.Queries[1]
		// The clicked document after the concept query: any concept doc
		// mentioning the entity.
		ctx := sys.contextMentioning(conceptQ, entityQ)
		if ctx == "" {
			continue
		}
		positives = append(positives, linking.CEExample{
			Concept: conceptQ, Entity: entityQ, Context: ctx,
			ConsecutiveQuery: true, CoClicks: 3,
		})
	}
	dataset := linking.BuildCEDataset(positives, entityNames, sys.Cfg.Seed+7)
	if len(dataset) > 0 {
		sys.CEClf = linking.TrainCEClassifier(dataset, 6, 0.3, sys.Cfg.Seed+8)
	}

	// Candidate links: mined concept × entities mentioned in its docs.
	var out []phrasePair
	for i := range sys.Mined {
		m := &sys.Mined[i]
		if m.IsEvent {
			continue
		}
		seen := map[int]bool{}
		for _, docID := range m.DocIDs {
			if docID < 0 || docID >= len(sys.Log.Docs) {
				continue
			}
			doc := &sys.Log.Docs[docID]
			for _, eid := range doc.Entities {
				if seen[eid] {
					continue
				}
				seen[eid] = true
				entName := sys.World.Entities[eid].Name
				ex := linking.CEExample{
					Concept: m.Phrase, Entity: entName, Context: doc.Content,
					CoClicks: 2,
				}
				if sys.CEClf == nil || sys.CEClf.Predict(&ex) {
					out = append(out, phrasePair{parent: m.Phrase, child: entName})
				}
			}
		}
	}
	return out
}

// eventEntityLinks pairs each mined event with the entities its recognized
// key elements resolve to (pure compute).
func (sys *System) eventEntityLinks() []phrasePair {
	var out []phrasePair
	for i := range sys.Mined {
		m := &sys.Mined[i]
		if !m.IsEvent {
			continue
		}
		for _, entTok := range m.Entities {
			out = append(out, phrasePair{parent: m.Phrase, child: entityNameOfToken(sys.World, entTok)})
		}
	}
	return out
}

// contextMentioning finds a doc content for the concept query that mentions
// the entity.
func (sys *System) contextMentioning(conceptQ, entity string) string {
	for _, title := range sys.Click.TopTitlesFor(conceptQ, 5) {
		for _, d := range sys.Log.Docs {
			if d.Title != title {
				continue
			}
			if strings.Contains(" "+d.Content+" ", " "+entity+" ") {
				return d.Content
			}
		}
	}
	return ""
}

// entityCorrelatePairs trains embeddings on co-occurrence pairs and returns
// the entity pairs the learned filter accepts (pure compute).
func (sys *System) entityCorrelatePairs() [][2]string {
	var pairs [][2]string
	for _, d := range sys.Log.Docs {
		for i := 0; i < len(d.Entities); i++ {
			for j := i + 1; j < len(d.Entities); j++ {
				a := sys.World.Entities[d.Entities[i]].Name
				b := sys.World.Entities[d.Entities[j]].Name
				if a != b {
					pairs = append(pairs, [2]string{a, b})
				}
			}
		}
	}
	if len(pairs) == 0 {
		return nil
	}
	sys.Embedder = linking.NewEntityEmbedder(16)
	sys.Embedder.Train(pairs)
	// Candidate pairs include random distractors so the learned filter — not
	// the candidate source — decides correlation (keeps Table 2's accuracy
	// measurement meaningful).
	cands := append([][2]string(nil), pairs...)
	nEnt := len(sys.World.Entities)
	for i := 0; i < len(pairs)/2 && nEnt > 1; i++ {
		a := sys.World.Entities[(i*7)%nEnt].Name
		b := sys.World.Entities[(i*13+5)%nEnt].Name
		if a != b {
			cands = append(cands, [2]string{a, b})
		}
	}
	return sys.Embedder.CorrelatePairs(cands)
}

// Snapshot returns the immutable, lock-free snapshot of the current
// ontology — the read side of the system, for the §4 applications, the
// tables and the online serving tier (see internal/serve and cmd/giantd).
// Build, Ingest and RestoreCheckpoint each adopt the snapshot they
// produce, so repeated calls return the same pointer; later ontology
// writes never disturb its readers.
func (sys *System) Snapshot() *ontology.Snapshot {
	return sys.Ontology.Snapshot()
}

// ConceptContext returns a copy of the concept phrase -> top clicked
// titles map the build collected, so a serving tier can construct
// context-enriched concept taggers over a snapshot. It is a snapshot in
// time: the caller owns the copy, and later System.Ingest calls never
// mutate it (Ingest replaces the internal map copy-on-write), so it is
// safe to share with concurrent request handlers.
func (sys *System) ConceptContext() map[string][]string {
	out := make(map[string][]string, len(sys.conceptContext))
	for k, v := range sys.conceptContext {
		out[k] = v
	}
	return out
}

// ConceptTagger builds the §4 concept tagger over the built ontology.
func (sys *System) ConceptTagger() *tagging.ConceptTagger {
	return tagging.NewConceptTagger(sys.Snapshot(), sys.conceptContext)
}

// EventTagger builds the §4 event tagger, training the Duet matcher on
// mined (event, title) pairs.
func (sys *System) EventTagger() *tagging.EventTagger {
	duet := tagging.NewDuet(sys.Cfg.Seed + 9)
	var examples []tagging.DuetExample
	for i := range sys.Mined {
		m := &sys.Mined[i]
		if !m.IsEvent || len(m.Titles) == 0 {
			continue
		}
		pt := nlp.Tokenize(m.Phrase)
		examples = append(examples, tagging.DuetExample{Phrase: pt, Doc: nlp.Tokenize(m.Titles[0]), Label: true})
		// Negative: unrelated title.
		for j := range sys.Mined {
			if j != i && len(sys.Mined[j].Titles) > 0 {
				examples = append(examples, tagging.DuetExample{Phrase: pt, Doc: nlp.Tokenize(sys.Mined[j].Titles[0]), Label: false})
				break
			}
		}
	}
	duet.Train(examples, 4, 0.05, sys.Cfg.Seed+10)
	return tagging.NewEventTagger(sys.Snapshot(), duet)
}

// Query builds the §4 query understander.
func (sys *System) Query() *queryund.Understander {
	return queryund.New(sys.Snapshot())
}

// StoryTree forms a story tree seeded at the given mined event phrase.
func (sys *System) StoryTree(seedPhrase string) (*storytree.Tree, bool) {
	var seed *storytree.EventNode
	var candidates []*storytree.EventNode
	for i := range sys.Mined {
		m := &sys.Mined[i]
		if !m.IsEvent {
			continue
		}
		node := &storytree.EventNode{
			Phrase: m.Phrase, Trigger: m.Trigger, Entities: m.Entities,
			Location: m.Location, Day: m.Day, Docs: m.Titles,
		}
		if m.Phrase == seedPhrase {
			seed = node
		}
		candidates = append(candidates, node)
	}
	if seed == nil {
		return nil, false
	}
	enc := storytree.NewBagOfTokensEncoder(16, nil)
	return storytree.Form(seed, candidates, enc, storytree.DefaultOptions()), true
}

func maxDay(d, min int) int {
	if d < min {
		return min
	}
	return d
}
