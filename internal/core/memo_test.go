package core

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"giant/internal/clickgraph"
	"giant/internal/nlp"
	"giant/internal/synth"
)

// memoFixture is a tiny world with both models trained once (training is the
// slow part) and its click log, replayed by the memo tests below.
type memoFixture struct {
	world        *synth.World
	log          *synth.Log
	phrase, keys *Model
}

var (
	memoFixtureOnce sync.Once
	memoFixtureVal  memoFixture
)

func memoEnv() memoFixture {
	memoFixtureOnce.Do(func() {
		w := tinyWorld()
		log := w.GenerateLog(synth.LogConfig{Seed: 7, QueriesPerAspect: 3, DocsPerAspect: 3, MaxClicks: 20, NumSessions: 20})
		pm := NewPhraseModel(w.Lexicon, Options{Epochs: 4, Layers: 3, Fallback: true})
		pm.Train(append(w.ConceptExamples(30, 8), w.EventExamples(30, 9)...))
		km := NewKeyElementModel(w.Lexicon, Options{Epochs: 4, Layers: 3})
		km.Train(w.EventExamples(30, 10))
		memoFixtureVal = memoFixture{world: w, log: log, phrase: pm, keys: km}
	})
	return memoFixtureVal
}

func (f memoFixture) miner(parallelism int) *Miner {
	m := NewMiner(f.phrase, f.keys, f.world.Lexicon)
	m.Parallelism = parallelism
	return m
}

// add feeds records into g and returns the seeds an incremental update would
// re-mine for them.
func (f memoFixture) add(g *clickgraph.Graph, recs []synth.Record, hops int) []string {
	var queries []string
	var docIDs []int
	for _, r := range recs {
		g.Add(r.Query, r.DocID, f.log.Docs[r.DocID].Title, r.Clicks, r.Day)
		queries = append(queries, r.Query)
		docIDs = append(docIDs, r.DocID)
	}
	return g.AffectedQueries(queries, docIDs, hops)
}

func (m *Miner) memoSlots() int {
	m.memoMu.Lock()
	defer m.memoMu.Unlock()
	return len(m.memo)
}

// TestMemoMatchesFreshMiner replays the click log in day order — everything
// over the first half, then 40 incremental slices re-mining only the affected
// seeds — and checks after every step that the long-lived miner returns
// exactly what a miner that has never seen the graph returns, at pool sizes 1
// and 4, and that the memo never holds more slots than the graph has queries.
func TestMemoMatchesFreshMiner(t *testing.T) {
	f := memoEnv()
	recs := append([]synth.Record(nil), f.log.Records...)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Day < recs[j].Day })
	const slices = 40
	half := len(recs) / 2
	for _, p := range []int{1, 4} {
		warm := f.miner(p)
		g := clickgraph.New()
		f.add(g, recs[:half], warm.Walk.Steps)
		all := uint64(g.NumQueries()) // one cluster per query
		if !reflect.DeepEqual(warm.Mine(g), f.miner(p).Mine(g)) {
			t.Fatalf("P=%d: the first full mine diverges from a fresh miner's", p)
		}
		if reused, remined := warm.MemoStats(); reused != 0 || remined != all {
			t.Fatalf("P=%d: a first mine of %d clusters reused %d and ran inference for %d", p, all, reused, remined)
		}
		rest := recs[half:]
		for s := 0; s < slices; s++ {
			seeds := f.add(g, rest[s*len(rest)/slices:(s+1)*len(rest)/slices], warm.Walk.Steps)
			if !reflect.DeepEqual(warm.MineSeeds(g, seeds), f.miner(p).MineSeeds(g, seeds)) {
				t.Fatalf("P=%d slice %d: re-mining %d seeds on the warm miner diverges from a fresh miner's", p, s, len(seeds))
			}
			if n := warm.memoSlots(); n > g.NumQueries() {
				t.Fatalf("P=%d slice %d: %d memo slots for a graph of %d queries", p, s, n, g.NumQueries())
			}
		}
		reused, remined := warm.MemoStats()
		if reused == 0 || remined == all {
			t.Fatalf("P=%d: the replay reused %d clusters and re-mined %d after the first %d, so it did not test both sides of the memo", p, reused, remined-all, all)
		}

		// The two entry points share the memo: each must agree with a
		// fresh miner's whatever the other left in it.
		want := f.miner(p).Mine(g)
		if !reflect.DeepEqual(warm.Mine(g), want) {
			t.Fatalf("P=%d: Mine on the warm miner diverges from a fresh miner's", p)
		}
		if !reflect.DeepEqual(warm.MineSeeds(g, g.Queries()), f.miner(p).MineSeeds(g, g.Queries())) {
			t.Fatalf("P=%d: MineSeeds on the warm miner diverges from a fresh miner's", p)
		}
	}
}

// TestMemoResultsDoNotAliasSlots scribbles over everything a mining result
// can reach and checks the next (fully memoized) result is unaffected.
func TestMemoResultsDoNotAliasSlots(t *testing.T) {
	f := memoEnv()
	g := clickgraph.New()
	m := f.miner(1)
	f.add(g, f.log.Records, m.Walk.Steps)
	n := uint64(g.NumQueries()) // clusters per mine
	want := f.miner(1).Mine(g)
	withEntities := 0
	for round := 0; round < 3; round++ { // round 0 returns fresh results, later rounds memoized ones
		got := m.Mine(g)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: the result changed after the previous one was overwritten", round)
		}
		for i := range got {
			r := &got[i]
			for _, ss := range [][]string{r.Entities, r.Queries, r.Titles, r.Aliases} {
				for j := range ss {
					ss[j] = "scribbled"
				}
			}
			for j := range r.DocIDs {
				r.DocIDs[j] = -99
			}
			withEntities += len(r.Entities)
			r.Entities = append(r.Entities, "extra")
			r.Phrase, r.Trigger, r.Location = "x", "y", "z"
		}
	}
	if withEntities == 0 {
		t.Fatal("no mined event carried entities, so slot aliasing went untested")
	}
	if reused, remined := m.MemoStats(); reused != 2*n || remined != n {
		t.Fatalf("three mines of %d clusters reused %d and re-mined %d", n, reused, remined)
	}
}

// TestMemoDroppedWhenModelsChange: a slot is only as good as the weights and
// lexicon it was computed under. Swapping or retraining either model, or
// swapping or editing the lexicon, must send every cluster back through
// inference.
func TestMemoDroppedWhenModelsChange(t *testing.T) {
	f := memoEnv()
	g := clickgraph.New()
	f.add(g, f.log.Records, clickgraph.DefaultWalkConfig().Steps)
	n := uint64(g.NumQueries()) // clusters per mine

	// Private models: this test retrains them.
	train := f.world.EventExamples(10, 11)
	newPhrase := func() *Model {
		pm := NewPhraseModel(f.world.Lexicon, Options{Epochs: 1, Layers: 2, Fallback: true})
		pm.Train(train)
		return pm
	}
	newKeys := func() *Model {
		km := NewKeyElementModel(f.world.Lexicon, Options{Epochs: 1, Layers: 2})
		km.Train(train)
		return km
	}
	lex := f.world.Lexicon
	m := NewMiner(newPhrase(), newKeys(), lex)
	m.Mine(g)

	steps := []struct {
		name   string
		change func()
		drops  bool
	}{
		{"nothing", func() {}, false},
		{"swap the phrase model", func() { m.Phrase = newPhrase() }, true},
		{"nothing again", func() {}, false},
		{"swap the key-element model", func() { m.Keys = newKeys() }, true},
		{"retrain the phrase model", func() { m.Phrase.Train(train) }, true},
		{"retrain the key-element model", func() { m.Keys.Train(train) }, true},
		{"drop the key-element model", func() { m.Keys = nil }, true},
		{"swap the lexicon", func() { m.Lex = nlp.NewLexicon() }, true},
		{"restore the lexicon", func() { m.Lex = lex }, true},
		{"still nothing", func() {}, false},
	}
	for _, st := range steps {
		st.change()
		reused0, remined0 := m.MemoStats()
		got := m.Mine(g)
		reused, remined := m.MemoStats()
		wantReused, wantRemined := n, uint64(0)
		if st.drops {
			wantReused, wantRemined = 0, n
		}
		if reused-reused0 != wantReused || remined-remined0 != wantRemined {
			t.Fatalf("%s: reused %d and remined %d of %d clusters, want %d and %d",
				st.name, reused-reused0, remined-remined0, n, wantReused, wantRemined)
		}
		if !reflect.DeepEqual(got, NewMiner(m.Phrase, m.Keys, m.Lex).Mine(g)) {
			t.Fatalf("%s: the result diverges from a fresh miner's over the same models", st.name)
		}
	}

	// An edit to the shared lexicon changes what Annotate returns, for the
	// miner and for both models. (Own lexicon: the fixture's stays as it is.)
	own := nlp.NewLexicon()
	m = NewMiner(NewPhraseModel(own, Options{Epochs: 1, Layers: 2, Fallback: true}), nil, own)
	m.Phrase.Train(train)
	m.Mine(g)
	own.Register("recall", nlp.PosVerb, nlp.NerNone)
	got := m.Mine(g)
	if reused, remined := m.MemoStats(); reused != 0 || remined != 2*n {
		t.Fatalf("after a lexicon registration: reused %d, remined %d; want 0 and %d", reused, remined, 2*n)
	}
	if !reflect.DeepEqual(got, NewMiner(m.Phrase, nil, own).Mine(g)) {
		t.Fatal("after a lexicon registration the result diverges from a fresh miner's")
	}
}
