package synth

import (
	"strings"
	"testing"

	"giant/internal/nlp"
)

func tinyWorld(t *testing.T) *World {
	t.Helper()
	return GenWorld(TinyConfig())
}

func TestGenWorldDeterministic(t *testing.T) {
	a := GenWorld(TinyConfig())
	b := GenWorld(TinyConfig())
	if len(a.Concepts) != len(b.Concepts) || len(a.Events) != len(b.Events) {
		t.Fatal("world generation is not deterministic in size")
	}
	for i := range a.Concepts {
		if a.Concepts[i].Phrase != b.Concepts[i].Phrase {
			t.Fatalf("concept %d differs: %q vs %q", i, a.Concepts[i].Phrase, b.Concepts[i].Phrase)
		}
	}
	for i := range a.Entities {
		if a.Entities[i].Name != b.Entities[i].Name {
			t.Fatalf("entity %d differs", i)
		}
	}
}

func TestWorldScales(t *testing.T) {
	cfg := TinyConfig()
	w := GenWorld(cfg)
	if got, want := len(w.Classes), cfg.NumClasses; got != want {
		t.Fatalf("classes = %d, want %d", got, want)
	}
	if got, want := len(w.Concepts), cfg.NumClasses*cfg.ModifiersPerClass; got != want {
		t.Fatalf("concepts = %d, want %d", got, want)
	}
	if got, want := len(w.Entities), cfg.NumClasses*cfg.EntitiesPerClass; got != want {
		t.Fatalf("entities = %d, want %d", got, want)
	}
}

func TestGroundTruthConsistency(t *testing.T) {
	w := tinyWorld(t)
	for _, c := range w.Concepts {
		for _, eid := range c.Entities {
			found := false
			for _, cid := range w.Entities[eid].Concepts {
				if cid == c.ID {
					found = true
				}
			}
			if !found {
				t.Fatalf("concept %q lists entity %q but not vice versa", c.Phrase, w.Entities[eid].Name)
			}
		}
	}
	for _, ev := range w.Events {
		top := w.Topics[ev.Topic]
		if ev.Trigger != top.Trigger {
			t.Fatalf("event %q trigger %q != topic trigger %q", ev.Phrase, ev.Trigger, top.Trigger)
		}
		if !strings.Contains(ev.Phrase, w.Entities[ev.Entities[0]].Name) {
			t.Fatalf("event phrase %q missing entity", ev.Phrase)
		}
	}
}

func TestCategoriesThreeLevels(t *testing.T) {
	w := tinyWorld(t)
	levels := map[int]bool{}
	for _, c := range w.Categories {
		levels[c.Level] = true
		if c.Level > 1 && c.Parent < 0 {
			t.Fatalf("non-root category %q has no parent", c.Name)
		}
		if c.Level == 1 && c.Parent != -1 {
			t.Fatalf("root category %q has parent", c.Name)
		}
	}
	for l := 1; l <= 3; l++ {
		if !levels[l] {
			t.Fatalf("missing category level %d", l)
		}
	}
}

func TestLexiconKnowsVocabulary(t *testing.T) {
	w := tinyWorld(t)
	ent := w.Entities[0]
	toks := w.Lexicon.Annotate(ent.Name)
	for _, tok := range toks {
		if tok.NER == 0 {
			t.Fatalf("entity token %q has no NER tag", tok.Text)
		}
	}
	loc := w.Locations[0]
	ltoks := w.Lexicon.Annotate(loc)
	for _, tok := range ltoks {
		if tok.NER.String() != "LOC" {
			t.Fatalf("location token %q NER = %v", tok.Text, tok.NER)
		}
	}
}

func TestGenerateLogCoversWorld(t *testing.T) {
	w := tinyWorld(t)
	log := w.GenerateLog(LogConfig{Seed: 2, QueriesPerAspect: 2, DocsPerAspect: 2, MaxClicks: 10, NumSessions: 10})
	if len(log.Docs) == 0 || len(log.Records) == 0 {
		t.Fatal("empty log")
	}
	// Every concept must appear in at least one query.
	queries := map[string]bool{}
	for _, r := range log.Records {
		queries[r.Query] = true
	}
	found := 0
	for _, c := range w.Concepts {
		for q := range queries {
			if strings.Contains(q, c.Phrase) {
				found++
				break
			}
		}
	}
	if found < len(w.Concepts)/2 {
		t.Fatalf("only %d/%d concepts appear in queries", found, len(w.Concepts))
	}
	// Docs carry provenance.
	cDocs, eDocs := 0, 0
	for _, d := range log.Docs {
		if d.ConceptID >= 0 {
			cDocs++
		}
		if d.EventID >= 0 {
			eDocs++
		}
		if d.ConceptID >= 0 && d.EventID >= 0 {
			t.Fatal("doc has both concept and event provenance")
		}
	}
	if cDocs == 0 || eDocs == 0 {
		t.Fatalf("missing provenance: %d concept docs, %d event docs", cDocs, eDocs)
	}
}

func TestSessionsStructure(t *testing.T) {
	w := tinyWorld(t)
	log := w.GenerateLog(LogConfig{Seed: 3, QueriesPerAspect: 2, DocsPerAspect: 2, MaxClicks: 5, NumSessions: 25})
	if len(log.Sessions) != 25 {
		t.Fatalf("sessions = %d", len(log.Sessions))
	}
	for _, s := range log.Sessions {
		if len(s.Queries) != 2 {
			t.Fatalf("session has %d queries", len(s.Queries))
		}
	}
}

func TestConceptExamplesGold(t *testing.T) {
	w := tinyWorld(t)
	ex := w.ConceptExamples(20, 9)
	if len(ex) != 20 {
		t.Fatalf("examples = %d", len(ex))
	}
	for _, e := range ex {
		if e.Kind != "concept" || len(e.GoldTokens) == 0 {
			t.Fatalf("bad example %+v", e)
		}
		if len(e.Queries) < 2 || len(e.Titles) < 2 {
			t.Fatalf("example too small: %d queries %d titles", len(e.Queries), len(e.Titles))
		}
		if len(e.Clicks) != len(e.Titles) {
			t.Fatal("clicks must align with titles")
		}
		// Gold tokens must be recoverable from the cluster text.
		text := strings.Join(e.Queries, " ") + " " + strings.Join(e.Titles, " ")
		for _, g := range e.GoldTokens {
			if !strings.Contains(text, g) {
				t.Fatalf("gold token %q absent from cluster", g)
			}
		}
	}
}

func TestEventExamplesGoldAndKeyLabels(t *testing.T) {
	w := tinyWorld(t)
	ex := w.EventExamples(20, 10)
	for _, e := range ex {
		if e.Kind != "event" {
			t.Fatal("kind")
		}
		if e.Trigger == "" || len(e.EntityNames) == 0 {
			t.Fatalf("event example missing attributes: %+v", e)
		}
		// KeyLabelOf must be consistent.
		entTok := strings.Fields(e.EntityNames[0])[0]
		if e.KeyLabelOf(entTok) != KeyEntity {
			t.Fatalf("entity token %q mislabelled", entTok)
		}
		if e.KeyLabelOf(e.Trigger) != KeyTrigger {
			t.Fatal("trigger mislabelled")
		}
		if e.KeyLabelOf("zzz-not-present") != KeyOther {
			t.Fatal("unknown token should be other")
		}
		if e.Location != "" {
			locTok := strings.Fields(e.Location)[0]
			if e.KeyLabelOf(locTok) != KeyLocation {
				t.Fatal("location mislabelled")
			}
		}
	}
}

func TestSplitRatios(t *testing.T) {
	w := tinyWorld(t)
	ex := w.ConceptExamples(50, 11)
	train, dev, test := Split(ex)
	if len(train) != 40 || len(dev) != 5 || len(test) != 5 {
		t.Fatalf("split = %d/%d/%d", len(train), len(dev), len(test))
	}
}

func TestDateOf(t *testing.T) {
	if DateOf(0) != "2019-07-16" {
		t.Fatalf("DateOf(0) = %s", DateOf(0))
	}
	if DateOf(30) != "2019-08-15" {
		t.Fatalf("DateOf(30) = %s", DateOf(30))
	}
}

func TestPluralize(t *testing.T) {
	cases := map[string]string{"car": "cars", "series": "series", "company": "companies"}
	for in, want := range cases {
		if got := pluralize(in); got != want {
			t.Fatalf("pluralize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestKeyClassString(t *testing.T) {
	if KeyEntity.String() != "entity" || KeyOther.String() != "other" {
		t.Fatal("KeyClass String broken")
	}
}

// TestEntityNameOfTokenMatchesScan pins the token index against the scan
// it replaced: every entity in order, first whose tokenized name holds the
// token wins, for every token of the tiny and the default world. Generated
// names never share a token, so a hand-built world checks the tie rule.
func TestEntityNameOfTokenMatchesScan(t *testing.T) {
	scan := func(w *World, tok string) (string, bool) {
		for _, e := range w.Entities {
			for _, et := range nlp.Tokenize(e.Name) {
				if et == tok {
					return e.Name, true
				}
			}
		}
		return "", false
	}
	shared := &World{
		Entities: []Entity{
			{ID: 0, Name: "brand0 handset"}, {ID: 1, Name: "brand1 handset pro"}, {ID: 2, Name: "pro brand0"},
		},
		entityByToken: map[string]int{},
	}
	for id := range shared.Entities {
		shared.indexEntityTokens(id)
	}
	for _, w := range []*World{GenWorld(TinyConfig()), GenWorld(DefaultConfig()), shared} {
		cfg := w.Config
		var texts []string
		for _, e := range w.Entities {
			texts = append(texts, e.Name)
		}
		for _, c := range w.Concepts {
			texts = append(texts, c.Phrase, c.Short)
		}
		for _, tp := range w.Topics {
			texts = append(texts, tp.Phrase)
		}
		for _, ev := range w.Events {
			texts = append(texts, ev.Phrase)
		}
		for _, c := range w.Categories {
			texts = append(texts, c.Name)
		}
		texts = append(texts, w.Locations...)
		texts = append(texts, "zzz-no-such-token 2018 ?")
		seen := map[string]bool{}
		resolved := 0
		for _, text := range texts {
			for _, tok := range nlp.Tokenize(text) {
				if seen[tok] {
					continue
				}
				seen[tok] = true
				gotName, gotOK := w.EntityNameOfToken(tok)
				wantName, wantOK := scan(w, tok)
				if gotName != wantName || gotOK != wantOK {
					t.Fatalf("world seed %d, token %q: index gives (%q, %v), scan gives (%q, %v)", cfg.Seed, tok, gotName, gotOK, wantName, wantOK)
				}
				if gotOK {
					resolved++
				}
			}
		}
		if resolved == 0 || resolved == len(seen) {
			t.Fatalf("world seed %d: %d of %d tokens resolve to an entity; the check needs both kinds", cfg.Seed, resolved, len(seen))
		}
	}
}
