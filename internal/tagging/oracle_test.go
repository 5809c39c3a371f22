package tagging_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"giant"
	"giant/internal/nlp"
	"giant/internal/ontology"
	"giant/internal/synth"
	"giant/internal/tagging"
)

// referencePartial is EventTagger.Partial as a full scan: every home event
// and topic phrase is scored by LCS against the document, then checked by
// the Duet matcher. It is the oracle for the posting-driven Partial.
func referencePartial(et *tagging.EventTagger, scope ontology.Scope, doc *tagging.Document) []tagging.EventCand {
	docToks := tagging.DocTokens(doc)
	var out []tagging.EventCand
	for _, typ := range []ontology.NodeType{ontology.Event, ontology.Topic} {
		for _, p := range scope.Snap.PhraseTokens(typ) {
			if !scope.Home(p.ID) || len(p.Tokens) == 0 {
				continue
			}
			norm := float64(tagging.LCSLen(p.Tokens, docToks)) / float64(len(p.Tokens))
			if norm < 0.5 {
				continue
			}
			if et.Duet != nil && !et.Duet.Match(p.Tokens, docToks) {
				continue
			}
			out = append(out, tagging.EventCand{Phrase: p.Phrase, Type: typ, Score: norm})
		}
	}
	return out
}

// referenceMatchPartial is ConceptTagger.MatchPartial with every matched
// parent's representation tokenized afresh from its phrase and context
// titles.
func referenceMatchPartial(ct *tagging.ConceptTagger, scope ontology.Scope, doc *tagging.Document) [][]tagging.ConceptRef {
	rep := func(phrase string) []string {
		out := nlp.Tokenize(phrase)
		if titles := ct.ContextRep[phrase]; len(titles) > 0 {
			out = append([]string(nil), out...)
			for _, title := range titles {
				out = append(out, nlp.Tokenize(title)...)
			}
		}
		return out
	}
	out := make([][]tagging.ConceptRef, len(doc.Entities))
	for i, name := range doc.Entities {
		_, local, ok := scope.FindHome(ontology.Entity, name)
		if !ok {
			continue
		}
		cands := []tagging.ConceptRef{}
		for _, parent := range scope.Snap.Parents(local, ontology.IsA) {
			if parent.Type == ontology.Concept {
				cands = append(cands, tagging.ConceptRef{ID: scope.UID(parent.ID), Phrase: parent.Phrase, Rep: rep(parent.Phrase)})
			}
		}
		out[i] = cands
	}
	return out
}

// oracleScopes returns the union scope and every shard projection scope at
// K = 2 and K = 4.
func oracleScopes(t *testing.T, snap *ontology.Snapshot) map[string]ontology.Scope {
	scopes := map[string]ontology.Scope{"union": ontology.UnionScope(snap)}
	for _, k := range []int{2, 4} {
		ss, err := ontology.ShardSnapshot(snap, k)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			scopes[fmt.Sprintf("projection %d/%d", i, k)] = ontology.ProjectionScope(ss.Projection(i))
		}
	}
	return scopes
}

// checkOracle compares Partial and MatchPartial with their references for
// every document under every scope, with taggers built over the scope's
// own view (as a serving state builds them) and over the union.
func checkOracle(t *testing.T, snap *ontology.Snapshot, ctx map[string][]string, duet *tagging.Duet, docs []*tagging.Document) (events int) {
	t.Helper()
	unionConcepts := tagging.NewConceptTagger(snap, ctx)
	for name, scope := range oracleScopes(t, snap) {
		et := tagging.NewEventTagger(scope.Snap, duet)
		for _, ct := range []*tagging.ConceptTagger{tagging.NewConceptTagger(scope.Snap, ctx), unionConcepts} {
			for _, doc := range docs {
				if got, want := ct.MatchPartial(scope, doc), referenceMatchPartial(ct, scope, doc); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: MatchPartial(%+v) = %+v, want %+v", name, doc, got, want)
				}
			}
		}
		for _, doc := range docs {
			got, want := et.Partial(scope, doc), referencePartial(et, scope, doc)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Partial(%+v) = %+v, want %+v", name, doc, got, want)
			}
			events += len(got)
		}
	}
	return events
}

// TestPartialMatchesFullScanColdReadDocs runs the oracle on the tiny
// built world with the documents TestColdReadPinned in internal/serve
// sends to /v1/tag.
func TestPartialMatchesFullScanColdReadDocs(t *testing.T) {
	sys, err := giant.Build(giant.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var docs []*tagging.Document
	for i := 0; i < len(sys.Log.Docs) && len(docs) < 40; i += max(1, len(sys.Log.Docs)/40) {
		d := &sys.Log.Docs[i]
		doc := &tagging.Document{Title: d.Title, Content: d.Content}
		for _, id := range d.Entities {
			doc.Entities = append(doc.Entities, sys.World.Entities[id].Name)
		}
		docs = append(docs, doc)
	}
	if n := checkOracle(t, sys.Snapshot(), sys.ConceptContext(), sys.EventTagger().Duet, docs); n == 0 {
		t.Fatal("no document drew an event or topic candidate")
	}
}

// synthSnapshot indexes a generated world's concepts, entities (under
// their concepts), topics and events, plus phrases that repeat a token.
func synthSnapshot(w *synth.World) *ontology.Snapshot {
	o := ontology.New()
	concepts := make([]ontology.NodeID, len(w.Concepts))
	for i, c := range w.Concepts {
		concepts[i] = o.AddNode(ontology.Concept, c.Phrase)
	}
	for _, e := range w.Entities {
		id := o.AddNode(ontology.Entity, e.Name)
		for _, c := range e.Concepts {
			_ = o.AddEdge(concepts[c], id, ontology.IsA, 1) // duplicates are refused, which is fine
		}
	}
	for _, tp := range w.Topics {
		o.AddNode(ontology.Topic, tp.Phrase)
	}
	for i, ev := range w.Events {
		o.AddNode(ontology.Event, ev.Phrase)
		if i%7 == 0 && len(ev.Tokens) > 1 {
			o.AddNode(ontology.Event, ev.Tokens[0]+" "+ev.Phrase+" "+ev.Tokens[0])
			o.AddNode(ontology.Topic, ev.Tokens[1]+" the "+ev.Tokens[1]+" of the "+ev.Tokens[0])
		}
	}
	return o.Snapshot()
}

// vocabulary lists every token of the world's phrases and names.
func vocabulary(w *synth.World) []string {
	seen := map[string]bool{}
	var out []string
	add := func(s string) {
		for _, tok := range nlp.Tokenize(s) {
			if !seen[tok] {
				seen[tok] = true
				out = append(out, tok)
			}
		}
	}
	for _, c := range w.Concepts {
		add(c.Phrase)
	}
	for _, e := range w.Entities {
		add(e.Name)
	}
	for _, tp := range w.Topics {
		add(tp.Phrase)
	}
	for _, ev := range w.Events {
		add(ev.Phrase)
	}
	return out
}

var noiseWords = []string{"the", "of", "in", "and", "best", "a", "new"}

// genText writes n tokens drawn from vocab, after the tokens of a world
// phrase with some dropped when phrase is non-empty, mixing in stop words,
// repeated tokens, upper case and punctuation.
func genText(rng *rand.Rand, vocab []string, phrase string, n int) string {
	var toks []string
	for _, tok := range strings.Fields(phrase) {
		if rng.Intn(4) > 0 {
			toks = append(toks, tok)
		}
		if rng.Intn(5) == 0 {
			toks = append(toks, noiseWords[rng.Intn(len(noiseWords))])
		}
	}
	for len(toks) < n {
		switch r := rng.Intn(10); {
		case r < 2:
			toks = append(toks, noiseWords[rng.Intn(len(noiseWords))])
		case r < 3 && len(toks) > 0:
			toks = append(toks, toks[rng.Intn(len(toks))])
		default:
			toks = append(toks, vocab[rng.Intn(len(vocab))])
		}
	}
	var b strings.Builder
	for i, tok := range toks {
		switch rng.Intn(8) {
		case 0:
			tok = strings.ToUpper(tok)
		case 1:
			tok = strings.ToUpper(tok[:1]) + tok[1:]
		}
		if i > 0 {
			b.WriteString([]string{" ", " ", " ", ", ", " : ", "! ", " -- "}[rng.Intn(7)])
		}
		b.WriteString(tok)
	}
	return b.String()
}

// genDocs draws documents from a generated world: half of them carry a
// (partly dropped) event or topic phrase in the title or first sentence.
func genDocs(w *synth.World, seed int64, n int) []*tagging.Document {
	rng := rand.New(rand.NewSource(seed))
	vocab := vocabulary(w)
	docs := make([]*tagging.Document, n)
	for i := range docs {
		phrase := ""
		switch rng.Intn(4) {
		case 0:
			phrase = w.Events[rng.Intn(len(w.Events))].Phrase
		case 1:
			phrase = w.Topics[rng.Intn(len(w.Topics))].Phrase
		}
		title, first := genText(rng, vocab, phrase, 2+rng.Intn(8)), genText(rng, vocab, "", rng.Intn(6))
		if rng.Intn(2) == 0 {
			title, first = first, title
		}
		doc := &tagging.Document{Title: title, Content: first + ". " + genText(rng, vocab, "", 5)}
		for j := rng.Intn(4); j > 0; j-- {
			name := w.Entities[rng.Intn(len(w.Entities))].Name
			if rng.Intn(5) == 0 {
				name = strings.ToUpper(name)
			}
			doc.Entities = append(doc.Entities, name)
		}
		if rng.Intn(6) == 0 {
			doc.Entities = append(doc.Entities, "nobody known")
		}
		docs[i] = doc
	}
	return docs
}

// TestPartialMatchesFullScanGenerated runs the oracle on the tiny and
// default generated worlds with documents drawn from their vocabulary,
// with an untrained Duet matcher and with none.
func TestPartialMatchesFullScanGenerated(t *testing.T) {
	for _, cfg := range []synth.Config{synth.TinyConfig(), synth.DefaultConfig()} {
		w := synth.GenWorld(cfg)
		snap := synthSnapshot(w)
		ctx := map[string][]string{}
		for i, c := range w.Concepts {
			if i%3 == 0 {
				ctx[c.Phrase] = []string{"Best " + c.Short + ", ranked!", c.Phrase + " reviewed"}
			}
		}
		docs := genDocs(w, cfg.Seed, 150)
		for _, duet := range []*tagging.Duet{nil, tagging.NewDuet(3)} {
			if n := checkOracle(t, snap, ctx, duet, docs); n == 0 && duet == nil {
				t.Fatalf("world %d: no generated document drew an event or topic candidate", cfg.NumClasses)
			}
		}
	}
}
