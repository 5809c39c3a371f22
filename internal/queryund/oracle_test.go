package queryund_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"giant"
	"giant/internal/nlp"
	"giant/internal/ontology"
	"giant/internal/queryund"
	"giant/internal/synth"
)

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

// checkOracle compares Partial with ReferencePartial for every query under
// every scope and returns how many union partials found a concept and an
// entity.
func checkOracle(t *testing.T, snap *ontology.Snapshot, queries []string) (concepts, entities int) {
	t.Helper()
	for name, scope := range oracleScopes(t, snap) {
		u := queryund.New(scope.Snap)
		for _, q := range queries {
			got, want := u.Partial(scope, q), queryund.ReferencePartial(u, scope, q)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Partial(%q) = %+v, want %+v", name, q, got, want)
			}
			if name == "union" {
				if got.Concept != nil {
					concepts++
				}
				if got.EntityContained != nil {
					entities++
				}
			}
		}
	}
	return concepts, entities
}

// TestPartialMatchesFullScanColdReadQueries runs the oracle on the tiny
// built world with the queries TestColdReadPinned in internal/serve sends
// to /v1/query/rewrite.
func TestPartialMatchesFullScanColdReadQueries(t *testing.T) {
	sys, err := giant.Build(giant.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := sys.Snapshot()
	var queries []string
	for _, n := range snap.Nodes(ontology.Concept) {
		queries = append(queries, "best "+n.Phrase)
	}
	for _, n := range snap.Nodes(ontology.Entity) {
		queries = append(queries, n.Phrase)
	}
	for _, r := range sys.Log.Records {
		if len(queries) == 120 {
			break
		}
		queries = append(queries, r.Query)
	}
	if c, e := checkOracle(t, snap, queries); c == 0 || e == 0 {
		t.Fatalf("union partials found %d concepts and %d entities, want some of each", c, e)
	}
}

// synthSnapshot indexes a generated world's concepts and entities (under
// their concepts, and correlated within a class), plus phrases that repeat
// a token.
func synthSnapshot(w *synth.World) *ontology.Snapshot {
	o := ontology.New()
	concepts := make([]ontology.NodeID, len(w.Concepts))
	for i, c := range w.Concepts {
		concepts[i] = o.AddNode(ontology.Concept, c.Phrase)
		if i%5 == 0 && len(c.Tokens) > 1 {
			o.AddNode(ontology.Concept, c.Tokens[0]+" "+c.Phrase)
			o.AddNode(ontology.Concept, c.Tokens[1]+" the "+c.Tokens[1])
		}
	}
	prev := map[int]ontology.NodeID{}
	for i, e := range w.Entities {
		id := o.AddNode(ontology.Entity, e.Name)
		for _, c := range e.Concepts {
			_ = o.AddEdge(concepts[c], id, ontology.IsA, 1) // duplicates are refused, which is fine
		}
		if p, ok := prev[e.Class]; ok && i%2 == 0 {
			_ = o.AddEdge(p, id, ontology.Correlate, 1)
		}
		prev[e.Class] = id
		if i%9 == 0 {
			o.AddNode(ontology.Entity, e.Name+" "+e.Name)
		}
	}
	return o.Snapshot()
}

var noiseWords = []string{"the", "of", "in", "best", "a", "new", "?"}

// genQueries draws queries from a generated world: concept and entity
// phrases in full, with a token dropped, or inside other tokens, and runs
// of vocabulary, mixing in stop words, repeated tokens, upper case and
// punctuation.
func genQueries(w *synth.World, seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var vocab []string
	for _, c := range w.Concepts {
		for _, tok := range nlp.Tokenize(c.Phrase) {
			if !seen[tok] {
				seen[tok] = true
				vocab = append(vocab, tok)
			}
		}
	}
	for _, e := range w.Entities {
		for _, tok := range nlp.Tokenize(e.Name) {
			if !seen[tok] {
				seen[tok] = true
				vocab = append(vocab, tok)
			}
		}
	}
	queries := make([]string, n)
	for i := range queries {
		var toks []string
		switch rng.Intn(5) {
		case 0:
			toks = strings.Fields(w.Concepts[rng.Intn(len(w.Concepts))].Short)
		case 1:
			toks = strings.Fields(w.Concepts[rng.Intn(len(w.Concepts))].Phrase)
		case 2:
			toks = strings.Fields(w.Entities[rng.Intn(len(w.Entities))].Name)
		}
		if len(toks) > 1 && rng.Intn(4) == 0 {
			j := rng.Intn(len(toks))
			toks = append(toks[:j:j], toks[j+1:]...)
		}
		for j := rng.Intn(4); j > 0; j-- {
			var tok string
			switch r := rng.Intn(6); {
			case r == 0:
				tok = noiseWords[rng.Intn(len(noiseWords))]
			case r == 1 && len(toks) > 0:
				tok = toks[rng.Intn(len(toks))]
			default:
				tok = vocab[rng.Intn(len(vocab))]
			}
			k := rng.Intn(len(toks) + 1)
			toks = append(toks[:k], append([]string{tok}, toks[k:]...)...)
		}
		var b strings.Builder
		for j, tok := range toks {
			if rng.Intn(8) == 0 {
				tok = strings.ToUpper(tok)
			}
			if j > 0 {
				b.WriteString([]string{" ", " ", " ", "  ", ", ", "-", " ! "}[rng.Intn(7)])
			}
			b.WriteString(tok)
		}
		queries[i] = b.String()
	}
	return queries
}

// TestPartialMatchesFullScanGenerated runs the oracle on the tiny and
// default generated worlds with queries drawn from their vocabulary.
func TestPartialMatchesFullScanGenerated(t *testing.T) {
	for _, cfg := range []synth.Config{synth.TinyConfig(), synth.DefaultConfig()} {
		w := synth.GenWorld(cfg)
		if c, e := checkOracle(t, synthSnapshot(w), genQueries(w, cfg.Seed, 400)); c == 0 || e == 0 {
			t.Fatalf("world %d: union partials found %d concepts and %d entities, want some of each", cfg.NumClasses, c, e)
		}
	}
}
