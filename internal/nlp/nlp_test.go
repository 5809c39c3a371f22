package nlp

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"What are the Best Cars?", []string{"what", "are", "the", "best", "cars", "?"}},
		{"fuel-efficient cars", []string{"fuel-efficient", "cars"}},
		{"a,b", []string{"a", ",", "b"}},
		{"", nil},
		{"   ", nil},
		{"top 10 movies", []string{"top", "10", "movies"}},
		{"bad \xff byte", []string{"bad", "\uFFFD", "byte"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestTokenizeNeverEmptyTokens(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTokenizeIdempotentOnJoin(t *testing.T) {
	// Tokenizing the joined tokens reproduces the tokens (for word tokens).
	f := func(s string) bool {
		toks := Tokenize(s)
		again := Tokenize(strings.Join(toks, " "))
		if len(again) != len(toks) {
			return false
		}
		for i := range toks {
			if toks[i] != again[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJoinTokensPunctuation(t *testing.T) {
	got := JoinTokens([]string{"what", "are", "cars", "?"})
	if got != "what are cars?" {
		t.Fatalf("JoinTokens = %q", got)
	}
}

func TestLexiconRegisterAndLookup(t *testing.T) {
	lex := NewLexicon()
	lex.Register("honda civic", PosPropn, NerProduct)
	lex.Register("car", PosNoun, NerNone)
	if got := lex.POSOf("honda"); got != PosPropn {
		t.Fatalf("POSOf(honda) = %v", got)
	}
	if got := lex.NEROf("civic"); got != NerProduct {
		t.Fatalf("NEROf(civic) = %v", got)
	}
	if got := lex.NEROf("car"); got != NerNone {
		t.Fatalf("NEROf(car) = %v", got)
	}
	// First registration wins.
	lex.Register("car", PosVerb, NerPerson)
	if got := lex.POSOf("car"); got != PosNoun {
		t.Fatalf("re-registration changed POS: %v", got)
	}
}

func TestLexiconFallbacks(t *testing.T) {
	lex := NewLexicon()
	if got := lex.POSOf("2019"); got != PosNum {
		t.Fatalf("year POS = %v", got)
	}
	if got := lex.NEROf("2019"); got != NerTime {
		t.Fatalf("year NER = %v", got)
	}
	if got := lex.POSOf("?"); got != PosPunct {
		t.Fatalf("punct POS = %v", got)
	}
	if got := lex.POSOf("quickly"); got != PosAdv {
		t.Fatalf("adverb POS = %v", got)
	}
	if got := lex.POSOf("running"); got != PosVerb {
		t.Fatalf("verb POS = %v", got)
	}
	if got := lex.POSOf("fuel-efficient"); got != PosAdj {
		t.Fatalf("hyphenated adjective POS = %v", got)
	}
	if got := lex.POSOf("table"); got != PosNoun {
		t.Fatalf("default POS = %v", got)
	}
}

func TestStopWords(t *testing.T) {
	for _, w := range []string{"the", "what", "best", "?"} {
		if !IsStopWord(w) {
			t.Fatalf("%q should be a stop word", w)
		}
	}
	for _, w := range []string{"car", "concert", "honda"} {
		if IsStopWord(w) {
			t.Fatalf("%q should not be a stop word", w)
		}
	}
}

func TestAnnotate(t *testing.T) {
	lex := NewLexicon()
	lex.Register("miyazaki", PosPropn, NerPerson)
	toks := lex.Annotate("What are Miyazaki movies?")
	if len(toks) != 5 {
		t.Fatalf("got %d tokens", len(toks))
	}
	if toks[2].NER != NerPerson {
		t.Fatalf("miyazaki NER = %v", toks[2].NER)
	}
	if !toks[0].Stop {
		t.Fatal("'what' should be a stop token")
	}
}

func TestParseDepsNounPhrase(t *testing.T) {
	lex := NewLexicon()
	lex.Register("miyazaki", PosPropn, NerPerson)
	lex.Register("animated", PosAdj, NerNone)
	lex.Register("film", PosNoun, NerNone)
	toks := lex.Annotate("miyazaki animated film")
	arcs := ParseDeps(toks)
	var compound, amod bool
	for _, a := range arcs {
		if a.Rel == DepCompound && a.Dependent == 0 && a.Head == 2 {
			compound = true
		}
		if a.Rel == DepAmod && a.Dependent == 1 && a.Head == 2 {
			amod = true
		}
	}
	if !compound || !amod {
		t.Fatalf("missing NP-internal arcs: %+v", arcs)
	}
}

func TestParseDepsClause(t *testing.T) {
	lex := NewLexicon()
	lex.Register("singer", PosNoun, NerNone)
	lex.Register("hold", PosVerb, NerNone)
	lex.Register("concert", PosNoun, NerNone)
	toks := lex.Annotate("singer hold concert")
	arcs := ParseDeps(toks)
	var nsubj, dobj, root bool
	for _, a := range arcs {
		if a.Rel == DepNsubj && a.Dependent == 0 && a.Head == 1 {
			nsubj = true
		}
		if a.Rel == DepDobj && a.Dependent == 2 && a.Head == 1 {
			dobj = true
		}
		if a.Head == -1 && a.Dependent == 1 {
			root = true
		}
	}
	if !nsubj || !dobj || !root {
		t.Fatalf("clause structure wrong: %+v", arcs)
	}
}

func TestParseDepsAllTokensAttached(t *testing.T) {
	lex := NewLexicon()
	f := func(raw string) bool {
		toks := lex.Annotate(raw)
		if len(toks) == 0 {
			return true
		}
		arcs := ParseDeps(toks)
		attached := map[int]bool{}
		for _, a := range arcs {
			if a.Dependent < 0 || a.Dependent >= len(toks) {
				return false
			}
			if attached[a.Dependent] {
				return false // each token has exactly one head
			}
			attached[a.Dependent] = true
		}
		return len(attached) == len(toks)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseDepsEmpty(t *testing.T) {
	if arcs := ParseDeps(nil); arcs != nil {
		t.Fatalf("ParseDeps(nil) = %v", arcs)
	}
}

func TestPOSAndNERStrings(t *testing.T) {
	if PosNoun.String() != "NOUN" || PosPunct.String() != "PUNCT" {
		t.Fatal("POS String broken")
	}
	if NerPerson.String() != "PER" || NerNone.String() != "O" {
		t.Fatal("NER String broken")
	}
	if DepCompound.String() != "compound" || DepAmod.String() != "amod" {
		t.Fatal("DepRel String broken")
	}
}
