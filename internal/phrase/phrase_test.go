package phrase

import (
	"math"
	"testing"

	"giant/internal/nlp"
)

func TestTFIDFVectorAndCosine(t *testing.T) {
	m := NewTFIDF()
	m.AddDoc([]string{"a", "b"})
	m.AddDoc([]string{"a", "c"})
	va := m.Vector([]string{"a", "b"})
	vb := m.Vector([]string{"a", "b"})
	if s := Cosine(va, vb); math.Abs(s-1) > 1e-9 {
		t.Fatalf("identical vectors cosine = %v", s)
	}
	vc := m.Vector([]string{"zz"})
	if s := Cosine(va, vc); s != 0 {
		t.Fatalf("disjoint vectors cosine = %v", s)
	}
	// Rare term "b" must outweigh common term "a".
	if va["b"] <= va["a"] {
		t.Fatalf("idf weighting broken: a=%v b=%v", va["a"], va["b"])
	}
}

func TestNormalizerMergesSimilar(t *testing.T) {
	n := NewNormalizer(0.2)
	ctx1 := []string{"top economy cars of the year", "economy cars review"}
	ctx2 := []string{"economy cars review", "best economy cars list"}
	n.Observe("economy cars", ctx1)
	n.Observe("cars economy", ctx2) // same non-stop tokens, similar context
	c1, merged1 := n.Add("economy cars", ctx1)
	if merged1 || c1 != "economy cars" {
		t.Fatalf("first phrase should be canonical: %q %v", c1, merged1)
	}
	c2, merged2 := n.Add("cars economy", ctx2)
	if !merged2 || c2 != "economy cars" {
		t.Fatalf("variant should merge: %q %v", c2, merged2)
	}
	if len(n.canon) != 1 {
		t.Fatalf("canonical entries = %+v", n.canon)
	}
}

func TestNormalizerKeepsDistinct(t *testing.T) {
	n := NewNormalizer(0.2)
	n.Observe("economy cars", []string{"cheap to run vehicles"})
	n.Observe("luxury cars", []string{"premium vehicles"})
	n.Add("economy cars", []string{"cheap to run vehicles"})
	c, merged := n.Add("luxury cars", []string{"premium vehicles"})
	if merged || c != "luxury cars" {
		t.Fatal("distinct phrases must not merge")
	}
}

func TestCommonSuffixDiscovery(t *testing.T) {
	lex := nlp.NewLexicon()
	for _, w := range []string{"animated", "award-winning", "famous"} {
		lex.Register(w, nlp.PosAdj, nlp.NerNone)
	}
	lex.Register("film", nlp.PosNoun, nlp.NerNone)
	lex.Register("films", nlp.PosNoun, nlp.NerNone)
	concepts := []string{
		"miyazaki animated films",
		"award-winning animated films",
		"hollywood animated films",
	}
	derived := CommonSuffixDiscovery(concepts, 3, lex)
	found := false
	for _, d := range derived {
		if d.Phrase == "animated films" {
			found = true
			if len(d.Children) != 3 {
				t.Fatalf("children = %v", d.Children)
			}
		}
		if d.Phrase == "films" {
			t.Log("single-noun suffix also derived (allowed)")
		}
	}
	if !found {
		t.Fatalf("'animated films' not derived: %+v", derived)
	}
	// Below threshold: nothing derived.
	if got := CommonSuffixDiscovery(concepts[:2], 3, lex); len(got) != 0 {
		t.Fatalf("minFreq ignored: %+v", got)
	}
}

func TestCSDRejectsVerbSuffixes(t *testing.T) {
	lex := nlp.NewLexicon()
	lex.Register("launch", nlp.PosVerb, nlp.NerNone)
	lex.Register("event", nlp.PosNoun, nlp.NerNone)
	concepts := []string{"a launch", "b launch", "c launch"}
	for _, d := range CommonSuffixDiscovery(concepts, 2, lex) {
		if d.Phrase == "launch" {
			t.Fatal("verb suffix promoted to concept")
		}
	}
}

func TestCommonPatternDiscovery(t *testing.T) {
	events := []EventForCPD{
		{Tokens: []string{"jay", "chou", "hold", "concert"}, EntitySpans: map[int]string{0: "singer", 1: "singer"}, SearchCount: 3},
		{Tokens: []string{"taylor", "swift", "hold", "concert"}, EntitySpans: map[int]string{0: "singer", 1: "singer"}, SearchCount: 4},
		{Tokens: []string{"red", "velvet", "hold", "concert"}, EntitySpans: map[int]string{0: "singer", 1: "singer"}, SearchCount: 2},
	}
	out := CommonPatternDiscovery(events, 2, 5)
	if len(out) != 1 {
		t.Fatalf("patterns = %+v", out)
	}
	if out[0].Phrase != "singer hold concert" {
		t.Fatalf("pattern = %q", out[0].Phrase)
	}
	if len(out[0].Children) != 3 {
		t.Fatalf("children = %v", out[0].Children)
	}
	// Search-count filter.
	if got := CommonPatternDiscovery(events, 2, 100); len(got) != 0 {
		t.Fatal("minSearch ignored")
	}
	// Events without entity spans are skipped.
	if got := CommonPatternDiscovery([]EventForCPD{{Tokens: []string{"x"}}}, 1, 0); len(got) != 0 {
		t.Fatal("span-less events should not form patterns")
	}
}
