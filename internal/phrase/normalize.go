// Package phrase implements attention-phrase post-processing from §3.1:
// normalization (merging near-duplicate phrasings by non-stop-token
// similarity plus TF-IDF similarity of context-enriched representations),
// Common Suffix Discovery for deriving higher-level concepts, and Common
// Pattern Discovery for deriving topics from events.
package phrase

import (
	"math"
	"sort"
	"strings"

	"giant/internal/nlp"
)

// TFIDF is a small TF-IDF vector-space model over token documents.
type TFIDF struct {
	df   map[string]int
	docs int
}

// NewTFIDF returns an empty model.
func NewTFIDF() *TFIDF { return &TFIDF{df: make(map[string]int)} }

// AddDoc updates document frequencies with one document's tokens.
func (t *TFIDF) AddDoc(tokens []string) {
	t.docs++
	seen := map[string]bool{}
	for _, tok := range tokens {
		if !seen[tok] {
			seen[tok] = true
			t.df[tok]++
		}
	}
}

// Vector returns the TF-IDF weight map of a document.
func (t *TFIDF) Vector(tokens []string) map[string]float64 {
	tf := map[string]float64{}
	for _, tok := range tokens {
		tf[tok]++
	}
	out := make(map[string]float64, len(tf))
	n := float64(t.docs)
	if n == 0 {
		n = 1
	}
	for tok, f := range tf {
		// Smoothed IDF (the "+1" keeps corpus-wide terms from collapsing to
		// zero weight on the small per-cluster corpora this model sees).
		idf := math.Log((n+1)/(float64(t.df[tok])+1)) + 1
		out[tok] = f * idf
	}
	return out
}

// Cosine returns cosine similarity between two sparse vectors. Keys are
// accumulated in sorted order so the float result is identical across
// processes regardless of map iteration order.
func Cosine(a, b map[string]float64) float64 {
	return SortVector(a).Cosine(SortVector(b))
}

// Term is one weighted key of a Sorted vector.
type Term struct {
	Key    string
	Weight float64
}

// Sorted is a sparse vector as key-sorted terms plus its squared norm, the
// form Cosine compares: a vector compared many times is sorted once.
type Sorted struct {
	Terms []Term
	Norm2 float64 // Σ w², summed in key order
}

// SortVector sorts a sparse vector's terms by key and sums its squared
// norm in that order.
func SortVector(m map[string]float64) Sorted {
	v := Sorted{Terms: make([]Term, 0, len(m))}
	for k, w := range m {
		v.Terms = append(v.Terms, Term{k, w})
	}
	sort.Slice(v.Terms, func(i, j int) bool { return v.Terms[i].Key < v.Terms[j].Key })
	for _, t := range v.Terms {
		v.Norm2 += t.Weight * t.Weight
	}
	return v
}

// Cosine is the cosine similarity of two sorted vectors: a merge join adds
// the products of shared keys in ascending key order.
func (a Sorted) Cosine(b Sorted) float64 {
	if a.Norm2 == 0 || b.Norm2 == 0 {
		return 0
	}
	var dot float64
	j := 0
	for _, t := range a.Terms {
		for j < len(b.Terms) && b.Terms[j].Key < t.Key {
			j++
		}
		if j < len(b.Terms) && b.Terms[j].Key == t.Key {
			dot += t.Weight * b.Terms[j].Weight
		}
	}
	return dot / math.Sqrt(a.Norm2*b.Norm2)
}

// Normalizer merges highly similar phrases into a single canonical node
// (§3.1 "Attention Phrase Normalization"): two phrases merge when (i) their
// non-stop words are the same (the paper also merges synonyms; there is no
// synonym table here) and (ii) the TF-IDF similarity of their
// context-enriched representations (phrase + top clicked titles) exceeds
// Threshold.
type Normalizer struct {
	Threshold float64
	tfidf     *TFIDF

	canon []normEntry
	byKey map[string]int // sorted canonical non-stop tokens -> entry
}

type normEntry struct {
	Phrase string
	ctx    map[string]float64
}

// NewNormalizer builds a normalizer.
func NewNormalizer(threshold float64) *Normalizer {
	return &Normalizer{Threshold: threshold, tfidf: NewTFIDF(), byKey: map[string]int{}}
}

// contextTokens builds the context-enriched representation: the phrase's own
// tokens plus its top clicked titles.
func contextTokens(phrase string, topTitles []string) []string {
	toks := nlp.Tokenize(phrase)
	for _, t := range topTitles {
		toks = append(toks, nlp.Tokenize(t)...)
	}
	return toks
}

// key canonicalizes non-stop tokens (sorted).
func (n *Normalizer) key(phrase string) string {
	var toks []string
	for _, t := range nlp.Tokenize(phrase) {
		if !nlp.IsStopWord(t) {
			toks = append(toks, t)
		}
	}
	sort.Strings(toks)
	return strings.Join(toks, " ")
}

// Observe feeds a phrase context into the TF-IDF statistics (call for all
// phrases before Add for stable IDF, or interleave for streaming behaviour).
func (n *Normalizer) Observe(phrase string, topTitles []string) {
	n.tfidf.AddDoc(contextTokens(phrase, topTitles))
}

// Add normalizes a phrase: returns the canonical phrase and whether the
// input was merged into an existing node (true) or became a new canonical
// phrase (false).
func (n *Normalizer) Add(phrase string, topTitles []string) (canonical string, merged bool) {
	ctx := n.tfidf.Vector(contextTokens(phrase, topTitles))
	k := n.key(phrase)
	if idx, ok := n.byKey[k]; ok {
		e := &n.canon[idx]
		if Cosine(ctx, e.ctx) >= n.Threshold {
			return e.Phrase, true
		}
	}
	n.byKey[k] = len(n.canon)
	n.canon = append(n.canon, normEntry{Phrase: phrase, ctx: ctx})
	return phrase, false
}
