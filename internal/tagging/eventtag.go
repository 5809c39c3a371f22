package tagging

import (
	"math/rand"

	"giant/internal/nlp"
	"giant/internal/nn"
	"giant/internal/ontology"
)

// EventTagger tags documents with topic/event phrases by combining
// LCS-based textual matching with a Duet-style learned matcher (§4: both
// must fire for a tag to be assigned).
type EventTagger struct {
	Onto *ontology.Snapshot
	Duet *Duet
}

// lcsThreshold is the minimum normalized LCS length of an event or topic
// tag. Partial's candidate prune relies on it being positive.
const lcsThreshold = 0.5

// NewEventTagger builds the tagger. A nil duet degrades to LCS-only
// matching (useful when serving a persisted ontology with no trained
// matcher at hand).
func NewEventTagger(onto *ontology.Snapshot, duet *Duet) *EventTagger {
	return &EventTagger{Onto: onto, Duet: duet}
}

// docString is the matching text: title plus first content sentence.
func docString(doc *Document) []string {
	toks := nlp.Tokenize(doc.Title)
	if i := indexByte(doc.Content, '.'); i > 0 {
		toks = append(toks, nlp.Tokenize(doc.Content[:i])...)
	}
	return toks
}

// DocTokens exposes the event-matching token stream (the title plus the
// first content sentence, lowercased by tokenization) for shard routing: a
// candidate event or topic needs a positive normalized LCS with this
// stream, i.e. at least one shared token, and every token of a phrase is a
// substring of it — so a scope whose term grams hit none of these tokens
// provably contributes no event candidates.
func DocTokens(doc *Document) []string {
	return docString(doc)
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// TagEvents returns event/topic tags for a document, as the merge of a
// single partial over the tagger's whole view — the same code path the
// sharded merge sites run.
func (t *EventTagger) TagEvents(doc *Document) []Tag {
	return MergeEventCands(t.Partial(ontology.UnionScope(t.Onto), doc))
}

// LCSLen is the longest-common-subsequence length between token sequences.
func LCSLen(a, b []string) int {
	return lcsLen(a, b, make([]int, 2*(len(b)+1)))
}

// lcsLen is LCSLen over caller-owned scratch of at least 2(len(b)+1) ints,
// so scoring many phrases against one document allocates its rows once.
func lcsLen(a, b []string, scratch []int) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	prev, cur := scratch[:len(b)+1], scratch[len(b)+1:2*(len(b)+1)]
	clear(prev)
	clear(cur)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// Duet is a compact stand-in for the Duet matching network [42]: a local
// interaction signal (exact-match statistics) and a distributed signal
// (hashed bag-of-token embedding cosine) fused by a tiny learned MLP.
type Duet struct {
	Dim    int
	hidden *nn.Dense
	out    *nn.Dense
}

// NewDuet builds an untrained matcher.
func NewDuet(seed int64) *Duet {
	rng := rand.New(rand.NewSource(seed))
	d := &Duet{Dim: 16}
	d.hidden = nn.NewDense("duet.h", 4, 8, rng)
	d.out = nn.NewDense("duet.o", 8, 1, rng)
	return d
}

// duetDoc is a document encoded once for scoring many phrases against it:
// its tokens, their set, their hashed embedding and the LCS rows.
type duetDoc struct {
	toks    []string
	set     map[string]bool
	emb     []float64
	scratch []int
}

func (d *Duet) encodeDoc(docToks []string) *duetDoc {
	set := map[string]bool{}
	for _, t := range docToks {
		set[t] = true
	}
	return &duetDoc{toks: docToks, set: set, emb: hashEmbed(docToks, d.Dim), scratch: make([]int, 2*(len(docToks)+1))}
}

// features builds the 4-d local+distributed feature vector.
func (d *Duet) features(pToks []string, doc *duetDoc) []float64 {
	overlap, nonstop, covered := 0.0, 0.0, 0.0
	for _, t := range pToks {
		if doc.set[t] {
			overlap++
			if !nlp.IsStopWord(t) {
				covered++
			}
		}
		if !nlp.IsStopWord(t) {
			nonstop++
		}
	}
	f1 := overlap / float64(len(pToks))
	f2 := 0.0
	if nonstop > 0 {
		f2 = covered / nonstop
	}
	f3 := float64(lcsLen(pToks, doc.toks, doc.scratch)) / float64(len(pToks))
	f4 := nn.CosineSim(hashEmbed(pToks, d.Dim), doc.emb)
	return []float64{f1, f2, f3, f4}
}

// score returns the match probability.
func (d *Duet) score(pToks []string, doc *duetDoc) float64 {
	x := nn.NewMatFrom(1, 4, d.features(pToks, doc))
	h := nn.ReLU(d.hidden.Forward(x))
	z := d.out.Forward(h)
	return nn.Sigmoid(z.At(0, 0))
}

// Match applies a 0.5 decision threshold.
func (d *Duet) Match(pToks, docToks []string) bool {
	return d.match(pToks, d.encodeDoc(docToks))
}

func (d *Duet) match(pToks []string, doc *duetDoc) bool {
	return d.score(pToks, doc) >= 0.5
}

// DuetExample is a labelled (phrase, doc) pair for training.
type DuetExample struct {
	Phrase []string
	Doc    []string
	Label  bool
}

// Train fits the matcher with SGD on logistic loss.
func (d *Duet) Train(examples []DuetExample, epochs int, lr float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	params := append(d.hidden.Params(), d.out.Params()...)
	adam := nn.NewAdam(lr, params)
	idx := make([]int, len(examples))
	for i := range idx {
		idx[i] = i
	}
	for ep := 0; ep < epochs; ep++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			e := &examples[i]
			x := nn.NewMatFrom(1, 4, d.features(e.Phrase, d.encodeDoc(e.Doc)))
			pre := d.hidden.Forward(x)
			h := nn.ReLU(pre)
			z := d.out.Forward(h)
			target := 0.0
			if e.Label {
				target = 1
			}
			p := nn.Sigmoid(z.At(0, 0))
			dz := nn.NewMat(1, 1)
			dz.Set(0, 0, p-target)
			dh := d.out.Backward(dz)
			dPre := nn.ReLUBackward(dh, pre)
			d.hidden.Backward(dPre)
			adam.Step()
		}
	}
}

func hashEmbed(toks []string, dim int) []float64 {
	v := make([]float64, dim)
	for _, t := range toks {
		if nlp.IsStopWord(t) {
			continue
		}
		h := uint64(1469598103934665603)
		for _, c := range t {
			h = (h ^ uint64(c)) * 1099511628211
		}
		for i := 0; i < dim; i++ {
			h = h*6364136223846793005 + 1442695040888963407
			v[i] += float64(int64(h>>33))/float64(1<<30) - 1
		}
	}
	return v
}
