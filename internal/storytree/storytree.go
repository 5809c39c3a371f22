// Package storytree implements §4's story-tree formation: retrieve events
// correlated with a seed event, score pairwise similarity (Eq. 8–11:
// phrase-encoding cosine + trigger-vector cosine + entity-set TF-IDF
// similarity), cluster hierarchically, and assemble a time-ordered tree
// whose branches are the clusters.
package storytree

import (
	"fmt"
	"io"
	"math"
	"sort"

	"giant/internal/nlp"
	"giant/internal/ontology"
	"giant/internal/phrase"
)

// EventNode is one event offered to story-tree formation.
type EventNode struct {
	// ID is the event's union node ID when extracted from an ontology view
	// (zero for hand-built nodes). Sharded serving merges per-shard
	// fragment lists by ascending ID to reproduce the union's candidate
	// order.
	ID       ontology.NodeID `json:"id,omitempty"`
	Phrase   string          `json:"phrase"`
	Trigger  string          `json:"trigger,omitempty"`
	Entities []string        `json:"entities,omitempty"`
	Location string          `json:"location,omitempty"`
	Day      int             `json:"day,omitempty"`
	Docs     []string        `json:"docs,omitempty"` // titles of documents tagged with this event
}

// Encoder supplies dense phrase/word vectors (the BERT / skip-gram
// substitute — any embedding with meaningful cosine works).
type Encoder interface {
	PhraseVector(phrase string) []float64
	WordVector(word string) []float64
}

// Options configure formation.
type Options struct {
	// LinkThreshold is the minimum similarity for two events to share a
	// cluster during agglomerative clustering.
	LinkThreshold float64
	// RequireSharedEntityOrTrigger restricts retrieval per §4 ("share at
	// least one common child entity ... or force the triggers to be the
	// same").
	RequireSharedEntityOrTrigger bool
}

// DefaultOptions mirror the paper's retrieval criteria.
func DefaultOptions() Options {
	return Options{LinkThreshold: 1.2, RequireSharedEntityOrTrigger: true}
}

// Similarity is Eq. (8): s = fm + fg + fe. It scores one pair the way
// Form scores every pair of the events it retrieves.
func Similarity(a, b *EventNode, enc Encoder, tfidf *phrase.TFIDF) float64 {
	return encode(a, enc, tfidf).similarity(encode(b, enc, tfidf))
}

// encoded is an event as Eq. (8) reads it: its phrase encoding, its trigger
// word vector (nil without a trigger) and its entity-set TF-IDF vector.
// Form encodes each retrieved event once and scores every pair from these.
type encoded struct {
	*EventNode
	phrase   []float64
	trigger  []float64
	entities phrase.Sorted
}

func encode(e *EventNode, enc Encoder, tfidf *phrase.TFIDF) *encoded {
	x := &encoded{EventNode: e, phrase: enc.PhraseVector(e.Phrase), entities: phrase.SortVector(tfidf.Vector(e.Entities))}
	if e.Trigger != "" {
		x.trigger = enc.WordVector(e.Trigger)
	}
	return x
}

// similarity is Eq. (8) over two encoded events. It is symmetric to the
// bit: each term's products commute and its sums run in an order that does
// not depend on which event comes first.
func (a *encoded) similarity(b *encoded) float64 {
	return a.fm(b) + a.fg(b) + a.fe(b)
}

// fm is Eq. (9): cosine similarity of phrase encodings.
func (a *encoded) fm(b *encoded) float64 {
	return cos(a.phrase, b.phrase)
}

// fg is Eq. (10): cosine similarity of trigger word vectors.
func (a *encoded) fg(b *encoded) float64 {
	if a.Trigger == "" || b.Trigger == "" {
		return 0
	}
	if a.Trigger == b.Trigger {
		return 1
	}
	return cos(a.trigger, b.trigger)
}

// fe is Eq. (11): TF-IDF similarity of the entity sets.
func (a *encoded) fe(b *encoded) float64 {
	return a.entities.Cosine(b.entities)
}

// Tree is a story tree: a root story node whose branches are event chains.
type Tree struct {
	Seed     string
	Branches [][]*EventNode // each branch is time-ordered
}

// Retrieve filters candidates down to events correlated with the seed.
func Retrieve(seed *EventNode, candidates []*EventNode, opt Options) []*EventNode {
	out := []*EventNode{seed}
	seedEnts := map[string]bool{}
	for _, e := range seed.Entities {
		seedEnts[e] = true
	}
	for _, c := range candidates {
		if c == seed || c.Phrase == seed.Phrase {
			continue
		}
		if opt.RequireSharedEntityOrTrigger {
			shared := c.Trigger != "" && c.Trigger == seed.Trigger
			for _, e := range c.Entities {
				if seedEnts[e] {
					shared = true
					break
				}
			}
			if !shared {
				continue
			}
		}
		out = append(out, c)
	}
	return out
}

// Form builds the story tree for seed from the candidate events.
func Form(seed *EventNode, candidates []*EventNode, enc Encoder, opt Options) *Tree {
	events := Retrieve(seed, candidates, opt)
	// Entity-set TF-IDF statistics over the retrieved events.
	tfidf := phrase.NewTFIDF()
	for _, e := range events {
		tfidf.AddDoc(e.Entities)
	}
	// Pairwise similarity matrix; similarity is symmetric, so each pair is
	// scored once.
	n := len(events)
	encs := make([]*encoded, n)
	for i, e := range events {
		encs[i] = encode(e, enc, tfidf)
	}
	sim := make([][]float64, n)
	for i := range sim {
		sim[i] = make([]float64, n)
		for j := 0; j < i; j++ {
			sim[i][j] = encs[i].similarity(encs[j])
			sim[j][i] = sim[i][j]
		}
	}
	clusters := agglomerate(sim, opt.LinkThreshold)

	tree := &Tree{Seed: seed.Phrase}
	for _, cl := range clusters {
		branch := make([]*EventNode, 0, len(cl))
		for _, i := range cl {
			branch = append(branch, events[i])
		}
		sort.SliceStable(branch, func(a, b int) bool { return branch[a].Day < branch[b].Day })
		tree.Branches = append(tree.Branches, branch)
	}
	// Order branches by their earliest event.
	sort.SliceStable(tree.Branches, func(a, b int) bool {
		return tree.Branches[a][0].Day < tree.Branches[b][0].Day
	})
	return tree
}

// agglomerate is average-linkage hierarchical clustering that stops when no
// pair of clusters exceeds the threshold.
func agglomerate(sim [][]float64, threshold float64) [][]int {
	n := len(sim)
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	for {
		bi, bj, best := -1, -1, threshold
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				s := avgLink(sim, clusters[i], clusters[j])
				if s > best {
					bi, bj, best = i, j, s
				}
			}
		}
		if bi < 0 {
			break
		}
		clusters[bi] = append(clusters[bi], clusters[bj]...)
		clusters = append(clusters[:bj], clusters[bj+1:]...)
	}
	return clusters
}

func avgLink(sim [][]float64, a, b []int) float64 {
	s := 0.0
	for _, i := range a {
		for _, j := range b {
			s += sim[i][j]
		}
	}
	return s / float64(len(a)*len(b))
}

// Events returns all events in the tree, time-ordered.
func (t *Tree) Events() []*EventNode {
	var out []*EventNode
	for _, b := range t.Branches {
		out = append(out, b...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Day < out[j].Day })
	return out
}

// FollowUps returns events in the tree occurring after day — the
// recommendation payload ("recommend follow-up events", §4).
func (t *Tree) FollowUps(day int) []*EventNode {
	var out []*EventNode
	for _, e := range t.Events() {
		if e.Day > day {
			out = append(out, e)
		}
	}
	return out
}

// Render prints the tree in a Figure 5 style layout.
func (t *Tree) Render(w io.Writer) {
	fmt.Fprintf(w, "story: %s\n", t.Seed)
	for bi, branch := range t.Branches {
		fmt.Fprintf(w, "  branch %d:\n", bi+1)
		for _, e := range branch {
			loc := e.Location
			if loc != "" {
				loc = " @" + loc
			}
			fmt.Fprintf(w, "    day %2d  %s%s\n", e.Day, e.Phrase, loc)
		}
	}
}

// BagOfTokensEncoder is a simple Encoder averaging word vectors from a
// lookup; unknown words hash to a deterministic pseudo-vector so cosine
// stays meaningful on synthetic vocabularies.
type BagOfTokensEncoder struct {
	Dim     int
	Vectors map[string][]float64
}

// NewBagOfTokensEncoder wraps a word-vector table.
func NewBagOfTokensEncoder(dim int, vectors map[string][]float64) *BagOfTokensEncoder {
	return &BagOfTokensEncoder{Dim: dim, Vectors: vectors}
}

// WordVector implements Encoder.
func (b *BagOfTokensEncoder) WordVector(word string) []float64 {
	if v, ok := b.Vectors[word]; ok {
		return v
	}
	// Deterministic hash vector.
	v := make([]float64, b.Dim)
	h := uint64(1469598103934665603)
	for _, c := range word {
		h = (h ^ uint64(c)) * 1099511628211
	}
	for i := range v {
		h = h*6364136223846793005 + 1442695040888963407
		v[i] = float64(int64(h>>33))/float64(1<<30) - 1
	}
	return v
}

// PhraseVector implements Encoder: the mean of non-stop word vectors.
func (b *BagOfTokensEncoder) PhraseVector(p string) []float64 {
	out := make([]float64, b.Dim)
	n := 0
	for _, t := range nlp.Tokenize(p) {
		if nlp.IsStopWord(t) {
			continue
		}
		v := b.WordVector(t)
		for i := range out {
			out[i] += v[i]
		}
		n++
	}
	if n > 0 {
		for i := range out {
			out[i] /= float64(n)
		}
	}
	return out
}

func cos(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}
