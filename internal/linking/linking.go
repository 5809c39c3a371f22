// Package linking implements §3.2, "Linking User Attentions": the
// action-driven strategies that connect the mined attention nodes into the
// ontology — attention-category isA edges from click co-occurrence,
// attention-attention isA/involve edges from suffix/pattern structure, a
// learned concept-entity isA classifier (Fig. 4's automatic dataset
// construction plus logistic regression and gradient-boosted stumps), and
// entity-entity correlate edges from hinge-loss co-occurrence embeddings.
package linking

import (
	"sort"
	"strings"

	"giant/internal/nlp"
)

// CategoryEdge links an attention phrase to a category (isA).
type CategoryEdge struct {
	Phrase   string
	Category int
	P        float64 // P(g|p)
}

// AttentionCategoryEdges estimates P(g|p) = n_p^g / n_p from per-phrase
// clicked-document category counts and keeps pairs above delta (paper
// δg = 0.3).
func AttentionCategoryEdges(clicksByCategory map[string]map[int]int, delta float64) []CategoryEdge {
	var out []CategoryEdge
	phrases := make([]string, 0, len(clicksByCategory))
	for p := range clicksByCategory {
		phrases = append(phrases, p)
	}
	sort.Strings(phrases)
	for _, p := range phrases {
		cats := clicksByCategory[p]
		total := 0
		for _, n := range cats {
			total += n
		}
		if total == 0 {
			continue
		}
		catIDs := make([]int, 0, len(cats))
		for g := range cats {
			catIDs = append(catIDs, g)
		}
		sort.Ints(catIDs)
		for _, g := range catIDs {
			if prob := float64(cats[g]) / float64(total); prob > delta {
				out = append(out, CategoryEdge{Phrase: p, Category: g, P: prob})
			}
		}
	}
	return out
}

// PhrasePair is a directed phrase-to-phrase edge proposal.
type PhrasePair struct {
	Parent, Child string
}

// SuffixIsAEdges links concept pairs where one concept is a strict token
// suffix of the other ("animated films" isA-parent of "famous animated
// films").
func SuffixIsAEdges(concepts []string) []PhrasePair {
	return suffixPairs(concepts, nil)
}

// SuffixIsAEdgesTouching is SuffixIsAEdges restricted to the pairs with at
// least one endpoint in fresh: exactly the elements of the full scan that
// pass that filter, in the same order, and nothing at all for an empty
// fresh set. The incremental path asks for a batch's new concepts only, so
// an update that adds none pays nothing for the inventory.
func SuffixIsAEdgesTouching(concepts []string, fresh map[string]bool) []PhrasePair {
	if len(fresh) == 0 {
		return nil
	}
	return suffixPairs(concepts, fresh)
}

// suffixPairs is the suffix scan; a nil fresh keeps every pair.
func suffixPairs(concepts []string, fresh map[string]bool) []PhrasePair {
	var out []PhrasePair
	bySuffix := map[string][]string{}
	set := map[string]bool{}
	for _, c := range concepts {
		set[c] = true
	}
	for _, c := range concepts {
		toks := nlp.Tokenize(c)
		for start := 1; start < len(toks); start++ {
			suf := strings.Join(toks[start:], " ")
			if set[suf] && suf != c && (fresh == nil || fresh[suf] || fresh[c]) {
				bySuffix[suf] = append(bySuffix[suf], c)
			}
		}
	}
	parents := make([]string, 0, len(bySuffix))
	for p := range bySuffix {
		parents = append(parents, p)
	}
	sort.Strings(parents)
	for _, p := range parents {
		children := bySuffix[p]
		sort.Strings(children)
		for _, c := range children {
			out = append(out, PhrasePair{Parent: p, Child: c})
		}
	}
	return out
}

// ContainmentIsAEdges links event/topic pairs where the shorter phrase's
// non-stop tokens are a subset of the longer's (§3.2: "if a topic/event
// doesn't contain an element of another topic/event phrase, it also
// indicates that they have isA relationship" — e.g. "Jay Chou will have a
// concert" isA "have a concert").
func ContainmentIsAEdges(phrases []string) []PhrasePair {
	return containmentPairs(phrases, nil)
}

// ContainmentIsAEdgesTouching is ContainmentIsAEdges restricted to the
// pairs with at least one endpoint in fresh — the same elements in the same
// order as filtering the full scan, without its all-pairs comparison:
// only (fresh, any) pairs are ever compared, and an empty fresh set costs
// nothing.
func ContainmentIsAEdgesTouching(phrases []string, fresh map[string]bool) []PhrasePair {
	if len(fresh) == 0 {
		return nil
	}
	return containmentPairs(phrases, fresh)
}

// containmentPairs is the containment scan; a nil fresh keeps every pair.
func containmentPairs(phrases []string, fresh map[string]bool) []PhrasePair {
	// Positions whose phrase is fresh: every emitted pair has one of them
	// as an endpoint.
	var freshAt []int
	for i, p := range phrases {
		if fresh == nil || fresh[p] {
			freshAt = append(freshAt, i)
		}
	}
	if len(freshAt) == 0 {
		return nil
	}
	// Per phrase, its set of non-stop tokens.
	sets := make([]map[string]bool, 0, len(phrases))
	for _, p := range phrases {
		ts := map[string]bool{}
		for _, t := range nlp.Tokenize(p) {
			if !nlp.IsStopWord(t) {
				ts[t] = true
			}
		}
		sets = append(sets, ts)
	}
	var out []PhrasePair
	// emit appends parent i -> child j when i's token set is a non-empty,
	// strictly smaller subset of j's.
	emit := func(i, j int) {
		if i == j || len(sets[i]) == 0 || len(sets[i]) >= len(sets[j]) {
			return
		}
		for t := range sets[i] {
			if !sets[j][t] {
				return
			}
		}
		out = append(out, PhrasePair{Parent: phrases[i], Child: phrases[j]})
	}
	for _, f := range freshAt {
		for j := range sets {
			emit(f, j)
			// The reverse ordered pair, unless j is fresh too: then the
			// outer loop reaches it as f.
			if fresh != nil && !fresh[phrases[j]] {
				emit(j, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Parent != out[j].Parent {
			return out[i].Parent < out[j].Parent
		}
		return out[i].Child < out[j].Child
	})
	return out
}

// ConceptTopicInvolveEdges connects a concept to a topic when the concept
// phrase is contained in the topic phrase (§3.2).
func ConceptTopicInvolveEdges(concepts, topics []string) []PhrasePair {
	var out []PhrasePair
	for _, tp := range topics {
		padded := " " + strings.Join(nlp.Tokenize(tp), " ") + " "
		for _, c := range concepts {
			cp := " " + strings.Join(nlp.Tokenize(c), " ") + " "
			if strings.Contains(padded, cp) {
				out = append(out, PhrasePair{Parent: tp, Child: c})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Parent != out[j].Parent {
			return out[i].Parent < out[j].Parent
		}
		return out[i].Child < out[j].Child
	})
	return out
}
