package tagging

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"giant/internal/nlp"
	"giant/internal/ontology"
	"giant/internal/phrase"
)

// This file decomposes document tagging into per-scope partials plus a
// deterministic merge, the core of the union-exact sharded application
// endpoints: each scope of a partition (see ontology.Scope) extracts raw
// candidates over its home nodes only, carrying union IDs, and a merge site
// folds them into the final tag list. Merging the single partial of a
// UnionScope IS the single-snapshot computation, so TagConcepts/TagEvents
// are themselves implemented on top of this and every serving mode shares
// one code path.
//
// The split relies on the home partition invariants: every union node is
// home in exactly one scope, a home node's edges are all present in its
// scope's view, and ghost endpoints carry exact phrases and types.
//
// Candidate representations (ConceptRef.Rep) are computed by the home scope
// from its own ContextRep configuration; fleets must run every shard and the
// merge site with the same tagger configuration (context representations,
// thresholds, Duet weights) for merged answers to be union-exact.

// Default thresholds shared by all merge sites.
const (
	DefaultCoherenceThreshold = 0.05
	DefaultInferThreshold     = 0.05
)

// ConceptRef is a concept carried across the wire: its union ID, canonical
// phrase, and context-enriched representation tokens.
type ConceptRef struct {
	ID     ontology.NodeID `json:"id"`
	Phrase string          `json:"phrase"`
	Rep    []string        `json:"rep,omitempty"`
}

// EventCand is a thresholded event/topic tag candidate scored by its home
// scope.
type EventCand struct {
	Phrase string            `json:"phrase"`
	Type   ontology.NodeType `json:"type"`
	Score  float64           `json:"score"`
}

// ConceptStats exports the scope's home concepts with their representation
// tokens — the per-scope half of a merged ConceptIndex. The result depends
// only on the scope's published generation, so callers cache it per
// generation.
func (t *ConceptTagger) ConceptStats(scope ontology.Scope) []ConceptRef {
	nodes := scope.HomeNodes(ontology.Concept)
	out := make([]ConceptRef, len(nodes))
	for i := range nodes {
		out[i] = ConceptRef{ID: nodes[i].ID, Phrase: nodes[i].Phrase, Rep: t.repOf(nodes[i].Phrase)}
	}
	return out
}

// MatchPartial resolves each document entity against the scope's home nodes
// and reports its Concept IsA-parents in edge order. The slot for an entity
// that is not home in this scope stays nil; exactly one scope of a partition
// owns each known entity, so merged slots never conflict. Parents that are
// ghosts locally still carry exact phrases and union IDs.
func (t *ConceptTagger) MatchPartial(scope ontology.Scope, doc *Document) [][]ConceptRef {
	out := make([][]ConceptRef, len(doc.Entities))
	for i, entName := range doc.Entities {
		_, local, ok := scope.FindHome(ontology.Entity, entName)
		if !ok {
			continue
		}
		cands := []ConceptRef{}
		for _, parent := range scope.Snap.Parents(local, ontology.IsA) {
			if parent.Type != ontology.Concept {
				continue
			}
			cands = append(cands, ConceptRef{ID: scope.UID(parent.ID), Phrase: parent.Phrase, Rep: t.rep(parent)})
		}
		out[i] = cands
	}
	return out
}

// rep returns a concept's representation tokens. A concept of the
// tagger's own view reads the representation NewConceptTagger computed for
// it (shared and read-only), found by its local ID; any other, such as one
// added to a mutable view since, is tokenized afresh.
func (t *ConceptTagger) rep(c ontology.Node) []string {
	cs := t.index.Concepts
	i, ok := slices.BinarySearchFunc(cs, c.ID, func(r ConceptRef, id ontology.NodeID) int { return cmp.Compare(r.ID, id) })
	if ok && cs[i].Phrase == c.Phrase {
		return cs[i].Rep
	}
	return t.repOf(c.Phrase)
}

// MergeMatchSlots combines per-scope match partials: each entity slot is
// owned by at most one scope, so the merged slot is the one non-nil list.
func MergeMatchSlots(parts [][][]ConceptRef, entities int) [][]ConceptRef {
	out := make([][]ConceptRef, entities)
	for _, p := range parts {
		for i := 0; i < entities && i < len(p); i++ {
			if p[i] != nil {
				out[i] = p[i]
			}
		}
	}
	return out
}

// ConceptIndex is the merge-site concept model: the union's concepts in
// ascending union-ID order, the TF-IDF statistics over their
// representations, and the context-word inverted index used by the
// Eq. (12)–(14) inference fallback. Built from merged per-scope
// ConceptStats, it is identical to the model a single union snapshot
// produces, because TF-IDF document frequencies are integer counters
// (order-independent) and the ID sort reproduces the union's concept order.
type ConceptIndex struct {
	Concepts []ConceptRef
	TFIDF    *phrase.TFIDF

	wordConcepts map[string][]int
}

// NewConceptIndex merges per-scope concept stats into the union model.
func NewConceptIndex(parts ...[]ConceptRef) *ConceptIndex {
	var all []ConceptRef
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	ix := &ConceptIndex{
		Concepts:     all,
		TFIDF:        phrase.NewTFIDF(),
		wordConcepts: map[string][]int{},
	}
	for ci := range all {
		ix.TFIDF.AddDoc(all[ci].Rep)
		for _, tok := range nlp.Tokenize(all[ci].Phrase) {
			ix.wordConcepts[tok] = append(ix.wordConcepts[tok], ci)
		}
	}
	return ix
}

// Tag is the merge fold for concept tagging: candidates from the merged
// entity slots (deduplicated by phrase in document-entity order) are scored
// by TF-IDF coherence; when no entity had a known Concept parent anywhere,
// the Eq. (12)–(14) inference fallback runs over the merged concept list.
func (ix *ConceptIndex) Tag(doc *Document, entitySlots [][]ConceptRef, coherence, infer float64) []Tag {
	titleVec := ix.TFIDF.Vector(nlp.Tokenize(doc.Title))
	var tags []Tag
	seen := map[string]bool{}
	foundParent := false
	for _, cands := range entitySlots {
		for _, cand := range cands {
			if seen[cand.Phrase] {
				continue
			}
			seen[cand.Phrase] = true
			foundParent = true
			score := phrase.Cosine(titleVec, ix.TFIDF.Vector(cand.Rep))
			if score >= coherence {
				tags = append(tags, Tag{Phrase: cand.Phrase, Type: ontology.Concept, Score: score})
			}
		}
	}
	if !foundParent {
		tags = append(tags, ix.inferConcepts(doc, infer)...)
	}
	sortTags(tags)
	return tags
}

// inferConcepts is the Eq. (12)–(14) fallback: P(pc|d) = Σ_i P(pc|e_i)
// P(e_i|d), with P(pc|e_i) inferred from the entity's context words x_j
// (same-sentence co-occurrence) and P(pc|x_j) uniform over concepts
// containing x_j. Context words are folded in sorted order so the float
// accumulation sequence — and therefore the scores — are identical on every
// merge site.
func (ix *ConceptIndex) inferConcepts(doc *Document, threshold float64) []Tag {
	if len(doc.Entities) == 0 {
		return nil
	}
	sentences := strings.Split(doc.Content, ".")

	// P(e|d): entity mention frequency.
	entFreq := map[string]float64{}
	total := 0.0
	content := " " + strings.ToLower(doc.Content) + " "
	for _, e := range doc.Entities {
		f := float64(strings.Count(content, " "+strings.ToLower(e)+" "))
		if f == 0 {
			f = 1
		}
		entFreq[e] = f
		total += f
	}

	scores := make([]float64, len(ix.Concepts))
	for _, e := range doc.Entities {
		pe := entFreq[e] / total
		// Context words of e: same-sentence tokens.
		ctxCount := map[string]float64{}
		ctxTotal := 0.0
		for _, s := range sentences {
			ls := strings.ToLower(s)
			if !strings.Contains(ls, strings.ToLower(e)) {
				continue
			}
			for _, tok := range nlp.Tokenize(s) {
				if nlp.IsStopWord(tok) {
					continue
				}
				ctxCount[tok]++
				ctxTotal++
			}
		}
		if ctxTotal == 0 {
			continue
		}
		words := make([]string, 0, len(ctxCount))
		for x := range ctxCount {
			words = append(words, x)
		}
		sort.Strings(words)
		for _, x := range words {
			cis := ix.wordConcepts[x]
			if len(cis) == 0 {
				continue
			}
			pxGivenE := ctxCount[x] / ctxTotal
			pcGivenX := 1 / float64(len(cis))
			for _, ci := range cis {
				scores[ci] += pcGivenX * pxGivenE * pe
			}
		}
	}
	var tags []Tag
	for ci, s := range scores {
		if s >= threshold {
			tags = append(tags, Tag{Phrase: ix.Concepts[ci].Phrase, Type: ontology.Concept, Score: s})
		}
	}
	return tags
}

// sortTags orders concept tags by score (descending) then phrase. Concept
// phrases are unique, so the comparator is total.
func sortTags(tags []Tag) {
	sort.Slice(tags, func(i, j int) bool {
		if tags[i].Score != tags[j].Score {
			return tags[i].Score > tags[j].Score
		}
		return tags[i].Phrase < tags[j].Phrase
	})
}

// Partial scores the scope's home event and topic phrases against the
// document, applying both the LCS threshold and the Duet matcher locally;
// only surviving candidates cross the wire. Phrases arrive tokenized from
// the scope's view, and the document is encoded for the matcher once, on
// the first phrase that passes the threshold.
//
// Only phrases with at least half of their token positions holding a
// document token are scored: the LCS of a phrase and the document is at
// most that many positions, so every phrase skipped would fall under the
// threshold anyway.
func (t *EventTagger) Partial(scope ontology.Scope, doc *Document) []EventCand {
	docToks := docString(doc)
	scratch := make([]int, 2*(len(docToks)+1))
	var enc *duetDoc
	var out []EventCand
	for _, typ := range []ontology.NodeType{ontology.Event, ontology.Topic} {
		for p := range scope.HomePhrases(typ, docToks, lcsThreshold) {
			l := lcsLen(p.Tokens, docToks, scratch)
			norm := float64(l) / float64(len(p.Tokens))
			if norm < lcsThreshold {
				continue
			}
			if t.Duet != nil {
				if enc == nil {
					enc = t.Duet.encodeDoc(docToks)
				}
				if !t.Duet.match(p.Tokens, enc) {
					continue
				}
			}
			out = append(out, EventCand{Phrase: p.Phrase, Type: typ, Score: norm})
		}
	}
	return out
}

// MergeEventCands folds per-scope event partials into the final tag list.
// The comparator breaks score ties by phrase then node type, so it is total
// even when one phrase names both an event and a topic — which makes the
// merged order independent of which scope contributed which candidate.
func MergeEventCands(parts ...[]EventCand) []Tag {
	var all []EventCand
	for _, p := range parts {
		all = append(all, p...)
	}
	if len(all) == 0 {
		return nil
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		if all[i].Phrase != all[j].Phrase {
			return all[i].Phrase < all[j].Phrase
		}
		return all[i].Type < all[j].Type
	})
	tags := make([]Tag, len(all))
	for i, c := range all {
		tags[i] = Tag{Phrase: c.Phrase, Type: c.Type, Score: c.Score}
	}
	return tags
}
