// Package tagging implements §4's document tagging: concept tagging through
// key entities and their ontology parents (with TF-IDF coherence scoring)
// plus the probabilistic context-inference fallback of Eq. (12)–(14), and
// topic/event tagging by longest-common-subsequence matching combined with a
// learned Duet-style semantic matcher.
package tagging

import (
	"giant/internal/nlp"
	"giant/internal/ontology"
	"giant/internal/phrase"
)

// Document is the tagger's input view.
type Document struct {
	ID       int
	Title    string
	Content  string
	Entities []string // key entity surface forms (from upstream NER)
}

// Tag is one assigned attention tag.
type Tag struct {
	Phrase string
	Type   ontology.NodeType
	Score  float64
}

// ConceptTagger tags documents with concepts from an ontology snapshot.
type ConceptTagger struct {
	Onto *ontology.Snapshot
	// ContextRep maps concept phrase -> context-enriched representation
	// tokens (phrase + its top clicked titles).
	ContextRep map[string][]string
	TFIDF      *phrase.TFIDF
	// CoherenceThreshold gates match-based tagging.
	CoherenceThreshold float64
	// InferThreshold gates the probabilistic fallback of Eq. (12).
	InferThreshold float64

	index *ConceptIndex
}

// NewConceptTagger builds the tagger; contextRep may be nil (degrades to
// phrase-only representations).
func NewConceptTagger(onto *ontology.Snapshot, contextRep map[string][]string) *ConceptTagger {
	t := &ConceptTagger{
		Onto:               onto,
		ContextRep:         contextRep,
		CoherenceThreshold: DefaultCoherenceThreshold,
		InferThreshold:     DefaultInferThreshold,
	}
	t.index = NewConceptIndex(t.ConceptStats(ontology.UnionScope(onto)))
	t.TFIDF = t.index.TFIDF
	return t
}

func (t *ConceptTagger) repOf(conceptPhrase string) []string {
	if rep, ok := t.ContextRep[conceptPhrase]; ok && len(rep) > 0 {
		out := append([]string(nil), nlp.Tokenize(conceptPhrase)...)
		for _, title := range rep {
			out = append(out, nlp.Tokenize(title)...)
		}
		return out
	}
	return nlp.Tokenize(conceptPhrase)
}

// TagConcepts returns concept tags for a document: candidates are the
// ontology IsA-parents of the document's key entities, scored by TF-IDF
// coherence between the title and the concept's context-enriched
// representation; when no parent is known, Eq. (12)–(14) infer concepts from
// entity context words. Implemented as the merge of a single partial over
// the tagger's whole view, the same code path the sharded merge sites run.
func (t *ConceptTagger) TagConcepts(doc *Document) []Tag {
	slots := t.MatchPartial(ontology.UnionScope(t.Onto), doc)
	return t.index.Tag(doc, slots, t.CoherenceThreshold, t.InferThreshold)
}
