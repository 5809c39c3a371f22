package ontology

import (
	"strings"
	"sync"

	"giant/internal/nlp"
)

// PhraseTokens is a node's phrase as the §4 matchers read it: Tokens is
// nlp.Tokenize(Phrase) and Norm is those tokens joined by single spaces
// (the normalized form query understanding compares).
type PhraseTokens struct {
	ID     NodeID
	Phrase string
	Tokens []string
	Norm   string
}

// phraseTokensBox holds one node type's tokenized phrases, built on first
// use.
type phraseTokensBox struct {
	once sync.Once
	list []PhraseTokens
}

// tokenizePhrases tokenizes the phrases of nodes, keeping their order.
func tokenizePhrases(nodes []Node) []PhraseTokens {
	out := make([]PhraseTokens, len(nodes))
	for i := range nodes {
		toks := nlp.Tokenize(nodes[i].Phrase)
		out[i] = PhraseTokens{ID: nodes[i].ID, Phrase: nodes[i].Phrase, Tokens: toks, Norm: strings.Join(toks, " ")}
	}
	return out
}

// PhraseTokens returns the tokenized phrases of the nodes of type t in ID
// order. The snapshot tokenizes each type once, on first use (safe under
// concurrent readers), so a request never tokenizes an ontology phrase;
// the result is shared immutable state and must not be modified.
func (s *Snapshot) PhraseTokens(t NodeType) []PhraseTokens {
	if t >= NumNodeTypes {
		return nil
	}
	box := &s.phraseToks[t]
	box.once.Do(func() { box.list = tokenizePhrases(s.Nodes(t)) })
	return box.list
}

// PhraseTokens returns the tokenized phrases of the nodes of type t in ID
// order. A mutable ontology keeps no cache: every call tokenizes afresh.
func (o *Ontology) PhraseTokens(t NodeType) []PhraseTokens {
	return tokenizePhrases(o.Nodes(t))
}
