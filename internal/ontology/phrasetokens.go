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

// Posting is one entry of a token's posting list: the phrase at index
// Phrase of its type's PhraseTokens list holds the token at Count of its
// token positions.
type Posting struct {
	Phrase int32
	Count  int32
}

// phraseTokensBox holds one node type's tokenized phrases and their token
// postings, built together on first use.
type phraseTokensBox struct {
	once     sync.Once
	list     []PhraseTokens
	postings map[string][]Posting
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

// indexPhrases maps every token of list to the phrases holding it, each
// posting list ascending by phrase index.
func indexPhrases(list []PhraseTokens) map[string][]Posting {
	post := make(map[string][]Posting)
	for i := range list {
		toks := list[i].Tokens
	next:
		for j, tok := range toks {
			for _, seen := range toks[:j] {
				if seen == tok {
					continue next // counted at its first position
				}
			}
			n := int32(1)
			for _, later := range toks[j+1:] {
				if later == tok {
					n++
				}
			}
			post[tok] = append(post[tok], Posting{Phrase: int32(i), Count: n})
		}
	}
	return post
}

// phraseBox returns type t's tokenized phrases and postings, building both
// once, on first use (safe under concurrent readers).
func (s *Snapshot) phraseBox(t NodeType) *phraseTokensBox {
	box := &s.phraseToks[t]
	box.once.Do(func() {
		box.list = tokenizePhrases(s.Nodes(t))
		box.postings = indexPhrases(box.list)
	})
	return box
}

// PhraseTokens returns the tokenized phrases of the nodes of type t in ID
// order. The snapshot tokenizes each type once, on first use (safe under
// concurrent readers), so a request never tokenizes an ontology phrase;
// the result is shared immutable state and must not be modified.
func (s *Snapshot) PhraseTokens(t NodeType) []PhraseTokens {
	if t >= NumNodeTypes {
		return nil
	}
	return s.phraseBox(t).list
}

// PhrasePostings returns the inverted index from token to the phrases of
// type t holding it (indexes into PhraseTokens(t)). It is built with the
// phrase tokens, once per snapshot, and is shared immutable state.
func (s *Snapshot) PhrasePostings(t NodeType) map[string][]Posting {
	if t >= NumNodeTypes {
		return nil
	}
	return s.phraseBox(t).postings
}
