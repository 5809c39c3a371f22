// Package nlp provides the lightweight natural-language substrate GIANT
// depends on: tokenization, stop-word detection, lexicon-driven
// part-of-speech and named-entity annotation, and a deterministic rule-based
// dependency parser. The paper's pipeline runs on a full Chinese NLP stack;
// this package supplies the same token-level signals (adjacency, POS, NER,
// dependency arcs) over the synthetic English-like corpus used in this
// reproduction.
package nlp

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// POS is a coarse part-of-speech tag.
type POS uint8

// Coarse POS inventory. The QTIG featurizer embeds these; the dependency
// parser keys its rules off them.
const (
	PosOther POS = iota
	PosNoun
	PosPropn
	PosVerb
	PosAdj
	PosAdv
	PosNum
	PosPron
	PosPrep
	PosDet
	PosConj
	PosPunct
	numPOS
)

// NumPOS is the number of distinct POS tags (embedding table size).
const NumPOS = int(numPOS)

// String returns the conventional short name of the tag.
func (p POS) String() string {
	switch p {
	case PosNoun:
		return "NOUN"
	case PosPropn:
		return "PROPN"
	case PosVerb:
		return "VERB"
	case PosAdj:
		return "ADJ"
	case PosAdv:
		return "ADV"
	case PosNum:
		return "NUM"
	case PosPron:
		return "PRON"
	case PosPrep:
		return "ADP"
	case PosDet:
		return "DET"
	case PosConj:
		return "CONJ"
	case PosPunct:
		return "PUNCT"
	default:
		return "X"
	}
}

// NER is a coarse named-entity tag.
type NER uint8

// NER inventory used by the event key-element recognizer (entities,
// locations, times) and the QTIG featurizer.
const (
	NerNone NER = iota
	NerPerson
	NerOrg
	NerLoc
	NerTime
	NerProduct
	NerWork
	NerMisc
	numNER
)

// NumNER is the number of distinct NER tags (embedding table size).
const NumNER = int(numNER)

// String returns the conventional short name of the tag.
func (n NER) String() string {
	switch n {
	case NerPerson:
		return "PER"
	case NerOrg:
		return "ORG"
	case NerLoc:
		return "LOC"
	case NerTime:
		return "TIME"
	case NerProduct:
		return "PROD"
	case NerWork:
		return "WORK"
	case NerMisc:
		return "MISC"
	default:
		return "O"
	}
}

// Token is a single annotated token.
type Token struct {
	Text string
	POS  POS
	NER  NER
	Stop bool
}

// Tokenize lower-cases s and splits it into word, number and punctuation
// tokens. Hyphenated words are kept whole ("fuel-efficient") because the
// synthetic lexicon treats them as single modifiers. Tokens are substrings
// of the lower-cased input; a byte that is not valid UTF-8 is a punctuation
// token of its own, spelled as the replacement character "\uFFFD".
func Tokenize(s string) []string {
	s = strings.ToLower(s)
	var out []string
	start := -1 // byte offset of the word token being scanned, -1 between words
	for i, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '-' || r == '\'' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			out = append(out, s[start:i])
			start = -1
		}
		if unicode.IsSpace(r) {
			continue
		}
		if r == utf8.RuneError {
			out = append(out, "\uFFFD")
		} else {
			out = append(out, s[i:i+utf8.RuneLen(r)])
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	return out
}

// JoinTokens renders a token slice back to a display string, attaching
// punctuation to the preceding token.
func JoinTokens(tokens []string) string {
	var b strings.Builder
	for i, t := range tokens {
		if i > 0 && !isPunctText(t) {
			b.WriteByte(' ')
		}
		b.WriteString(t)
	}
	return b.String()
}

func isPunctText(t string) bool {
	if t == "" {
		return false
	}
	r := rune(t[0])
	return !unicode.IsLetter(r) && !unicode.IsDigit(r)
}
