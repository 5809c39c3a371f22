package nlp

import "strings"

// defaultStopWords is the built-in stop list. It deliberately includes the
// query "noise" words the paper's mining step must learn to drop (what, best,
// famous, top, ...), mirroring how the original system treats Chinese
// function words and query chrome.
var defaultStopWords = map[string]bool{
	"the": true, "a": true, "an": true, "of": true, "in": true, "on": true,
	"at": true, "to": true, "for": true, "and": true, "or": true, "is": true,
	"are": true, "was": true, "were": true, "be": true, "been": true,
	"what": true, "which": true, "who": true, "whose": true, "how": true,
	"when": true, "where": true, "why": true, "do": true, "does": true,
	"did": true, "have": true, "has": true, "had": true, "will": true,
	"would": true, "can": true, "could": true, "should": true, "shall": true,
	"there": true, "this": true, "that": true, "these": true, "those": true,
	"it": true, "its": true, "with": true, "about": true, "list": true,
	"please": true, "me": true, "my": true, "your": true, "their": true,
	"s": true, "'s": true, "?": true, "!": true, ".": true, ",": true,
	"review": true, "reviews": true, "introduction": true, "guide": true,
	"recommend": true, "recommended": true, "recommendation": true,
	"best": true, "top": true, "famous": true, "classic": true,
	"popular": true, "well-known": true, "latest": true, "most": true,
	"some": true, "all": true, "any": true,
}

// IsStopWord reports whether w (already lower-case) is in the built-in stop
// list.
func IsStopWord(w string) bool { return defaultStopWords[w] }

// Lexicon maps surface forms to POS and NER tags. The synthetic world
// registers its vocabulary here; Annotate falls back to rules for unknown
// words.
type Lexicon struct {
	pos   map[string]POS
	ner   map[string]NER
	edits int // Register calls so far
}

// NewLexicon returns an empty lexicon.
func NewLexicon() *Lexicon {
	return &Lexicon{
		pos: make(map[string]POS),
		ner: make(map[string]NER),
	}
}

// Register adds a (possibly multi-token) surface form with the given tags.
// Multi-token forms are registered token by token so the tokenizer's output
// can be annotated without a phrase table.
func (l *Lexicon) Register(surface string, pos POS, ner NER) {
	l.edits++
	for _, tok := range Tokenize(surface) {
		// First registration wins: world generation registers the most
		// specific sense (entity names) before generic vocabulary.
		if _, ok := l.pos[tok]; !ok {
			l.pos[tok] = pos
		}
		if _, ok := l.ner[tok]; !ok && ner != NerNone {
			l.ner[tok] = ner
		}
	}
}

// Edits counts the registrations made so far. Between two equal readings
// the lexicon did not change, so Annotate is a pure function of its text in
// that span — callers that cache annotation-derived results key them on this.
func (l *Lexicon) Edits() int { return l.edits }

// POSOf returns the registered POS for w, falling back to heuristics:
// digits are NUM, punctuation is PUNCT, words ending in common verb/adjective
// suffixes get those tags, everything else is NOUN.
func (l *Lexicon) POSOf(w string) POS {
	if p, ok := l.pos[w]; ok {
		return p
	}
	return GuessPOS(w)
}

// NEROf returns the registered NER tag for w (NerNone if absent).
func (l *Lexicon) NEROf(w string) NER {
	if n, ok := l.ner[w]; ok {
		return n
	}
	if looksLikeYear(w) {
		return NerTime
	}
	return NerNone
}

// GuessPOS tags an out-of-lexicon word with suffix/shape heuristics.
func GuessPOS(w string) POS {
	if w == "" {
		return PosOther
	}
	r := rune(w[0])
	switch {
	case isPunctText(w):
		return PosPunct
	case r >= '0' && r <= '9':
		return PosNum
	}
	if defaultStopWords[w] {
		switch w {
		case "the", "a", "an", "this", "that", "these", "those":
			return PosDet
		case "of", "in", "on", "at", "to", "for", "with", "about":
			return PosPrep
		case "and", "or":
			return PosConj
		case "is", "are", "was", "were", "be", "been", "do", "does", "did",
			"have", "has", "had", "will", "would", "can", "could", "should",
			"shall":
			return PosVerb
		case "it", "its", "me", "my", "your", "their", "who", "whose":
			return PosPron
		}
	}
	// Suffix heuristics require a stem of at least three characters so short
	// nouns ("table", "used") are not misclassified.
	hasSuf := func(suf string) bool {
		return strings.HasSuffix(w, suf) && len(w) >= len(suf)+3
	}
	switch {
	case hasSuf("ly"):
		return PosAdv
	case hasSuf("ing") || hasSuf("ized") || hasSuf("ize") || hasSuf("ise"):
		return PosVerb
	case hasSuf("ous") || hasSuf("ful") || hasSuf("ive") || hasSuf("able") ||
		hasSuf("ish") || strings.Contains(w, "-"):
		return PosAdj
	}
	return PosNoun
}

func looksLikeYear(w string) bool {
	if len(w) != 4 {
		return false
	}
	for _, r := range w {
		if r < '0' || r > '9' {
			return false
		}
	}
	return w[0] == '1' || w[0] == '2'
}

// Annotate tokenizes s and tags every token using the lexicon.
func (l *Lexicon) Annotate(s string) []Token {
	words := Tokenize(s)
	out := make([]Token, len(words))
	for i, w := range words {
		out[i] = Token{
			Text: w,
			POS:  l.POSOf(w),
			NER:  l.NEROf(w),
			Stop: IsStopWord(w),
		}
	}
	return out
}
