package nlp

import (
	"slices"
	"strings"
	"testing"
	"unicode"
)

// tokenizeReference is Tokenize as it was before tokens became substrings
// of the lower-cased input: every token is built rune by rune. It is the
// oracle FuzzTokenize holds Tokenize to.
func tokenizeReference(s string) []string {
	s = strings.ToLower(s)
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '-' || r == '\'':
			cur.WriteRune(r)
		case unicode.IsSpace(r):
			flush()
		default:
			flush()
			out = append(out, string(r))
		}
	}
	flush()
	return out
}

func FuzzTokenize(f *testing.F) {
	for _, s := range []string{
		"", "   ", "What are the Best Cars?", "fuel-efficient cars", "a,b",
		"top 10 movies", "don't STOP", "Ünïcödé ΣΊΣΥΦΟΣ straße",
		"bad \xff byte", "\xed\xa0\x80 surrogate", "lone \xc3", "� literal",
		"tab\tnew\nline nbsp", "İstanbul", "emoji 🚀 launch!",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, want := Tokenize(s), tokenizeReference(s)
		if !slices.Equal(got, want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", s, got, want)
		}
	})
}
