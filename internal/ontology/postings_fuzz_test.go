package ontology

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// fuzzAlphabet is the token alphabet FuzzHomePhrases builds phrases and
// requests from: few enough tokens that phrases share and repeat them,
// with a stop word, a hyphenated token and a non-ASCII one.
var fuzzAlphabet = []string{"a", "b", "c", "the", "x-y", "é"}

// homePhrasesBrute is HomePhrases as a filter over every phrase of the
// scope's snapshot, tokenized afresh by the reference: home phrases with
// at least one position holding a token of toks, and at least the
// fraction frac of positions holding one.
func homePhrasesBrute(s Scope, t NodeType, toks []string, frac float64) []PhraseTokens {
	var out []PhraseTokens
	for _, p := range referenceLists(s.Snap).PhraseTokens(t) {
		n := 0
		for _, tok := range p.Tokens {
			if slices.Contains(toks, tok) {
				n++
			}
		}
		if n == 0 || float64(n)/float64(len(p.Tokens)) < frac || !s.Home(p.ID) {
			continue
		}
		p.ID = s.UID(p.ID)
		out = append(out, p)
	}
	return out
}

// FuzzHomePhrases holds the posting-driven HomePhrases to the brute-force
// filter. The first byte picks frac ∈ {0.5, 1}, which scope filter runs,
// and the request length; the next bytes are the request's tokens; every
// later byte adds a token to the current phrase or, at value 7 mod 8,
// ends it as an event (bit 3 clear) or a concept.
func FuzzHomePhrases(f *testing.F) {
	for _, seed := range [][]byte{
		{0x00},
		{0x31, 0, 1, 2, 0, 1, 7, 2, 2, 3, 15, 3, 7, 1, 0},
		{0x20, 3, 3, 4, 4, 7, 3, 0, 3, 7, 5, 15, 3, 3, 3, 1},
		{0x73, 0, 5, 5, 1, 0, 0, 0, 7, 0, 1, 2, 3, 4, 5, 7, 5, 15, 4, 3, 2},
		{0xf5, 1, 2, 3, 4, 5, 0, 7, 0, 1, 2, 7, 0, 2, 4, 15, 1, 3, 5, 7},
		{0x14, 0, 0, 7, 0, 0, 7, 0, 1, 7, 0, 2, 7, 0, 15},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		head := data[0]
		frac := 0.5
		if head&1 != 0 {
			frac = 1
		}
		data = data[1:]
		n := min(int(head>>4), len(data))
		toks := make([]string, n)
		for i, b := range data[:n] {
			toks[i] = fuzzAlphabet[int(b)%len(fuzzAlphabet)]
		}
		o := New()
		var phrase []string
		for _, b := range data[n:] {
			if b%8 != 7 {
				phrase = append(phrase, fuzzAlphabet[int(b)%len(fuzzAlphabet)])
				continue
			}
			typ := Event
			if b&8 != 0 {
				typ = Concept
			}
			o.AddNode(typ, strings.Join(phrase, " "))
			phrase = phrase[:0]
		}
		snap := o.Snapshot()
		var scopes []Scope
		switch head >> 1 & 3 {
		case 0:
			scopes = []Scope{UnionScope(snap)}
		case 1:
			ss, err := ShardSnapshot(snap, 2)
			if err != nil {
				t.Fatal(err)
			}
			scopes = []Scope{ProjectionScope(ss.Projection(0)), ProjectionScope(ss.Projection(1))}
		default:
			scopes = []Scope{{
				Snap: snap,
				Home: func(id NodeID) bool { return id%3 != 1 },
				UID:  func(id NodeID) NodeID { return 2*id + 1 },
			}}
		}
		for _, s := range scopes {
			for _, typ := range []NodeType{Event, Concept} {
				got := slices.Collect(s.HomePhrases(typ, toks, frac))
				if want := homePhrasesBrute(s, typ, toks, frac); !reflect.DeepEqual(got, want) {
					t.Fatalf("HomePhrases(%v, %q, %v) = %+v, want %+v", typ, toks, frac, got, want)
				}
			}
		}
	})
}
