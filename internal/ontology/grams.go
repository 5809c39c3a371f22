package ontology

// TermGrams is the term→shard routing surface behind pruned scatter-gather
// search: a fixed-size presence index of the byte n-grams occurring in a
// node set's lowercased phrases and aliases. Substring search can consult
// it as a necessary condition — if any n-gram of the needle is absent, no
// string in the set can contain the needle — so a router (or the in-process
// sharded merger) skips shards that provably cannot match. The index is a
// superset filter, never an oracle: a positive answer may be a false
// positive (the scan still decides), a negative answer is always exact,
// which is what keeps pruned search byte-identical to the full scan.
//
// Three gram widths cover every needle length:
//
//   - unigrams: exact presence bitmap over the 256 byte values
//   - bigrams:  exact presence bitmap over the 65536 byte pairs
//   - trigrams: presence bitmap over byte triples hashed to 16 bits
//     (collisions only weaken pruning, never correctness)
//
// A needle of length >= 3 is pruned through all of its trigram windows (and
// bigrams/unigrams, which are free and occasionally sharper); length-2 and
// length-1 needles degrade to the exact bigram and unigram bitmaps. Grams
// are extracted per string — phrase and each alias independently — exactly
// mirroring nodeMatches, which tests containment per string.
//
// The index is deterministic in the node set, so the same shard encoded on
// two machines (or recomputed for a derived projection versus decoded from
// a GIANTBIN section) yields identical bytes — the property the shard-file
// serving equivalence test pins.

import (
	"encoding/base64"
	"fmt"
	"strings"
)

const (
	termGramUniBytes = 256 / 8   // exact unigram bitmap
	termGramBiBytes  = 65536 / 8 // exact bigram bitmap
	termGramTriBytes = 65536 / 8 // hashed trigram bitmap
	termGramSize     = termGramUniBytes + termGramBiBytes + termGramTriBytes
)

// TermGrams holds the three presence bitmaps. The zero value is an empty
// index (MayContain answers false for every non-empty needle).
type TermGrams struct {
	uni [termGramUniBytes]byte
	bi  [termGramBiBytes]byte
	tri [termGramTriBytes]byte
}

// triHash folds a byte triple into the 16-bit trigram bitmap index
// (FNV-style mixing; any deterministic hash works, collisions only cost
// pruning power).
func triHash(a, b, c byte) uint32 {
	h := uint32(2166136261)
	h = (h ^ uint32(a)) * 16777619
	h = (h ^ uint32(b)) * 16777619
	h = (h ^ uint32(c)) * 16777619
	return (h ^ h>>16) & 0xFFFF
}

// AddString folds one surface string into the index. The string is
// lowercased here with the same strings.ToLower the search scan applies.
func (g *TermGrams) AddString(s string) {
	s = strings.ToLower(s)
	for i := 0; i < len(s); i++ {
		g.uni[s[i]>>3] |= 1 << (s[i] & 7)
		if i+1 < len(s) {
			b := uint32(s[i])<<8 | uint32(s[i+1])
			g.bi[b>>3] |= 1 << (b & 7)
		}
		if i+2 < len(s) {
			t := triHash(s[i], s[i+1], s[i+2])
			g.tri[t>>3] |= 1 << (t & 7)
		}
	}
}

// AddNode folds a node's phrase and every alias into the index.
func (g *TermGrams) AddNode(n *Node) {
	g.AddString(n.Phrase)
	for _, a := range n.Aliases {
		g.AddString(a)
	}
}

// MayContain reports whether some indexed string could contain the needle.
// The needle must already be lowercased (callers on the search path have
// lowercased it once). False is exact: no indexed string contains the
// needle. An empty needle is trivially "maybe".
func (g *TermGrams) MayContain(needle string) bool {
	for i := 0; i < len(needle); i++ {
		if g.uni[needle[i]>>3]&(1<<(needle[i]&7)) == 0 {
			return false
		}
		if i+1 < len(needle) {
			b := uint32(needle[i])<<8 | uint32(needle[i+1])
			if g.bi[b>>3]&(1<<(b&7)) == 0 {
				return false
			}
		}
		if i+2 < len(needle) {
			t := triHash(needle[i], needle[i+1], needle[i+2])
			if g.tri[t>>3]&(1<<(t&7)) == 0 {
				return false
			}
		}
	}
	return true
}

// BuildTermGrams indexes the grams of every node in the slice (phrases and
// aliases). Deterministic in the node contents.
func BuildTermGrams(nodes []Node) *TermGrams {
	g := &TermGrams{}
	for i := range nodes {
		g.AddNode(&nodes[i])
	}
	return g
}

// appendBytes serializes the bitmaps in uni|bi|tri order.
func (g *TermGrams) appendBytes(dst []byte) []byte {
	dst = append(dst, g.uni[:]...)
	dst = append(dst, g.bi[:]...)
	return append(dst, g.tri[:]...)
}

// termGramsFromBytes inverts appendBytes.
func termGramsFromBytes(data []byte) (*TermGrams, error) {
	if len(data) != termGramSize {
		return nil, fmt.Errorf("ontology: term grams are %d bytes, want %d", len(data), termGramSize)
	}
	g := &TermGrams{}
	copy(g.uni[:], data[:termGramUniBytes])
	copy(g.bi[:], data[termGramUniBytes:termGramUniBytes+termGramBiBytes])
	copy(g.tri[:], data[termGramUniBytes+termGramBiBytes:])
	return g, nil
}

// Encode renders the index as base64 for JSON transport (/v1/stats).
func (g *TermGrams) Encode() string {
	return base64.StdEncoding.EncodeToString(g.appendBytes(make([]byte, 0, termGramSize)))
}

// DecodeTermGrams inverts Encode; the router uses it to rebuild each
// shard's routing index from /v1/stats.
func DecodeTermGrams(s string) (*TermGrams, error) {
	data, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("ontology: decode term grams: %w", err)
	}
	return termGramsFromBytes(data)
}

// TermStats is the wire form of a shard's term-routing surface, exported
// through /v1/stats (and persisted as an optional GIANTBIN section). Grams
// is the base64 TermGrams encoding.
type TermStats struct {
	Grams string `json:"grams"`
}
