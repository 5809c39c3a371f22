package storytree

import (
	"math"
	"testing"

	"giant/internal/phrase"
)

// similarityReference is Eq. (8) as Similarity computed it before Form
// encoded each event once: both events re-encoded per pair, and the entity
// cosine taken between fresh TF-IDF maps (phrase.Cosine, which phrase's
// TestCosineMatchesReference holds to the per-call key sort it replaced).
// It is the oracle the encoded scorer must match to the bit.
func similarityReference(a, b *EventNode, enc Encoder, tfidf *phrase.TFIDF) float64 {
	fm := cos(enc.PhraseVector(a.Phrase), enc.PhraseVector(b.Phrase))
	fg := 0.0
	if a.Trigger != "" && b.Trigger != "" {
		if a.Trigger == b.Trigger {
			fg = 1
		} else {
			fg = cos(enc.WordVector(a.Trigger), enc.WordVector(b.Trigger))
		}
	}
	return fm + fg + phrase.Cosine(tfidf.Vector(a.Entities), tfidf.Vector(b.Entities))
}

// TestEncodedSimilarityMatchesReference compares every ordered pair of the
// pinned events, both ways round: Form scores pair (i, j) once and mirrors
// it, so the encoded score must equal the reference in either order.
func TestEncodedSimilarityMatchesReference(t *testing.T) {
	events := pinnedEvents()
	enc := NewBagOfTokensEncoder(16, nil)
	tf := newTF(events)
	encs := make([]*encoded, len(events))
	for i, e := range events {
		encs[i] = encode(e, enc, tf)
	}
	for i, a := range events {
		for j, b := range events {
			want := math.Float64bits(similarityReference(a, b, enc, tf))
			if got := math.Float64bits(encs[i].similarity(encs[j])); got != want {
				t.Fatalf("pair (%d,%d): encoded %v, reference %v", i, j, math.Float64frombits(got), math.Float64frombits(want))
			}
			if got := math.Float64bits(encs[j].similarity(encs[i])); got != want {
				t.Fatalf("pair (%d,%d) reversed: encoded %v, reference %v", i, j, math.Float64frombits(got), math.Float64frombits(want))
			}
			if got := math.Float64bits(Similarity(a, b, enc, tf)); got != want {
				t.Fatalf("pair (%d,%d): Similarity %v, reference %v", i, j, math.Float64frombits(got), math.Float64frombits(want))
			}
		}
	}
}
