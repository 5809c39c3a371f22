package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"giant/internal/nn"
)

// Recorded at commit 775c7a5, before the R-GCN kernels were restricted to
// the rows each relation reaches. A kernel change that moves one bit of a
// trained weight or of an inferred probability fails here.
const (
	pinPhraseWeights = "026811ece8b77c9bedf8860620de4455311e18d1be00a17869d80fcd49053e1e"
	pinPhraseProbs   = "9c4eeb6ebae0477a3eb5f66136ab2419cfce3a5ca91ce58effbecac26c8e6bad"
	pinKeyWeights    = "7d8f4f8c3a5ce71d46039e5412312df0ad5197a205bb6d6bdaedfb41df3eea4d"
	pinKeyProbs      = "a96a15b789b318e3514276e17c540c7c8ec9545248d24a96c522afeb0c4d7f33"
)

func hashFloats(h hash.Hash, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// weightsDigest is the sha256 over every parameter's bits in R.Params() order.
func weightsDigest(m *Model) string {
	h := sha256.New()
	for _, p := range m.R.Params() {
		hashFloats(h, p.W.D)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func probsDigest(probs *nn.Mat) string {
	h := sha256.New()
	hashFloats(h, probs.D)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGCTSPWeightsBitExact trains both GCTSP-Net models at the paper's
// defaults (5 layers, 5 bases, hidden 32) on the tiny world's example sets,
// the way Build does, and pins the trained weights and the probabilities
// inferred for one fixed cluster to the bit.
func TestGCTSPWeightsBitExact(t *testing.T) {
	w := tinyWorld()
	concepts := w.ConceptExamples(40, 43)
	events := w.EventExamples(40, 44)
	probe := w.EventExamples(1, 45)[0]

	pm := NewPhraseModel(w.Lexicon, Options{Epochs: 3, Fallback: true})
	pm.Train(append(append(concepts[:0:0], concepts...), events...))
	km := NewKeyElementModel(w.Lexicon, Options{Epochs: 3})
	km.Train(events)

	for _, c := range []struct {
		name                   string
		m                      *Model
		wantWeights, wantProbs string
	}{
		{"phrase", pm, pinPhraseWeights, pinPhraseProbs},
		{"key-element", km, pinKeyWeights, pinKeyProbs},
	} {
		cfg := c.m.R.Cfg
		if cfg.Layers != 5 || cfg.Bases != 5 || cfg.Hidden != 32 {
			t.Fatalf("%s: layers %d, bases %d, hidden %d; want the paper's 5, 5, 32", c.name, cfg.Layers, cfg.Bases, cfg.Hidden)
		}
		_, data := c.m.input(probe.Queries, probe.Titles)
		if got := weightsDigest(c.m); got != c.wantWeights {
			t.Errorf("%s: trained weights hash to %s, want %s", c.name, got, c.wantWeights)
		}
		if got := probsDigest(c.m.R.PredictProbs(data)); got != c.wantProbs {
			t.Errorf("%s: probe probabilities hash to %s, want %s", c.name, got, c.wantProbs)
		}
	}
}
