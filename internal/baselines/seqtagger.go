package baselines

import (
	"math/rand"
	"strings"

	"giant/internal/nn"
)

// BIO tag ids for phrase tagging.
const (
	TagO = 0
	TagB = 1
	TagI = 2
	// NumBIOTags is the tag-set size for BIO phrase tagging.
	NumBIOTags = 3
)

// SeqTagger is a (Bi)LSTM token tagger with an optional CRF output layer —
// the LSTM / LSTM-CRF baselines of Tables 5–7. With UseCRF=false the output
// layer is a per-token softmax.
type SeqTagger struct {
	Vocab  *nn.Vocab
	Emb    *nn.Embedding
	Rnn    *nn.BiLSTM
	Out    *nn.Dense
	Crf    *nn.CRF
	K      int
	UseCRF bool

	params      []*nn.Param
	deferredCfg SeqTaggerConfig
	rng         *rand.Rand
}

// SeqTaggerConfig controls model size and training.
type SeqTaggerConfig struct {
	EmbDim int
	Hidden int
	K      int
	UseCRF bool
	Epochs int
	LR     float64
	Seed   int64
}

// DefaultSeqTaggerConfig mirrors the paper's baseline setup at laptop scale
// (paper: 200-d embeddings, 25 hidden per direction).
func DefaultSeqTaggerConfig(k int, useCRF bool) SeqTaggerConfig {
	return SeqTaggerConfig{EmbDim: 32, Hidden: 25, K: k, UseCRF: useCRF, Epochs: 6, LR: 0.01, Seed: 3}
}

// NewSeqTagger builds the model with a vocabulary learned later via Train.
func NewSeqTagger(cfg SeqTaggerConfig) *SeqTagger {
	rng := rand.New(rand.NewSource(cfg.Seed))
	vocab := nn.NewVocab()
	t := &SeqTagger{
		Vocab:  vocab,
		K:      cfg.K,
		UseCRF: cfg.UseCRF,
	}
	// The embedding table is sized after vocabulary building in Train; keep
	// config for deferred construction.
	t.deferredCfg = cfg
	t.rng = rng
	return t
}

// Train fits the tagger on token sequences with per-token integer labels.
func (t *SeqTagger) Train(seqs [][]string, labels [][]int) {
	cfg := t.deferredCfg
	for _, s := range seqs {
		for _, w := range s {
			t.Vocab.Learn(w)
		}
	}
	t.Emb = nn.NewEmbedding("tag.emb", t.Vocab.Size(), cfg.EmbDim, t.rng)
	t.Rnn = nn.NewBiLSTM("tag.rnn", cfg.EmbDim, cfg.Hidden, t.rng)
	t.Out = nn.NewDense("tag.out", 2*cfg.Hidden, t.K, t.rng)
	t.params = append(t.params, t.Emb.Params()...)
	t.params = append(t.params, t.Rnn.Params()...)
	t.params = append(t.params, t.Out.Params()...)
	if t.UseCRF {
		t.Crf = nn.NewCRF("tag.crf", t.K, t.rng)
		t.params = append(t.params, t.Crf.Params()...)
	}
	adam := nn.NewAdam(cfg.LR, t.params)
	idx := make([]int, len(seqs))
	for i := range idx {
		idx[i] = i
	}
	for ep := 0; ep < cfg.Epochs; ep++ {
		t.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			if len(seqs[i]) == 0 {
				continue
			}
			t.trainOne(seqs[i], labels[i], adam)
		}
	}
}

func (t *SeqTagger) trainOne(seq []string, gold []int, adam *nn.Adam) {
	ids := make([]int, len(seq))
	for i, w := range seq {
		ids[i] = t.Vocab.ID(w)
	}
	emb := t.Emb.Forward(ids)
	h := t.Rnn.Forward(emb)
	logits := t.Out.Forward(h)
	var dLogits *nn.Mat
	if t.UseCRF {
		_, dLogits = t.Crf.NegLogLikelihood(logits, gold)
	} else {
		_, dLogits = nn.SoftmaxCE(logits, gold)
	}
	dh := t.Out.Backward(dLogits)
	dEmb := t.Rnn.Backward(dh)
	t.Emb.Backward(dEmb)
	adam.Step()
}

// Predict tags one sequence.
func (t *SeqTagger) Predict(seq []string) []int {
	if len(seq) == 0 || t.Emb == nil {
		return nil
	}
	ids := make([]int, len(seq))
	for i, w := range seq {
		ids[i] = t.Vocab.ID(w)
	}
	emb := t.Emb.Forward(ids)
	h := t.Rnn.Forward(emb)
	logits := t.Out.Forward(h)
	if t.UseCRF {
		return t.Crf.Decode(logits)
	}
	out := make([]int, len(seq))
	for i := 0; i < logits.R; i++ {
		row := logits.Row(i)
		best, arg := row[0], 0
		for j, v := range row {
			if v > best {
				best, arg = v, j
			}
		}
		out[i] = arg
	}
	return out
}

// BIOLabels derives BIO labels for a token sequence given the gold phrase's
// token set: tokens present in the gold set are tagged B (first of a run) or
// I.
func BIOLabels(seq []string, goldTokens []string) []int {
	gold := map[string]bool{}
	for _, g := range goldTokens {
		gold[g] = true
	}
	out := make([]int, len(seq))
	inRun := false
	for i, w := range seq {
		if gold[w] {
			if inRun {
				out[i] = TagI
			} else {
				out[i] = TagB
				inRun = true
			}
		} else {
			out[i] = TagO
			inRun = false
		}
	}
	return out
}

// DecodeBIO extracts the tagged phrase from a BIO tag sequence (all B/I
// tokens, in order, deduplicated).
func DecodeBIO(seq []string, tags []int) string {
	var words []string
	seen := map[string]bool{}
	for i, tag := range tags {
		if tag == TagB || tag == TagI {
			if !seen[seq[i]] {
				seen[seq[i]] = true
				words = append(words, seq[i])
			}
		}
	}
	return strings.Join(words, " ")
}
