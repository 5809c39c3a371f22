package baselines

import (
	"giant/internal/nlp"
	"giant/internal/synth"
)

// KeyElementTagger is the interface shared by the Table 7 baselines and
// GCTSP-Net's key-element mode: classify every unique cluster token into
// entity/trigger/location/other.
type KeyElementTagger interface {
	Name() string
	TagKeyElements(ex *synth.MiningExample) map[string]synth.KeyClass
}

// LSTMKeyTagger is the LSTM / LSTM-CRF key-element baseline: tag the
// concatenation of the cluster's queries and top title token-by-token, then
// reduce to unique tokens by first occurrence.
type LSTMKeyTagger struct {
	Tagger *SeqTagger
	label  string
}

// NewLSTMKeyTaggerWithEpochs trains the baseline (useCRF selects LSTM-CRF
// vs LSTM) for an explicit epoch budget (0 keeps the default).
func NewLSTMKeyTaggerWithEpochs(train []synth.MiningExample, useCRF bool, label string, epochs int) *LSTMKeyTagger {
	cfg := DefaultSeqTaggerConfig(int(synth.NumKeyClasses), useCRF)
	if epochs > 0 {
		cfg.Epochs = epochs
	}
	tagger := NewSeqTagger(cfg)
	var seqs [][]string
	var labels [][]int
	for i := range train {
		ex := &train[i]
		toks := keyElementInput(ex)
		lab := make([]int, len(toks))
		for j, t := range toks {
			lab[j] = int(ex.KeyLabelOf(t))
		}
		seqs = append(seqs, toks)
		labels = append(labels, lab)
	}
	tagger.Train(seqs, labels)
	return &LSTMKeyTagger{Tagger: tagger, label: label}
}

// Name implements KeyElementTagger.
func (l *LSTMKeyTagger) Name() string { return l.label }

// TagKeyElements implements KeyElementTagger.
func (l *LSTMKeyTagger) TagKeyElements(ex *synth.MiningExample) map[string]synth.KeyClass {
	toks := keyElementInput(ex)
	tags := l.Tagger.Predict(toks)
	out := make(map[string]synth.KeyClass, len(toks))
	for i, t := range toks {
		if _, ok := out[t]; !ok {
			out[t] = synth.KeyClass(tags[i])
		}
	}
	return out
}

// maxLSTMInput caps the linearized sequence the LSTM baselines consume. The
// QTIG-based GCTSP-Net covers the whole cluster as a token-merged graph; a
// sequence tagger must linearize the cluster, and recurrent models degrade
// on long concatenations — this cap mirrors the input budget of the paper's
// LSTM baselines (which tag individual queries/titles, not the cluster).
const maxLSTMInput = 48

// keyElementInput is the baselines' input view: queries then titles,
// linearized and truncated.
func keyElementInput(ex *synth.MiningExample) []string {
	var toks []string
	for _, q := range ex.Queries {
		toks = append(toks, nlp.Tokenize(q)...)
	}
	for _, t := range ex.Titles {
		toks = append(toks, nlp.Tokenize(t)...)
	}
	if len(toks) > maxLSTMInput {
		toks = toks[:maxLSTMInput]
	}
	return toks
}

// KeyElementTokens lists the unique evaluation tokens of an example: every
// distinct token of the full cluster (queries plus ALL titles) — the node
// set GCTSP-Net classifies. Tokens a sequence baseline never saw score as
// KeyOther for it.
func KeyElementTokens(ex *synth.MiningExample) []string {
	seen := map[string]bool{}
	var out []string
	for _, q := range ex.Queries {
		for _, t := range nlp.Tokenize(q) {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	for _, title := range ex.Titles {
		for _, t := range nlp.Tokenize(title) {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out
}
