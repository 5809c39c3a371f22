package baselines

import (
	"math/rand"
	"strings"

	"giant/internal/core"
	"giant/internal/nlp"
	"giant/internal/nn"
	"giant/internal/synth"
)

// PhraseExtractor is the interface every Table 5/6 method implements.
type PhraseExtractor interface {
	Name() string
	Extract(ex *synth.MiningExample) string
}

// --- TextRank / AutoPhrase adapters ---

// TextRankExtractor adapts TextRank to mining examples.
type TextRankExtractor struct{ TR *TextRank }

// Name implements PhraseExtractor.
func (t *TextRankExtractor) Name() string { return "TextRank" }

// Extract implements PhraseExtractor.
func (t *TextRankExtractor) Extract(ex *synth.MiningExample) string {
	return t.TR.Extract(ex.Queries, ex.Titles)
}

// AutoPhraseExtractor adapts AutoPhrase to mining examples.
type AutoPhraseExtractor struct{ AP *AutoPhrase }

// Name implements PhraseExtractor.
func (a *AutoPhraseExtractor) Name() string { return "AutoPhrase" }

// Extract implements PhraseExtractor.
func (a *AutoPhraseExtractor) Extract(ex *synth.MiningExample) string {
	return a.AP.Extract(ex.Queries, ex.Titles)
}

// --- Match / Align / MatchAlign ---

// MatchExtractor uses bootstrapped patterns only.
type MatchExtractor struct{ Patterns []string }

// NewMatchExtractor bootstraps patterns from the training split's queries.
func NewMatchExtractor(train []synth.MiningExample) *MatchExtractor {
	b := core.NewBootstrapper()
	var queries []string
	for i := range train {
		queries = append(queries, train[i].Queries...)
	}
	b.Run(queries)
	return &MatchExtractor{Patterns: b.Patterns}
}

// Name implements PhraseExtractor.
func (m *MatchExtractor) Name() string { return "Match" }

// Extract implements PhraseExtractor.
func (m *MatchExtractor) Extract(ex *synth.MiningExample) string {
	return core.MatchExtract(m.Patterns, ex.Queries)
}

// AlignExtractor uses query-title alignment only.
type AlignExtractor struct{}

// Name implements PhraseExtractor.
func (a *AlignExtractor) Name() string { return "Align" }

// Extract implements PhraseExtractor.
func (a *AlignExtractor) Extract(ex *synth.MiningExample) string {
	for _, q := range ex.Queries {
		if c := core.AlignExtract(q, ex.Titles); c != "" {
			return c
		}
	}
	return ""
}

// MatchAlignExtractor combines both.
type MatchAlignExtractor struct{ Patterns []string }

// Name implements PhraseExtractor.
func (m *MatchAlignExtractor) Name() string { return "MatchAlign" }

// Extract implements PhraseExtractor.
func (m *MatchAlignExtractor) Extract(ex *synth.MiningExample) string {
	return core.MatchAlignExtract(m.Patterns, ex.Queries, ex.Titles)
}

// --- CoverRank ---

// CoverRankExtractor ranks subtitles by covered non-stop query tokens.
type CoverRankExtractor struct {
	MinLen, MaxLen int
}

// NewCoverRankExtractor uses the paper's subtitle length filter.
func NewCoverRankExtractor() *CoverRankExtractor {
	return &CoverRankExtractor{MinLen: 3, MaxLen: 12}
}

// Name implements PhraseExtractor.
func (c *CoverRankExtractor) Name() string { return "CoverRank" }

// Extract implements PhraseExtractor.
func (c *CoverRankExtractor) Extract(ex *synth.MiningExample) string {
	return core.CoverRankExtract(ex.Queries, ex.Titles, ex.Clicks, c.MinLen, c.MaxLen)
}

// --- LSTM-CRF variants ---

// LSTMCRFMode selects the input the tagger sees.
type LSTMCRFMode int

// Input modes: the paper's Q-LSTM-CRF tags the query, T-LSTM-CRF tags
// titles, and the event variant tags each title and picks the top-clicked
// title's span after a length filter.
const (
	ModeQuery LSTMCRFMode = iota
	ModeTitle
	ModeEventTitle
)

// LSTMCRFExtractor is the LSTM-CRF phrase-mining baseline.
type LSTMCRFExtractor struct {
	Tagger *SeqTagger
	Mode   LSTMCRFMode
	label  string
}

// NewLSTMCRFExtractorWithEpochs trains the tagger on the training split
// for an explicit epoch budget (0 keeps the default).
func NewLSTMCRFExtractorWithEpochs(train []synth.MiningExample, mode LSTMCRFMode, useCRF bool, label string, epochs int) *LSTMCRFExtractor {
	cfg := DefaultSeqTaggerConfig(NumBIOTags, useCRF)
	if epochs > 0 {
		cfg.Epochs = epochs
	}
	tagger := NewSeqTagger(cfg)
	var seqs [][]string
	var labels [][]int
	for i := range train {
		ex := &train[i]
		switch mode {
		case ModeQuery:
			for _, q := range ex.Queries {
				toks := nlp.Tokenize(q)
				seqs = append(seqs, toks)
				labels = append(labels, BIOLabels(toks, ex.GoldTokens))
			}
		default:
			for _, t := range ex.Titles {
				toks := nlp.Tokenize(t)
				seqs = append(seqs, toks)
				labels = append(labels, BIOLabels(toks, ex.GoldTokens))
			}
		}
	}
	tagger.Train(seqs, labels)
	return &LSTMCRFExtractor{Tagger: tagger, Mode: mode, label: label}
}

// Name implements PhraseExtractor.
func (l *LSTMCRFExtractor) Name() string { return l.label }

// Extract implements PhraseExtractor.
func (l *LSTMCRFExtractor) Extract(ex *synth.MiningExample) string {
	switch l.Mode {
	case ModeQuery:
		if len(ex.Queries) == 0 {
			return ""
		}
		toks := nlp.Tokenize(ex.Queries[0])
		return DecodeBIO(toks, l.Tagger.Predict(toks))
	case ModeTitle:
		if len(ex.Titles) == 0 {
			return ""
		}
		toks := nlp.Tokenize(ex.Titles[0])
		return DecodeBIO(toks, l.Tagger.Predict(toks))
	default:
		// Event protocol: tag every title, filter by length, prefer the
		// top-clicked title's output.
		for _, t := range ex.Titles {
			toks := nlp.Tokenize(t)
			out := DecodeBIO(toks, l.Tagger.Predict(toks))
			n := len(strings.Fields(out))
			if n >= 3 && n <= 12 {
				return out
			}
		}
		return ""
	}
}

// --- TextSummary (seq2seq) ---

// TextSummaryExtractor is the encoder-decoder summarization baseline of
// Table 6: the concatenated queries and titles are fed to an attention
// seq2seq which generates the phrase.
type TextSummaryExtractor struct {
	Model  *nn.Seq2Seq
	MaxSrc int
	MaxOut int
}

// NewTextSummaryExtractor trains the seq2seq on the training split.
func NewTextSummaryExtractor(train []synth.MiningExample, epochs int, seed int64) *TextSummaryExtractor {
	vocab := nn.NewVocab()
	type pair struct{ src, tgt []int }
	var pairs []pair
	maxSrc := 60
	for i := range train {
		ex := &train[i]
		srcToks := exampleSource(ex, maxSrc)
		src := make([]int, 0, len(srcToks))
		for _, w := range srcToks {
			src = append(src, vocab.Learn(w))
		}
		tgt := make([]int, 0, len(ex.GoldTokens))
		for _, w := range ex.GoldTokens {
			tgt = append(tgt, vocab.Learn(w))
		}
		pairs = append(pairs, pair{src, tgt})
	}
	rng := rand.New(rand.NewSource(seed))
	model := nn.NewSeq2Seq(vocab, 24, 24, rng)
	adam := nn.NewAdam(0.01, model.Params())
	for ep := 0; ep < epochs; ep++ {
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		for _, p := range pairs {
			model.TrainStep(p.src, p.tgt)
			adam.Step()
		}
	}
	return &TextSummaryExtractor{Model: model, MaxSrc: maxSrc, MaxOut: 12}
}

// Name implements PhraseExtractor.
func (t *TextSummaryExtractor) Name() string { return "TextSummary" }

// Extract implements PhraseExtractor.
func (t *TextSummaryExtractor) Extract(ex *synth.MiningExample) string {
	srcToks := exampleSource(ex, t.MaxSrc)
	src := make([]int, 0, len(srcToks))
	for _, w := range srcToks {
		src = append(src, t.Model.Vocab.ID(w))
	}
	ids := t.Model.Generate(src, t.MaxOut)
	words := make([]string, 0, len(ids))
	for _, id := range ids {
		words = append(words, t.Model.Vocab.Word(id))
	}
	return strings.Join(words, " ")
}

func exampleSource(ex *synth.MiningExample, maxLen int) []string {
	var toks []string
	for _, q := range ex.Queries {
		toks = append(toks, nlp.Tokenize(q)...)
	}
	for _, t := range ex.Titles {
		toks = append(toks, nlp.Tokenize(t)...)
	}
	if len(toks) > maxLen {
		toks = toks[:maxLen]
	}
	return toks
}
