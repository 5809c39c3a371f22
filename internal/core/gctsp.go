package core

import (
	"sort"

	"giant/internal/atsp"
	"giant/internal/nlp"
	"giant/internal/nn"
	"giant/internal/qtig"
	"giant/internal/rgcn"
	"giant/internal/synth"
)

// Options configure a GCTSP-Net instance. Zero values fall back to the
// paper's settings (5 R-GCN layers, hidden 32, 5 bases).
type Options struct {
	Hidden    int
	Layers    int
	Bases     int
	Epochs    int
	LR        float64
	Seed      int64
	PosWeight float64 // loss weight of the positive class (phrase task)
	// Fallback selects the highest-probability token when no node is
	// classified positive, keeping coverage at 1 (used for concepts).
	Fallback bool
	// DisableATSP orders positive nodes by graph insertion order instead of
	// ATSP decoding (ablation).
	DisableATSP bool
	Build       qtig.BuildOptions
	Mask        FeatureMask
}

func (o Options) withDefaults() Options {
	if o.Hidden == 0 {
		o.Hidden = 32
	}
	if o.Layers == 0 {
		o.Layers = 5
	}
	if o.Bases == 0 {
		o.Bases = 5
	}
	if o.Epochs == 0 {
		o.Epochs = 8
	}
	if o.LR == 0 {
		o.LR = 0.01
	}
	if o.PosWeight == 0 {
		o.PosWeight = 3
	}
	return o
}

// Model is a GCTSP-Net: an R-GCN node classifier over QTIGs plus ATSP
// decoding. Classes is 2 for phrase extraction, 4 for key-element
// recognition.
type Model struct {
	Opt     Options
	Classes int
	R       *rgcn.Model
	Lex     *nlp.Lexicon
}

// NewPhraseModel builds a 2-class (in-phrase / out-of-phrase) GCTSP-Net.
func NewPhraseModel(lex *nlp.Lexicon, opt Options) *Model {
	opt = opt.withDefaults()
	return &Model{
		Opt: opt, Classes: 2, Lex: lex,
		R: rgcn.New(rgcn.Config{
			NumRel: qtig.NumRelations, In: FeatureDim,
			Hidden: opt.Hidden, Layers: opt.Layers, Bases: opt.Bases,
			Classes: 2, Seed: opt.Seed + 1,
		}),
	}
}

// NewKeyElementModel builds the 4-class (other/entity/trigger/location)
// GCTSP-Net used for event key-element recognition (§3.2). ATSP decoding is
// not used in this mode.
func NewKeyElementModel(lex *nlp.Lexicon, opt Options) *Model {
	opt = opt.withDefaults()
	return &Model{
		Opt: opt, Classes: int(synth.NumKeyClasses), Lex: lex,
		R: rgcn.New(rgcn.Config{
			NumRel: qtig.NumRelations, In: FeatureDim,
			Hidden: opt.Hidden, Layers: opt.Layers, Bases: opt.Bases,
			Classes: int(synth.NumKeyClasses), Seed: opt.Seed + 2,
		}),
	}
}

// BuildGraph annotates a query-doc cluster and constructs its QTIG.
func (m *Model) BuildGraph(queries, titles []string) *qtig.Graph {
	qs := make([][]nlp.Token, 0, len(queries))
	for _, q := range queries {
		qs = append(qs, m.Lex.Annotate(q))
	}
	ts := make([][]nlp.Token, 0, len(titles))
	for _, t := range titles {
		ts = append(ts, m.Lex.Annotate(t))
	}
	return qtig.Build(qs, ts, m.Opt.Build)
}

// input prepares a query-doc cluster for the node classifier: its QTIG and
// the featurized R-GCN input.
func (m *Model) input(queries, titles []string) (*qtig.Graph, *rgcn.GraphData) {
	g := m.BuildGraph(queries, titles)
	return g, Featurize(g, m.Opt.Mask)
}

// sharesInput reports whether o prepares every cluster exactly as m does
// (same lexicon, graph construction and feature mask), so that one input
// can feed both models.
func (m *Model) sharesInput(o *Model) bool {
	return m.Lex == o.Lex && m.Opt.Build == o.Opt.Build && m.Opt.Mask == o.Opt.Mask
}

// modelEpoch counts the changes to what a Model computes from a cluster's
// text: its classifier's training runs and its lexicon's registrations.
type modelEpoch struct{ trained, lexEdits int }

// epoch reads m's current modelEpoch. Opt, R and Lex are fixed at
// construction, so between two equal readings ExtractPhrase and KeyElements
// are pure functions of their arguments.
func (m *Model) epoch() modelEpoch { return modelEpoch{m.R.TrainEpoch(), m.Lex.Edits()} }

// graphForExample builds the (QTIG, featurized+labelled GraphData) pair for
// one mining example.
func (m *Model) graphForExample(ex *synth.MiningExample) (*qtig.Graph, *rgcn.GraphData) {
	g, data := m.input(ex.Queries, ex.Titles)
	if m.Classes == 2 {
		data.Labels = g.LabelNodes(ex.GoldTokens)
	} else {
		labels := make([]int, len(g.Nodes))
		for i, node := range g.Nodes {
			if node.IsSOS || node.IsEOS {
				labels[i] = int(synth.KeyOther)
				continue
			}
			labels[i] = int(ex.KeyLabelOf(node.Token.Text))
		}
		data.Labels = labels
	}
	return g, data
}

// Train fits the node classifier on mining examples.
func (m *Model) Train(examples []synth.MiningExample) {
	graphs := make([]*rgcn.GraphData, 0, len(examples))
	for i := range examples {
		_, d := m.graphForExample(&examples[i])
		graphs = append(graphs, d)
	}
	var cw []float64
	if m.Classes == 2 {
		cw = []float64{1, m.Opt.PosWeight}
	} else {
		cw = []float64{1, m.Opt.PosWeight, m.Opt.PosWeight, m.Opt.PosWeight}
	}
	m.R.Train(graphs, rgcn.TrainOptions{Epochs: m.Opt.Epochs, LR: m.Opt.LR, ClassWeight: cw})
}

// ExtractPhrase runs the full GCTSP-Net on a query-doc cluster: classify
// nodes, then ATSP-order the positives into a phrase. Returns "" when no
// node is positive and fallback is disabled.
func (m *Model) ExtractPhrase(queries, titles []string) string {
	return m.phraseFrom(m.input(queries, titles))
}

// phraseFrom is ExtractPhrase over an already prepared cluster input.
func (m *Model) phraseFrom(g *qtig.Graph, data *rgcn.GraphData) string {
	probs := m.R.PredictProbs(data)
	positive := m.positiveNodes(g, probs)
	if len(positive) == 0 {
		return ""
	}
	ordered := m.orderNodes(g, positive)
	words := make([]string, 0, len(ordered))
	for _, v := range ordered {
		words = append(words, g.Nodes[v].Token.Text)
	}
	return nlp.JoinTokens(words)
}

func (m *Model) positiveNodes(g *qtig.Graph, probs *nn.Mat) []int {
	var positive []int
	bestProb, bestNode := 0.0, -1
	for v := range g.Nodes {
		if g.Nodes[v].IsSOS || g.Nodes[v].IsEOS {
			continue
		}
		p := probs.At(v, 1)
		if m.Classes > 2 {
			p = 1 - probs.At(v, 0)
		}
		if p > 0.5 {
			positive = append(positive, v)
		}
		if p > bestProb {
			bestProb, bestNode = p, v
		}
	}
	if len(positive) == 0 && m.Opt.Fallback && bestNode >= 0 {
		positive = []int{bestNode}
	}
	return positive
}

// orderNodes sorts positive nodes into output order, via ATSP decoding or
// (ablation) insertion order.
func (m *Model) orderNodes(g *qtig.Graph, positive []int) []int {
	if m.Opt.DisableATSP || len(positive) == 1 {
		out := append([]int(nil), positive...)
		sort.Ints(out)
		return out
	}
	nodes, dist := g.ATSPDistances(positive)
	order := atsp.SolvePath(dist)
	out := make([]int, 0, len(positive))
	for _, idx := range order {
		v := nodes[idx]
		if v == g.SOS || v == g.EOS {
			continue
		}
		out = append(out, v)
	}
	return out
}

// ExtractFromExample extracts the phrase for a dataset example.
func (m *Model) ExtractFromExample(ex *synth.MiningExample) string {
	return m.ExtractPhrase(ex.Queries, ex.Titles)
}

// KeyElements classifies each node of the cluster's QTIG into key-element
// classes, returning token → class (specials omitted).
func (m *Model) KeyElements(queries, titles []string) map[string]synth.KeyClass {
	return m.keyElementsFrom(m.input(queries, titles))
}

// keyElementsFrom is KeyElements over an already prepared cluster input.
func (m *Model) keyElementsFrom(g *qtig.Graph, data *rgcn.GraphData) map[string]synth.KeyClass {
	pred := m.R.Predict(data)
	out := make(map[string]synth.KeyClass, len(g.Nodes))
	for v, node := range g.Nodes {
		if node.IsSOS || node.IsEOS {
			continue
		}
		out[node.Token.Text] = synth.KeyClass(pred[v])
	}
	return out
}
