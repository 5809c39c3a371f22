// Package rgcn implements Relational Graph Convolutional Networks
// (Schlichtkrull et al.) with basis decomposition, as used by GCTSP-Net for
// node classification over Query-Title Interaction Graphs (paper Eq. 3–6).
// Forward and backward passes are hand-written; training is full-batch per
// graph with Adam.
package rgcn

import (
	"math/rand"
	"sync"

	"giant/internal/nn"
)

// Edge is a directed typed edge: messages flow Src → Dst under relation Rel.
type Edge struct {
	Src, Dst, Rel int
}

// GraphData is one input graph: node features plus typed edges.
type GraphData struct {
	N     int
	X     *nn.Mat // N × inDim node features
	Edges []Edge
	// Labels[v] is the gold class of node v, or -1 to exclude it from loss.
	Labels []int

	byRel   [][]Edge
	normDst [][]float64 // per relation: 1/|N_r(dst)| for each node
	prepped bool
	numRel  int
}

// prep groups edges by relation and precomputes c_vw = |N_r(v)| normalizers.
// Both tables are carved out of one backing array each, so preparing a
// graph costs a fixed handful of allocations whatever the relation count.
func (g *GraphData) prep(numRel int) {
	if g.prepped && g.numRel == numRel {
		return
	}
	valid := func(e Edge) bool { return e.Rel >= 0 && e.Rel < numRel }
	perRel := make([]int, numRel)
	total := 0
	for _, e := range g.Edges {
		if valid(e) {
			perRel[e.Rel]++
			total++
		}
	}
	g.byRel = make([][]Edge, numRel)
	grouped := make([]Edge, total)
	for r, n := range perRel {
		g.byRel[r], grouped = grouped[:0:n], grouped[n:]
	}
	for _, e := range g.Edges {
		if valid(e) {
			g.byRel[e.Rel] = append(g.byRel[e.Rel], e)
		}
	}
	g.normDst = make([][]float64, numRel)
	norms := make([]float64, numRel*g.N)
	for r := range g.byRel {
		inv := norms[r*g.N : (r+1)*g.N]
		for _, e := range g.byRel[r] {
			inv[e.Dst]++
		}
		for v, c := range inv {
			if c > 0 {
				inv[v] = 1 / c
			}
		}
		g.normDst[r] = inv
	}
	g.prepped = true
	g.numRel = numRel
}

// Config describes the model.
type Config struct {
	NumRel  int
	In      int
	Hidden  int
	Layers  int // number of R-GCN layers (paper: 5)
	Bases   int // basis count B (paper: 5)
	Classes int
	Seed    int64
}

// Model is a multi-layer R-GCN followed by a linear per-node classifier.
type Model struct {
	Cfg    Config
	layers []*layer
	out    *nn.Dense
	params []*nn.Param
	epoch  int // completed Train runs
}

// layer is one R-GCN layer with basis decomposition:
// h' = ReLU( H·W0 + Σ_r A_r·H·W_r ), W_r = Σ_b a_rb V_b.
type layer struct {
	in, out, numRel, bases int
	W0                     *nn.Param   // in×out self-connection
	V                      []*nn.Param // B basis matrices in×out
	A                      *nn.Param   // numRel×B coefficients
	Bias                   *nn.Param   // 1×out

	// forward caches
	h    *nn.Mat   // layer input
	aggs []*nn.Mat // per relation: A_r·H
	pre  *nn.Mat   // pre-activation
	wr   []*nn.Mat // per relation: materialized W_r

	// inferWr is the frozen materialization of W_r for inference, rebuilt by
	// Train once the weights settle so concurrent Infer calls read it
	// without re-deriving the basis decomposition per call.
	inferWr []*nn.Mat
}

func newLayer(name string, in, out, numRel, bases int, rng *rand.Rand) *layer {
	l := &layer{
		in: in, out: out, numRel: numRel, bases: bases,
		W0:   nn.NewParam(name+".W0", in, out, rng),
		A:    nn.NewParam(name+".a", numRel, bases, rng),
		Bias: nn.NewParam(name+".bias", 1, out, nil),
	}
	for b := 0; b < bases; b++ {
		l.V = append(l.V, nn.NewParam(name+".V", in, out, rng))
	}
	return l
}

func (l *layer) parameters() []*nn.Param {
	ps := []*nn.Param{l.W0, l.A, l.Bias}
	return append(ps, l.V...)
}

// relWeights materializes the per-relation weight matrices W_r from the
// basis decomposition into a fresh slice, leaving the layer untouched.
func (l *layer) relWeights() []*nn.Mat {
	wr := make([]*nn.Mat, l.numRel)
	for r := 0; r < l.numRel; r++ {
		w := nn.NewMat(l.in, l.out)
		for b := 0; b < l.bases; b++ {
			coef := l.A.W.At(r, b)
			if coef == 0 {
				continue
			}
			for i, v := range l.V[b].W.D {
				w.D[i] += coef * v
			}
		}
		wr[r] = w
	}
	return wr
}

// The kernels below are the whole layer computation up to the ReLU. The
// training pass (forward) and the inference pass (infer) are both built
// from them, so the two perform the same floating-point operations in the
// same order.

// aggregateInto overwrites agg (N×in) with A_r·H for one relation.
func (l *layer) aggregateInto(agg *nn.Mat, g *GraphData, h *nn.Mat, r int) {
	agg.Zero()
	norm := g.normDst[r]
	for _, e := range g.byRel[r] {
		c := norm[e.Dst]
		src := h.Row(e.Src)
		dst := agg.Row(e.Dst)
		for j := range dst {
			dst[j] += c * src[j]
		}
	}
}

// selfInto overwrites pre (N×out) with the self-connection h·W0 + b.
func (l *layer) selfInto(pre, h *nn.Mat) {
	nn.MatMulInto(pre, h, l.W0.W)
	for i := 0; i < pre.R; i++ {
		row := pre.Row(i)
		for j := range row {
			row[j] += l.Bias.W.D[j]
		}
	}
}

// addRelation adds one relation's message (A_r·H)·W_r to pre; prod (N×out)
// is scratch for the product.
func addRelation(pre, prod, agg, wr *nn.Mat) {
	nn.MatMulInto(prod, agg, wr)
	pre.AddMat(prod)
}

// reluInPlace applies max(0, x) elementwise (anything not > 0 becomes +0,
// as nn.ReLU writes it).
func reluInPlace(m *nn.Mat) {
	for i, v := range m.D {
		if !(v > 0) {
			m.D[i] = 0
		}
	}
}

// forward is the training-time pass: it caches activations on the layer for
// the subsequent backward call, so it must not run concurrently. Edgeless
// relations keep a nil aggregate.
func (l *layer) forward(g *GraphData, h *nn.Mat) *nn.Mat {
	l.h = h
	l.wr = l.relWeights()
	l.aggs = make([]*nn.Mat, l.numRel)
	l.pre = nn.NewMat(h.R, l.out)
	l.selfInto(l.pre, h)
	prod := nn.NewMat(h.R, l.out)
	for r := 0; r < l.numRel; r++ {
		if len(g.byRel[r]) == 0 {
			continue
		}
		l.aggs[r] = nn.NewMat(h.R, l.in)
		l.aggregateInto(l.aggs[r], g, h, r)
		addRelation(l.pre, prod, l.aggs[r], l.wr[r])
	}
	return nn.ReLU(l.pre)
}

// workspace is the scratch memory of one Infer call: two hidden buffers the
// layers ping-pong between (one holds the layer input while the other
// receives the pre-activation and is rectified in place) plus the aggregate
// and product of the relation in hand. Workspaces are pooled, so a warmed-up
// Infer allocates nothing but the logits it returns.
type workspace struct {
	hid       [2]nn.Mat
	agg, prod nn.Mat
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// shaped resizes m to r×c, reusing its backing array when it is large
// enough. The contents are unspecified.
func shaped(m *nn.Mat, r, c int) *nn.Mat {
	if n := r * c; cap(m.D) < n {
		m.D = make([]float64, n)
	} else {
		m.D = m.D[:n]
	}
	m.R, m.C = r, c
	return m
}

// infer computes the same pass as forward out of ws and writes nothing to
// the layer, so a trained layer can serve many goroutines at once. The
// result lives in ws.hid[slot]; h may be the other hidden buffer. It
// prefers the weight matrices frozen by the last Train and only
// re-materializes them for a model that was never trained.
func (l *layer) infer(ws *workspace, slot int, g *GraphData, h *nn.Mat) *nn.Mat {
	wr := l.inferWr
	if wr == nil {
		wr = l.relWeights()
	}
	pre := shaped(&ws.hid[slot], h.R, l.out)
	l.selfInto(pre, h)
	for r := 0; r < l.numRel; r++ {
		if len(g.byRel[r]) == 0 {
			continue
		}
		agg := shaped(&ws.agg, h.R, l.in)
		l.aggregateInto(agg, g, h, r)
		addRelation(pre, shaped(&ws.prod, h.R, l.out), agg, wr[r])
	}
	reluInPlace(pre)
	return pre
}

func (l *layer) backward(g *GraphData, dOut *nn.Mat) *nn.Mat {
	dPre := nn.ReLUBackward(dOut, l.pre)
	// Bias.
	for i := 0; i < dPre.R; i++ {
		row := dPre.Row(i)
		for j := range row {
			l.Bias.G.D[j] += row[j]
		}
	}
	// Self connection.
	l.W0.G.AddMat(nn.MatMulTA(l.h, dPre))
	dH := nn.MatMulTB(dPre, l.W0.W)
	// Relations.
	for r := 0; r < l.numRel; r++ {
		agg := l.aggs[r]
		if agg == nil {
			continue
		}
		dWr := nn.MatMulTA(agg, dPre)
		// Basis decomposition grads: da_rb = <V_b, dWr>, dV_b += a_rb·dWr.
		for b := 0; b < l.bases; b++ {
			dot := 0.0
			vb := l.V[b]
			for i, v := range vb.W.D {
				dot += v * dWr.D[i]
			}
			l.A.G.Add(r, b, dot)
			coef := l.A.W.At(r, b)
			if coef != 0 {
				for i := range vb.G.D {
					vb.G.D[i] += coef * dWr.D[i]
				}
			}
		}
		// dAgg = dPre · W_rᵀ, then scatter back through A_r.
		dAgg := nn.MatMulTB(dPre, l.wr[r])
		norm := g.normDst[r]
		for _, e := range g.byRel[r] {
			c := norm[e.Dst]
			srcRow := dH.Row(e.Src)
			dRow := dAgg.Row(e.Dst)
			for j := range srcRow {
				srcRow[j] += c * dRow[j]
			}
		}
	}
	return dH
}

// New builds an R-GCN model.
func New(cfg Config) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Cfg: cfg}
	in := cfg.In
	for i := 0; i < cfg.Layers; i++ {
		l := newLayer("rgcn", in, cfg.Hidden, cfg.NumRel, cfg.Bases, rng)
		m.layers = append(m.layers, l)
		m.params = append(m.params, l.parameters()...)
		in = cfg.Hidden
	}
	m.out = nn.NewDense("rgcn.out", in, cfg.Classes, rng)
	m.params = append(m.params, m.out.Params()...)
	return m
}

// Params lists all trainable parameters.
func (m *Model) Params() []*nn.Param { return m.params }

// TrainEpoch counts the Train runs the model has completed. Between two
// equal readings the frozen weights did not move, so whatever Infer
// returned for an input in that span it still returns — callers that cache
// inference results key them on this.
func (m *Model) TrainEpoch() int { return m.epoch }

// Forward computes per-node class logits (N × Classes).
func (m *Model) Forward(g *GraphData) *nn.Mat {
	g.prep(m.Cfg.NumRel)
	h := g.X
	for _, l := range m.layers {
		h = l.forward(g, h)
	}
	return m.out.Forward(h)
}

// Infer computes per-node class logits like Forward, but without writing the
// forward caches the backward pass needs — a trained model can therefore
// serve concurrent Infer calls from many goroutines (the parallel miner
// depends on this). The GraphData itself must still be call-private: prep
// mutates it.
func (m *Model) Infer(g *GraphData) *nn.Mat {
	g.prep(m.Cfg.NumRel)
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	h := g.X
	for i, l := range m.layers {
		h = l.infer(ws, i&1, g, h)
	}
	return m.out.Infer(h) // a fresh matrix: nothing of ws escapes
}

// Backward back-propagates dLogits and returns dX (unused by callers but
// handy for feature-gradient ablations).
func (m *Model) Backward(g *GraphData, dLogits *nn.Mat) *nn.Mat {
	d := m.out.Backward(dLogits)
	for i := len(m.layers) - 1; i >= 0; i-- {
		d = m.layers[i].backward(g, d)
	}
	return d
}

// TrainOptions configure Train.
type TrainOptions struct {
	Epochs      int
	LR          float64
	ClassWeight []float64 // optional per-class loss weight
	Progress    func(epoch int, loss float64)
}

// Train fits the model on the labelled graphs (one Adam step per graph).
func (m *Model) Train(graphs []*GraphData, opt TrainOptions) {
	adam := nn.NewAdam(opt.LR, m.params)
	for ep := 0; ep < opt.Epochs; ep++ {
		total := 0.0
		for _, g := range graphs {
			logits := m.Forward(g)
			var loss float64
			var dLogits *nn.Mat
			if opt.ClassWeight != nil {
				loss, dLogits = nn.WeightedSoftmaxCE(logits, g.Labels, opt.ClassWeight)
			} else {
				loss, dLogits = nn.SoftmaxCE(logits, g.Labels)
			}
			m.Backward(g, dLogits)
			adam.Step()
			total += loss
		}
		if opt.Progress != nil {
			opt.Progress(ep, total/float64(len(graphs)))
		}
	}
	// Freeze the materialized W_r for the inference path: weights no longer
	// move, so Infer can reuse them instead of re-deriving the basis
	// decomposition on every call. (Another Train run re-freezes.)
	for _, l := range m.layers {
		l.inferWr = l.relWeights()
	}
	m.epoch++
}

// Predict returns the argmax class per node. Safe for concurrent use on a
// trained model (each call must own its GraphData).
func (m *Model) Predict(g *GraphData) []int {
	logits := m.Infer(g)
	out := make([]int, g.N)
	for v := 0; v < g.N; v++ {
		row := logits.Row(v)
		best, arg := row[0], 0
		for j, s := range row {
			if s > best {
				best, arg = s, j
			}
		}
		out[v] = arg
	}
	return out
}

// PredictProbs returns per-node softmax probabilities. Safe for concurrent
// use on a trained model (each call must own its GraphData).
func (m *Model) PredictProbs(g *GraphData) *nn.Mat {
	logits := m.Infer(g)
	nn.SoftmaxRow(logits)
	return logits
}
