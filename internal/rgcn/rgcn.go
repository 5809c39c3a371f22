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

	rels    []relation // per relation, laid out by prep
	aggRows int        // Σ len(rels[r].rows): rows of all relation aggregates
	prepped bool
	numRel  int
}

// relation is one relation's share of a graph, laid out for the layer
// kernels.
type relation struct {
	// rows lists the distinct destinations of the relation's edges in
	// ascending order: the only rows of A_r·H that can be nonzero.
	rows []int
	// edges are the relation's edges in input order.
	edges []relEdge
	// base is where the relation's aggregate starts among all relations'
	// aggregate rows (see GraphData.aggRows).
	base int
}

// relEdge is an edge of one relation: its source, the position of its
// destination in relation.rows, and the normalizer c = 1/|N_r(dst)|.
type relEdge struct {
	src, slot int
	norm      float64
}

// prep groups edges by relation, lists each relation's destination rows and
// precomputes the c_vw = |N_r(v)| normalizers. Every table is carved out of
// one backing array, so preparing a graph costs a fixed handful of
// allocations whatever the relation count.
func (g *GraphData) prep(numRel int) {
	if g.prepped && g.numRel == numRel {
		return
	}
	// deg[r*N+v] counts v's incoming r-edges; slot[r*N+v] is v's position
	// in relation r's rows.
	deg := make([]int, 2*numRel*g.N)
	deg, slot := deg[:numRel*g.N], deg[numRel*g.N:]
	total := 0
	for _, e := range g.Edges {
		if e.Rel >= 0 && e.Rel < numRel {
			deg[e.Rel*g.N+e.Dst]++
			total++
		}
	}
	g.aggRows = 0
	for _, d := range deg {
		if d > 0 {
			g.aggRows++
		}
	}
	g.rels = make([]relation, numRel)
	rows := make([]int, 0, g.aggRows)
	edges := make([]relEdge, total)
	for r := range g.rels {
		rel := &g.rels[r]
		rel.base = len(rows)
		n := 0
		for v, d := range deg[r*g.N : (r+1)*g.N] {
			if d > 0 {
				slot[r*g.N+v] = len(rows) - rel.base
				rows = append(rows, v)
				n += d
			}
		}
		rel.rows = rows[rel.base:len(rows):len(rows)]
		rel.edges, edges = edges[:0:n], edges[n:]
	}
	for _, e := range g.Edges {
		if e.Rel >= 0 && e.Rel < numRel {
			k := e.Rel*g.N + e.Dst
			g.rels[e.Rel].edges = append(g.rels[e.Rel].edges, relEdge{src: e.Src, slot: slot[k], norm: 1 / float64(deg[k])})
		}
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

	// Training memory past the last layer, reused from graph to graph.
	logits, dLogits, dHid, outGW nn.Mat
}

// layer is one R-GCN layer with basis decomposition:
// h' = ReLU( H·W0 + Σ_r A_r·H·W_r ), W_r = Σ_b a_rb V_b.
type layer struct {
	in, out int
	W0      *nn.Param   // in×out self-connection
	V       []*nn.Param // B basis matrices in×out
	A       *nn.Param   // numRel×B coefficients
	Bias    *nn.Param   // 1×out

	// wr holds W_r for the relations the graph in training has edges in;
	// inferWr holds W_r for every relation as of New or the last Train, so
	// concurrent Infer calls read it without re-deriving the basis
	// decomposition per call.
	wr, inferWr []nn.Mat

	// Training memory, reused from graph to graph: what forward leaves for
	// backward, then backward's scratch.
	h    *nn.Mat   // layer input
	act  nn.Mat    // ReLU(pre), positive exactly where pre is
	agg  []float64 // every relation's A_r·H rows (see relation.base)
	prod []float64 // one row of one relation's message
	dPre nn.Mat
	dH   nn.Mat
	gW   nn.Mat    // in×out: dW0, then each dW_r in turn
	dAgg []float64 // one relation's dAgg rows
	dots []float64 // per base: the running da_rb
}

func newLayer(name string, in, out, numRel, bases int, rng *rand.Rand) *layer {
	l := &layer{
		in: in, out: out,
		W0:      nn.NewParam(name+".W0", in, out, rng),
		A:       nn.NewParam(name+".a", numRel, bases, rng),
		Bias:    nn.NewParam(name+".bias", 1, out, nil),
		wr:      relMats(numRel, in, out),
		inferWr: relMats(numRel, in, out),
		prod:    make([]float64, out),
		dots:    make([]float64, bases),
	}
	for b := 0; b < bases; b++ {
		l.V = append(l.V, nn.NewParam(name+".V", in, out, rng))
	}
	return l
}

// relMats returns numRel in×out matrices over one backing array.
func relMats(numRel, in, out int) []nn.Mat {
	buf := make([]float64, numRel*in*out)
	ms := make([]nn.Mat, numRel)
	for r := range ms {
		ms[r] = nn.Mat{R: in, C: out, D: buf[r*in*out : (r+1)*in*out : (r+1)*in*out]}
	}
	return ms
}

func (l *layer) parameters() []*nn.Param {
	ps := []*nn.Param{l.W0, l.A, l.Bias}
	return append(ps, l.V...)
}

// relWeight overwrites w with W_r = Σ_b a_rb V_b: each entry is summed over
// the bases in order from +0, skipping zero coefficients.
func (l *layer) relWeight(w *nn.Mat, r int) {
	wd := w.D
	clear(wd)
	for b, c := range l.A.W.Row(r) {
		if c == 0 {
			continue
		}
		v := l.V[b].W.D[:len(wd)]
		for i, x := range v {
			wd[i] += c * x
		}
	}
}

// freeze materializes W_r for every relation into inferWr.
func (l *layer) freeze() {
	for r := range l.inferWr {
		l.relWeight(&l.inferWr[r], r)
	}
}

// The kernels below are the whole layer computation. The training pass
// (forward) and the inference pass (infer) both run pass, so the two perform
// the same floating-point operations in the same order.
//
// A relation's aggregate A_r·H is zero outside the rows its edges reach, and
// so are those rows' messages (A_r·H)·W_r. pass, and backward after it, touch
// only the reached rows. That is exact: every skipped operation adds +0 or
// multiplies a zero, and the only reader of a zero's sign is the > 0 test of
// the ReLU and of its gradient mask.

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

// aggregate overwrites rel's rows of agg with A_r·H and returns them
// (len(rel.rows)×in).
func (l *layer) aggregate(agg []float64, rel *relation, h *nn.Mat) []float64 {
	a := agg[rel.base*l.in : (rel.base+len(rel.rows))*l.in]
	clear(a)
	for _, e := range rel.edges {
		src := h.Row(e.src)
		dst := a[e.slot*l.in : (e.slot+1)*l.in]
		for j, x := range src {
			dst[j] += e.norm * x
		}
	}
	return a
}

// pass overwrites out (N×out) with ReLU(h·W0 + b + Σ_r (A_r·H)·W_r), taking
// W_r from wr; agg (g.aggRows×in) and prod (out) are scratch. Each message
// row is formed in prod from +0 and then added to its pre-activation row.
func (l *layer) pass(out *nn.Mat, agg, prod []float64, g *GraphData, h *nn.Mat, wr []nn.Mat) {
	l.selfInto(out, h)
	for r := range g.rels {
		rel := &g.rels[r]
		if len(rel.rows) == 0 {
			continue
		}
		a := l.aggregate(agg, rel, h)
		for s, v := range rel.rows {
			clear(prod)
			nn.MulRowAcc(prod, a[s*l.in:(s+1)*l.in], &wr[r])
			pre := out.Row(v)
			for j, x := range prod {
				pre[j] += x
			}
		}
	}
	// max(0, x): anything not > 0 becomes +0, as nn.ReLU writes it.
	for i, v := range out.D {
		if !(v > 0) {
			out.D[i] = 0
		}
	}
}

// forward is the training-time pass: it leaves its activations on the layer
// for the subsequent backward call, so it must not run concurrently.
func (l *layer) forward(g *GraphData, h *nn.Mat) *nn.Mat {
	l.h = h
	for r := range g.rels {
		if len(g.rels[r].rows) > 0 {
			l.relWeight(&l.wr[r], r)
		}
	}
	l.agg = grow(l.agg, g.aggRows*l.in)
	l.pass(shaped(&l.act, h.R, l.out), l.agg, l.prod, g, h, l.wr)
	return &l.act
}

// workspace is the scratch memory of one Infer call: two hidden buffers the
// layers ping-pong between (one holds the layer input while the other
// receives the pre-activation and is rectified in place) plus the relation
// aggregates and one message row. Workspaces are pooled, so a warmed-up
// Infer allocates nothing but the logits it returns.
type workspace struct {
	hid       [2]nn.Mat
	agg, prod []float64
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// grow returns buf resized to n, reusing its backing array when it is large
// enough. The contents are unspecified.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// shaped resizes m to r×c, reusing its backing array when it is large
// enough. The contents are unspecified.
func shaped(m *nn.Mat, r, c int) *nn.Mat {
	m.D = grow(m.D, r*c)
	m.R, m.C = r, c
	return m
}

// infer computes the same pass as forward out of ws and writes nothing to
// the layer, so a trained layer can serve many goroutines at once. The
// result lives in ws.hid[slot]; h may be the other hidden buffer.
func (l *layer) infer(ws *workspace, slot int, g *GraphData, h *nn.Mat) *nn.Mat {
	out := shaped(&ws.hid[slot], h.R, l.out)
	ws.agg = grow(ws.agg, g.aggRows*l.in)
	ws.prod = grow(ws.prod, l.out)
	l.pass(out, ws.agg, ws.prod, g, h, l.inferWr)
	return out
}

// backward accumulates the layer's parameter gradients for the graph of the
// last forward and returns dL/dh, which lives in the layer until its next
// backward.
func (l *layer) backward(g *GraphData, dOut *nn.Mat) *nn.Mat {
	// The ReLU's gradient mask: act > 0 exactly where pre > 0.
	dPre := shaped(&l.dPre, dOut.R, dOut.C)
	for i, v := range l.act.D {
		if v > 0 {
			dPre.D[i] = dOut.D[i]
		} else {
			dPre.D[i] = 0
		}
	}
	// Bias.
	for i := 0; i < dPre.R; i++ {
		row := dPre.Row(i)
		for j := range row {
			l.Bias.G.D[j] += row[j]
		}
	}
	// Self connection.
	gW := shaped(&l.gW, l.in, l.out)
	nn.MatMulTAInto(gW, l.h, dPre)
	l.W0.G.AddMat(gW)
	dH := shaped(&l.dH, dPre.R, l.in)
	nn.MatMulTBInto(dH, dPre, l.W0.W)
	// Relations, over the rows each reaches.
	for r := range g.rels {
		rel := &g.rels[r]
		if len(rel.rows) == 0 {
			continue
		}
		a := l.agg[rel.base*l.in : (rel.base+len(rel.rows))*l.in]
		// dW_r = (A_r·H)ᵀ·dPre.
		gW.Zero()
		for s, v := range rel.rows {
			nn.AddOuter(gW, a[s*l.in:(s+1)*l.in], dPre.Row(v))
		}
		l.basisGrads(r, gW)
		// dAgg = dPre·W_rᵀ, then scatter back through A_r.
		l.dAgg = grow(l.dAgg, len(rel.rows)*l.in)
		dAgg := l.dAgg
		for s, v := range rel.rows {
			nn.MulRowTB(dAgg[s*l.in:(s+1)*l.in], dPre.Row(v), &l.wr[r])
		}
		for _, e := range rel.edges {
			src := dH.Row(e.src)
			d := dAgg[e.slot*l.in : (e.slot+1)*l.in]
			for j := range src {
				src[j] += e.norm * d[j]
			}
		}
	}
	return dH
}

// basisGrads back-propagates dW_r through the basis decomposition:
// da_rb = <V_b, dW_r> and dV_b += a_rb·dW_r. It makes one pass over dW_r in
// short blocks, and within a block runs every base, with one accumulator
// per base; each dot product is still summed in index order from +0.
func (l *layer) basisGrads(r int, dWr *nn.Mat) {
	const block = 64
	coef := l.A.W.Row(r)
	dots := l.dots
	clear(dots)
	for i0 := 0; i0 < len(dWr.D); i0 += block {
		d := dWr.D[i0:min(i0+block, len(dWr.D))]
		for b, vb := range l.V {
			v := vb.W.D[i0 : i0+len(d)]
			s := dots[b]
			for i, x := range d {
				s += v[i] * x
			}
			dots[b] = s
			if c := coef[b]; c != 0 {
				g := vb.G.D[i0 : i0+len(d)]
				for i, x := range d {
					g[i] += c * x
				}
			}
		}
	}
	for b, dot := range dots {
		l.A.G.Add(r, b, dot)
	}
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
	m.freeze()
	return m
}

// freeze materializes every layer's W_r for Infer.
func (m *Model) freeze() {
	for _, l := range m.layers {
		l.freeze()
	}
}

// Params lists all trainable parameters.
func (m *Model) Params() []*nn.Param { return m.params }

// TrainEpoch counts the Train runs the model has completed. Between two
// equal readings the frozen weights did not move, so whatever Infer
// returned for an input in that span it still returns — callers that cache
// inference results key them on this.
func (m *Model) TrainEpoch() int { return m.epoch }

// Forward computes per-node class logits (N × Classes) and leaves on the
// model what Backward needs. The logits live in the model until the next
// Forward.
func (m *Model) Forward(g *GraphData) *nn.Mat {
	g.prep(m.Cfg.NumRel)
	h := g.X
	for _, l := range m.layers {
		h = l.forward(g, h)
	}
	return m.out.ForwardInto(shaped(&m.logits, h.R, m.Cfg.Classes), h)
}

// Infer computes per-node class logits like Forward, but without writing the
// forward caches the backward pass needs — a trained model can therefore
// serve concurrent Infer calls from many goroutines (the parallel miner
// depends on this). It reads the weights as of New or the last Train. The
// GraphData itself must still be call-private: prep mutates it.
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

// Backward back-propagates dLogits through the last Forward and returns dX
// (unused by callers but handy for feature-gradient ablations), which lives
// in the model until the next Backward.
func (m *Model) Backward(g *GraphData, dLogits *nn.Mat) *nn.Mat {
	w := m.out.W.W
	d := m.out.BackwardInto(shaped(&m.dHid, dLogits.R, w.R), shaped(&m.outGW, w.R, w.C), dLogits)
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
// Every buffer a step needs is kept on the model and reused, so once an
// epoch has seen the largest graph, training allocates nothing per graph.
func (m *Model) Train(graphs []*GraphData, opt TrainOptions) {
	adam := nn.NewAdam(opt.LR, m.params)
	for ep := 0; ep < opt.Epochs; ep++ {
		total := 0.0
		for _, g := range graphs {
			logits := m.Forward(g)
			dLogits := shaped(&m.dLogits, logits.R, logits.C)
			total += nn.WeightedSoftmaxCEInto(dLogits, logits, g.Labels, opt.ClassWeight)
			m.Backward(g, dLogits)
			adam.Step()
		}
		if opt.Progress != nil {
			opt.Progress(ep, total/float64(len(graphs)))
		}
	}
	// The weights no longer move: freeze W_r for the inference path.
	// (Another Train run re-freezes.)
	m.freeze()
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
