package rgcn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"giant/internal/nn"
)

// chainGraph builds a simple typed graph: labels depend on whether a node
// has an incoming relation-0 edge — learnable only through message passing.
func chainGraph(rng *rand.Rand, n int) *GraphData {
	g := &GraphData{N: n, X: nn.NewMat(n, 4), Labels: make([]int, n)}
	for v := 0; v < n; v++ {
		for j := 0; j < 4; j++ {
			g.X.Set(v, j, rng.Float64())
		}
	}
	for v := 0; v+1 < n; v++ {
		rel := v % 2
		g.Edges = append(g.Edges, Edge{Src: v, Dst: v + 1, Rel: rel})
		if rel == 0 {
			g.Labels[v+1] = 1
		}
	}
	return g
}

func modelCfg() Config {
	return Config{NumRel: 2, In: 4, Hidden: 8, Layers: 2, Bases: 2, Classes: 2, Seed: 9}
}

func TestForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := chainGraph(rng, 6)
	m := New(modelCfg())
	logits := m.Forward(g)
	if logits.R != 6 || logits.C != 2 {
		t.Fatalf("logits %dx%d", logits.R, logits.C)
	}
}

// edgeCaseGraph is a 6-node graph over 4 relations that covers every shape
// the row-restricted relation passes must get right: relation 0 has no
// edges, relation 1 reaches a strict subset of the nodes (listed out of
// destination order), relation 2 has two parallel edges into one node
// (normalizer ½), and nodes 0 and 5 have no incoming edge at all.
func edgeCaseGraph(rng *rand.Rand, in int) *GraphData {
	const n = 6
	g := &GraphData{N: n, X: nn.NewMat(n, in), Labels: make([]int, n)}
	for i := range g.X.D {
		g.X.D[i] = rng.NormFloat64()
	}
	for v := range g.Labels {
		g.Labels[v] = rng.Intn(2)
	}
	g.Edges = []Edge{
		{Src: 3, Dst: 4, Rel: 1}, {Src: 0, Dst: 2, Rel: 1},
		{Src: 1, Dst: 3, Rel: 2}, {Src: 1, Dst: 3, Rel: 2}, {Src: 5, Dst: 1, Rel: 2},
		{Src: 2, Dst: 1, Rel: 3}, {Src: 4, Dst: 3, Rel: 3}, {Src: 0, Dst: 3, Rel: 3},
	}
	return g
}

// testBases are the basis counts the kernels are checked at: every count
// runs the same code, and none goes untested.
var testBases = []int{1, 3, 5, 7}

func TestGradientsNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, bases := range testBases {
		for _, c := range []struct {
			name string
			g    *GraphData
			cfg  Config
		}{
			{"chain", chainGraph(rng, 5), Config{NumRel: 2, In: 4, Hidden: 8, Layers: 2, Bases: bases, Classes: 2, Seed: 9}},
			{"edge cases", edgeCaseGraph(rng, 4), Config{NumRel: 4, In: 4, Hidden: 8, Layers: 3, Bases: bases, Classes: 2, Seed: 10}},
		} {
			checkGradients(t, fmt.Sprintf("%s, %d bases", c.name, bases), New(c.cfg), c.g)
		}
	}
}

// checkGradients compares m's analytic gradients on g with central
// differences.
func checkGradients(t *testing.T, name string, m *Model, g *GraphData) {
	t.Helper()
	loss := func() float64 {
		logits := m.Forward(g)
		l, _ := nn.SoftmaxCE(logits, g.Labels)
		return l
	}
	logits := m.Forward(g)
	_, dLogits := nn.SoftmaxCE(logits, g.Labels)
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
	m.Backward(g, dLogits)
	// Snapshot per parameter INDEX: layers reuse parameter names.
	analytic := make([][]float64, len(m.Params()))
	for pi, p := range m.Params() {
		analytic[pi] = append([]float64(nil), p.G.D...)
	}
	const eps = 1e-5
	checked := 0
	for pi, p := range m.Params() {
		step := len(p.W.D)/5 + 1
		for i := 0; i < len(p.W.D); i += step {
			old := p.W.D[i]
			p.W.D[i] = old + eps
			lp := loss()
			p.W.D[i] = old - eps
			lm := loss()
			p.W.D[i] = old
			want := (lp - lm) / (2 * eps)
			if math.Abs(want-analytic[pi][i]) > 1e-4 {
				t.Fatalf("%s: %s#%d[%d]: analytic %v numeric %v", name, p.Name, pi, i, analytic[pi][i], want)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("%s: too few gradient checks: %d", name, checked)
	}
}

func TestTrainingLearnsRelationalRule(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var graphs []*GraphData
	for i := 0; i < 24; i++ {
		graphs = append(graphs, chainGraph(rng, 6+i%4))
	}
	m := New(modelCfg())
	m.Train(graphs, TrainOptions{Epochs: 20, LR: 0.02})
	// Accuracy on fresh graphs must beat the majority baseline.
	correct, total, majority := 0, 0, 0
	for i := 0; i < 6; i++ {
		g := chainGraph(rng, 7)
		pred := m.Predict(g)
		for v := range pred {
			if pred[v] == g.Labels[v] {
				correct++
			}
			if g.Labels[v] == 0 {
				majority++
			}
			total++
		}
	}
	acc := float64(correct) / float64(total)
	base := float64(majority) / float64(total)
	if base < 0.5 {
		base = 1 - base
	}
	if acc <= base {
		t.Fatalf("R-GCN accuracy %.3f did not beat majority %.3f", acc, base)
	}
}

func TestPredictProbsRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := chainGraph(rng, 5)
	m := New(modelCfg())
	probs := m.PredictProbs(g)
	for v := 0; v < probs.R; v++ {
		s := 0.0
		for j := 0; j < probs.C; j++ {
			s += probs.At(v, j)
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", v, s)
		}
	}
}

func TestBasisDecompositionShares(t *testing.T) {
	// With B bases and R relations, each layer holds B basis matrices, not R.
	cfg := modelCfg()
	cfg.NumRel = 10
	cfg.Bases = 2
	m := New(cfg)
	nV := 0
	for _, p := range m.Params() {
		if p.Name == "rgcn.V" {
			nV++
		}
	}
	if nV != cfg.Bases*cfg.Layers {
		t.Fatalf("basis matrices = %d, want %d", nV, cfg.Bases*cfg.Layers)
	}
}

func TestEdgesOutOfRangeIgnored(t *testing.T) {
	g := &GraphData{N: 2, X: nn.NewMat(2, 4), Labels: []int{0, 0},
		Edges: []Edge{{Src: 0, Dst: 1, Rel: 99}}}
	m := New(modelCfg())
	// Must not panic.
	m.Forward(g)
}

// randomGraph is a typed multigraph with random features, random edges over
// numRel relations (some relations left empty, some edges out of range) and
// no structure at all — the inference/training equivalence must hold on
// anything.
func randomGraph(rng *rand.Rand, n, in, numRel int) *GraphData {
	g := &GraphData{N: n, X: nn.NewMat(n, in), Labels: make([]int, n)}
	for i := range g.X.D {
		if rng.Intn(4) > 0 { // keep exact zeros: MulRowAcc skips them
			g.X.D[i] = rng.NormFloat64()
		}
	}
	for e := rng.Intn(4 * n); e > 0; e-- {
		g.Edges = append(g.Edges, Edge{Src: rng.Intn(n), Dst: rng.Intn(n), Rel: rng.Intn(numRel+1) - rng.Intn(2)})
	}
	return g
}

// TestInferBitExactWithForward pins the workspace inference pass to the
// training pass: same floating-point operations in the same order, so the
// logits agree to the last bit, for untrained and trained models, 1 to 5
// layers, every basis count in testBases, on random graphs and on the edge
// cases, with the pooled workspace reused across graphs of changing size.
func TestInferBitExactWithForward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, bases := range testBases {
		for layers := 1; layers <= 5; layers++ {
			cfg := Config{NumRel: 6, In: 7, Hidden: 9, Layers: layers, Bases: bases, Classes: 4, Seed: int64(layers)}
			m := New(cfg)
			for round := 0; round < 2; round++ {
				graphs := []*GraphData{edgeCaseGraph(rng, cfg.In)}
				for i := 0; i < 20; i++ {
					graphs = append(graphs, randomGraph(rng, 1+rng.Intn(12), cfg.In, cfg.NumRel))
				}
				for i, g := range graphs {
					want := m.Forward(g)
					got := m.Infer(g)
					if got.R != want.R || got.C != want.C {
						t.Fatalf("bases=%d layers=%d: logits %dx%d, want %dx%d", bases, layers, got.R, got.C, want.R, want.C)
					}
					for k := range want.D {
						if math.Float64bits(got.D[k]) != math.Float64bits(want.D[k]) {
							t.Fatalf("bases=%d layers=%d round=%d graph=%d: logit %d = %v, Forward gives %v", bases, layers, round, i, k, got.D[k], want.D[k])
						}
					}
				}
				// Second round: after training froze the relation weights.
				var train []*GraphData
				for i := 0; i < 4; i++ {
					train = append(train, randomGraph(rng, 5, cfg.In, cfg.NumRel))
				}
				m.Train(append(train, edgeCaseGraph(rng, cfg.In)), TrainOptions{Epochs: 2, LR: 0.01})
			}
		}
	}
}

// TestInferSteadyStateAllocs bounds what a warmed-up Infer allocates: the
// logits it returns (matrix header + data) and nothing that grows with the
// layer count — one constant covers 1 layer and 5. (The bound leaves room
// for the race detector's sync.Pool, which drops a share of the Puts.)
func TestInferSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, layers := range []int{1, 5} {
		cfg := Config{NumRel: 6, In: 7, Hidden: 9, Layers: layers, Bases: 3, Classes: 4, Seed: 1}
		m := New(cfg)
		g := randomGraph(rng, 10, cfg.In, cfg.NumRel)
		m.Train([]*GraphData{g}, TrainOptions{Epochs: 1, LR: 0.01})
		m.Infer(g) // warm the pooled workspace
		if allocs := testing.AllocsPerRun(200, func() { m.Infer(g) }); allocs > 4 {
			t.Errorf("layers=%d: Infer allocates %.0f objects per call, want <= 4", layers, allocs)
		}
	}
}

// TestTrainSteadyStateAllocs bounds what a Train epoch allocates once an
// epoch over the same graphs has warmed the model's buffers: at most the
// optimizer, and nothing that grows with the layer count or the graph
// count — one constant covers 1 layer and 5, one graph and eight.
func TestTrainSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, layers := range []int{1, 5} {
		for _, n := range []int{1, 8} {
			cfg := Config{NumRel: 6, In: 7, Hidden: 9, Layers: layers, Bases: 3, Classes: 4, Seed: 1}
			m := New(cfg)
			graphs := []*GraphData{edgeCaseGraph(rng, cfg.In)}
			for len(graphs) < n {
				graphs = append(graphs, randomGraph(rng, 2+rng.Intn(12), cfg.In, cfg.NumRel))
			}
			opt := TrainOptions{Epochs: 1, LR: 0.01, ClassWeight: []float64{1, 3, 3, 3}}
			m.Train(graphs, opt) // the warm-up epoch
			if allocs := testing.AllocsPerRun(20, func() { m.Train(graphs, opt) }); allocs > 1 {
				t.Errorf("layers=%d graphs=%d: a warm Train epoch allocates %.0f objects, want <= 1", layers, n, allocs)
			}
		}
	}
}

// BenchmarkTrain is one epoch over 16 graphs shaped like GCTSP-Net's
// query-title graphs (28 nodes, 26 relations, about 110 edges) at the
// paper's 5 layers, 5 bases and hidden 32.
func BenchmarkTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	cfg := Config{NumRel: 26, In: 40, Hidden: 32, Layers: 5, Bases: 5, Classes: 2, Seed: 1}
	var graphs []*GraphData
	for i := 0; i < 16; i++ {
		g := randomGraph(rng, 28, cfg.In, cfg.NumRel)
		for v := range g.Labels {
			g.Labels[v] = rng.Intn(cfg.Classes)
		}
		graphs = append(graphs, g)
	}
	m := New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Train(graphs, TrainOptions{Epochs: 1, LR: 0.01})
	}
}

// The reference below is the layer pass as it was before the relation
// passes were restricted to the rows each relation reaches: every relation
// over all N rows, dense products from zeroed matrices, single-accumulator
// dot products. TestRowRestrictedMatchesDense holds the model to it bit for
// bit.

func refMatMul(a, b *nn.Mat) *nn.Mat {
	out := nn.NewMat(a.R, b.C)
	for i := 0; i < a.R; i++ {
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				out.Row(i)[j] += av * bv
			}
		}
	}
	return out
}

func refMatMulTA(a, b *nn.Mat) *nn.Mat {
	out := nn.NewMat(a.C, b.C)
	for k := 0; k < a.R; k++ {
		for i, av := range a.Row(k) {
			if av == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				out.Row(i)[j] += av * bv
			}
		}
	}
	return out
}

func refMatMulTB(a, b *nn.Mat) *nn.Mat {
	out := nn.NewMat(a.R, b.R)
	for i := 0; i < a.R; i++ {
		for j := 0; j < b.R; j++ {
			s := 0.0
			for k, av := range a.Row(i) {
				s += av * b.Row(j)[k]
			}
			out.Row(i)[j] = s
		}
	}
	return out
}

func addBias(m *nn.Mat, bias []float64) {
	for i := 0; i < m.R; i++ {
		for j := range m.Row(i) {
			m.Row(i)[j] += bias[j]
		}
	}
}

// refRelation returns relation r's edges in input order and the per-node
// normalizers 1/|N_r(v)|.
func refRelation(g *GraphData, r int) ([]Edge, []float64) {
	var edges []Edge
	norm := make([]float64, g.N)
	for _, e := range g.Edges {
		if e.Rel == r {
			edges = append(edges, e)
			norm[e.Dst]++
		}
	}
	for v, c := range norm {
		if c > 0 {
			norm[v] = 1 / c
		}
	}
	return edges, norm
}

// refStep runs the reference forward pass, then back-propagates dLogits(logits)
// into the parameters' gradients, and returns the logits and dX.
func refStep(m *Model, g *GraphData, dLogits func(*nn.Mat) *nn.Mat) (logits, dX *nn.Mat) {
	type cache struct {
		h, pre    *nn.Mat
		aggs, wrs []*nn.Mat
	}
	caches := make([]cache, len(m.layers))
	h := g.X
	for li, l := range m.layers {
		numRel := l.A.W.R
		c := cache{h: h, aggs: make([]*nn.Mat, numRel), wrs: make([]*nn.Mat, numRel)}
		c.pre = refMatMul(h, l.W0.W)
		addBias(c.pre, l.Bias.W.D)
		for r := 0; r < numRel; r++ {
			w := nn.NewMat(l.in, l.out)
			for b := range l.V {
				if coef := l.A.W.At(r, b); coef != 0 {
					for i, v := range l.V[b].W.D {
						w.D[i] += coef * v
					}
				}
			}
			c.wrs[r] = w
			edges, norm := refRelation(g, r)
			if len(edges) == 0 {
				continue
			}
			agg := nn.NewMat(g.N, l.in)
			for _, e := range edges {
				for j, x := range h.Row(e.Src) {
					agg.Row(e.Dst)[j] += norm[e.Dst] * x
				}
			}
			c.aggs[r] = agg
			c.pre.AddMat(refMatMul(agg, w))
		}
		h = nn.ReLU(c.pre)
		caches[li] = c
	}
	logits = refMatMul(h, m.out.W.W)
	addBias(logits, m.out.B.W.D)

	d := dLogits(logits)
	m.out.W.G.AddMat(refMatMulTA(h, d))
	for i := 0; i < d.R; i++ {
		for j, x := range d.Row(i) {
			m.out.B.G.D[j] += x
		}
	}
	d = refMatMulTB(d, m.out.W.W)
	for li := len(m.layers) - 1; li >= 0; li-- {
		l, c := m.layers[li], caches[li]
		dPre := nn.ReLUBackward(d, c.pre)
		for i := 0; i < dPre.R; i++ {
			for j, x := range dPre.Row(i) {
				l.Bias.G.D[j] += x
			}
		}
		l.W0.G.AddMat(refMatMulTA(c.h, dPre))
		dH := refMatMulTB(dPre, l.W0.W)
		for r, agg := range c.aggs {
			if agg == nil {
				continue
			}
			dWr := refMatMulTA(agg, dPre)
			for b := range l.V {
				dot := 0.0
				for i, v := range l.V[b].W.D {
					dot += v * dWr.D[i]
				}
				l.A.G.Add(r, b, dot)
				if coef := l.A.W.At(r, b); coef != 0 {
					for i := range l.V[b].G.D {
						l.V[b].G.D[i] += coef * dWr.D[i]
					}
				}
			}
			dAgg := refMatMulTB(dPre, c.wrs[r])
			edges, norm := refRelation(g, r)
			for _, e := range edges {
				for j := range dH.Row(e.Src) {
					dH.Row(e.Src)[j] += norm[e.Dst] * dAgg.Row(e.Dst)[j]
				}
			}
		}
		d = dH
	}
	return logits, d
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRowRestrictedMatchesDense holds Forward and Backward to the dense
// reference bit for bit — logits, every parameter gradient and dX — at every
// basis count in testBases, on the edge-case graph and on random graphs,
// before and between training epochs.
func TestRowRestrictedMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, bases := range testBases {
		for _, layers := range []int{1, 3} {
			cfg := Config{NumRel: 6, In: 7, Hidden: 9, Layers: layers, Bases: bases, Classes: 3, Seed: int64(bases)}
			m := New(cfg)
			for round := 0; round < 3; round++ {
				graphs := []*GraphData{edgeCaseGraph(rng, cfg.In)}
				for i := 0; i < 6; i++ {
					g := randomGraph(rng, 1+rng.Intn(12), cfg.In, cfg.NumRel)
					for v := range g.Labels {
						g.Labels[v] = rng.Intn(cfg.Classes+1) - 1
					}
					graphs = append(graphs, g)
				}
				for gi, g := range graphs {
					name := fmt.Sprintf("bases=%d layers=%d round=%d graph=%d", bases, layers, round, gi)
					for _, p := range m.Params() {
						p.ZeroGrad()
					}
					dLogits := func(logits *nn.Mat) *nn.Mat { _, d := nn.SoftmaxCE(logits, g.Labels); return d }
					wantLogits, wantDX := refStep(m, g, dLogits)
					want := make([][]float64, len(m.Params()))
					for pi, p := range m.Params() {
						want[pi] = append([]float64(nil), p.G.D...)
						p.ZeroGrad()
					}
					logits := m.Forward(g)
					if !sameBits(logits.D, wantLogits.D) {
						t.Fatalf("%s: logits differ from the dense reference", name)
					}
					dX := m.Backward(g, dLogits(logits))
					if !sameBits(dX.D, wantDX.D) {
						t.Fatalf("%s: dX differs from the dense reference", name)
					}
					for pi, p := range m.Params() {
						if !sameBits(p.G.D, want[pi]) {
							t.Fatalf("%s: gradient of %s#%d differs from the dense reference", name, p.Name, pi)
						}
					}
				}
				for _, p := range m.Params() {
					p.ZeroGrad()
				}
				m.Train(graphs, TrainOptions{Epochs: 1, LR: 0.02})
			}
		}
	}
}
