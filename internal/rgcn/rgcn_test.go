package rgcn

import (
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

func TestGradientsNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := chainGraph(rng, 5)
	m := New(modelCfg())
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
				t.Fatalf("%s#%d[%d]: analytic %v numeric %v", p.Name, pi, i, analytic[pi][i], want)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("too few gradient checks: %d", checked)
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
		if rng.Intn(4) > 0 { // keep exact zeros: MatMul skips them
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
// layers, with the pooled workspace reused across graphs of changing size.
func TestInferBitExactWithForward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for layers := 1; layers <= 5; layers++ {
		cfg := Config{NumRel: 6, In: 7, Hidden: 9, Layers: layers, Bases: 3, Classes: 4, Seed: int64(layers)}
		m := New(cfg)
		for round := 0; round < 2; round++ {
			for i := 0; i < 20; i++ {
				g := randomGraph(rng, 1+rng.Intn(12), cfg.In, cfg.NumRel)
				want := m.Forward(g)
				got := m.Infer(g)
				if got.R != want.R || got.C != want.C {
					t.Fatalf("layers=%d: logits %dx%d, want %dx%d", layers, got.R, got.C, want.R, want.C)
				}
				for k := range want.D {
					if math.Float64bits(got.D[k]) != math.Float64bits(want.D[k]) {
						t.Fatalf("layers=%d round=%d graph=%d: logit %d = %v, Forward gives %v", layers, round, i, k, got.D[k], want.D[k])
					}
				}
			}
			// Second round: after training froze the relation weights.
			var graphs []*GraphData
			for i := 0; i < 4; i++ {
				graphs = append(graphs, randomGraph(rng, 5, cfg.In, cfg.NumRel))
			}
			m.Train(graphs, TrainOptions{Epochs: 2, LR: 0.01})
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
