package linking

import (
	"math"
	"math/rand"
	"sort"
)

// EntityEmbedder learns entity embeddings with a hinge loss over
// co-occurrence pairs (§3.2, "Edges between Entities"): the Euclidean
// distance between correlated entities is pushed below margin, random
// negatives above. Pairs whose learned distance falls under
// DistanceThreshold are emitted as correlate edges.
type EntityEmbedder struct {
	Dim               int
	Margin            float64
	DistanceThreshold float64
	LR                float64
	Epochs            int
	Seed              int64

	names []string
	index map[string]int
	vecs  [][]float64
}

// NewEntityEmbedder returns an embedder with paper-flavoured defaults.
func NewEntityEmbedder(dim int) *EntityEmbedder {
	return &EntityEmbedder{
		Dim: dim, Margin: 1.5, DistanceThreshold: 1.0,
		LR: 0.08, Epochs: 40, Seed: 17,
		index: make(map[string]int),
	}
}

func (e *EntityEmbedder) idOf(name string) int {
	if i, ok := e.index[name]; ok {
		return i
	}
	i := len(e.names)
	e.index[name] = i
	e.names = append(e.names, name)
	return i
}

// Train learns embeddings from positive co-occurrence pairs, with one random
// negative sampled per positive per epoch.
func (e *EntityEmbedder) Train(pairs [][2]string) {
	rng := rand.New(rand.NewSource(e.Seed))
	type ipair struct{ a, b int }
	ipairs := make([]ipair, 0, len(pairs))
	for _, p := range pairs {
		ipairs = append(ipairs, ipair{e.idOf(p[0]), e.idOf(p[1])})
	}
	n := len(e.names)
	if n == 0 {
		return
	}
	e.vecs = make([][]float64, n)
	for i := range e.vecs {
		v := make([]float64, e.Dim)
		for j := range v {
			v[j] = rng.NormFloat64() * 0.5
		}
		e.vecs[i] = v
	}
	for ep := 0; ep < e.Epochs; ep++ {
		rng.Shuffle(len(ipairs), func(i, j int) { ipairs[i], ipairs[j] = ipairs[j], ipairs[i] })
		for _, p := range ipairs {
			neg := rng.Intn(n)
			for neg == p.a || neg == p.b {
				neg = rng.Intn(n)
			}
			// Hinge: max(0, margin + d(a,b) - d(a,neg)).
			dPos := e.dist(p.a, p.b)
			dNeg := e.dist(p.a, neg)
			switch {
			case e.Margin+dPos-dNeg > 0:
				// Gradient step: pull a,b together; push a,neg apart.
				e.step(p.a, p.b, -e.LR) // attract
				e.step(p.a, neg, e.LR)  // repel
			case dPos > 0.8*e.DistanceThreshold:
				// The relative hinge is satisfied but the pair still sits
				// above the classification threshold: keep attracting so
				// positives land inside it.
				e.step(p.a, p.b, -e.LR)
			}
		}
	}
}

// step moves the pair along the distance gradient: sign<0 attracts,
// sign>0 repels.
func (e *EntityEmbedder) step(a, b int, lr float64) {
	va, vb := e.vecs[a], e.vecs[b]
	d := e.dist(a, b)
	if d < 1e-9 {
		return
	}
	for j := range va {
		g := (va[j] - vb[j]) / d
		va[j] += lr * g
		vb[j] -= lr * g
	}
}

func (e *EntityEmbedder) dist(a, b int) float64 {
	va, vb := e.vecs[a], e.vecs[b]
	s := 0.0
	for j := range va {
		d := va[j] - vb[j]
		s += d * d
	}
	return math.Sqrt(s)
}

// Distance returns the learned distance between two entities (+Inf for
// unknown names).
func (e *EntityEmbedder) Distance(a, b string) float64 {
	ia, ok1 := e.index[a]
	ib, ok2 := e.index[b]
	if !ok1 || !ok2 {
		return math.Inf(1)
	}
	return e.dist(ia, ib)
}

// Correlated reports whether two entities' learned distance is below the
// threshold.
func (e *EntityEmbedder) Correlated(a, b string) bool {
	return e.Distance(a, b) < e.DistanceThreshold
}

// CorrelatePairs scans candidate pairs and returns those classified as
// correlated.
func (e *EntityEmbedder) CorrelatePairs(cands [][2]string) [][2]string {
	var out [][2]string
	for _, p := range cands {
		if e.Correlated(p[0], p[1]) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
