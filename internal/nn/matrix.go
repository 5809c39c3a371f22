// Package nn is a compact neural-network substrate written against the
// standard library only: dense matrices, Adam, Dense/Embedding layers, LSTM
// and BiLSTM with full BPTT, a linear-chain CRF, and an attention seq2seq —
// everything the paper's learned components (R-GCN, LSTM-CRF baselines,
// TextSummary) need. All math is float64 and all backprop is hand-written.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Mat is a dense row-major matrix.
type Mat struct {
	R, C int
	D    []float64
}

// NewMat returns a zeroed r×c matrix.
func NewMat(r, c int) *Mat {
	return &Mat{R: r, C: c, D: make([]float64, r*c)}
}

// NewMatFrom wraps data (not copied) as an r×c matrix.
func NewMatFrom(r, c int, data []float64) *Mat {
	if len(data) != r*c {
		panic(fmt.Sprintf("nn: NewMatFrom %dx%d with %d values", r, c, len(data)))
	}
	return &Mat{R: r, C: c, D: data}
}

// At returns m[i,j].
func (m *Mat) At(i, j int) float64 { return m.D[i*m.C+j] }

// Set assigns m[i,j] = v.
func (m *Mat) Set(i, j int, v float64) { m.D[i*m.C+j] = v }

// Add increments m[i,j] by v.
func (m *Mat) Add(i, j int, v float64) { m.D[i*m.C+j] += v }

// Row returns row i as a shared slice.
func (m *Mat) Row(i int) []float64 { return m.D[i*m.C : (i+1)*m.C] }

// Clone deep-copies the matrix.
func (m *Mat) Clone() *Mat {
	n := NewMat(m.R, m.C)
	copy(n.D, m.D)
	return n
}

// Zero sets all entries to 0.
func (m *Mat) Zero() {
	for i := range m.D {
		m.D[i] = 0
	}
}

// Scale multiplies all entries by s.
func (m *Mat) Scale(s float64) {
	for i := range m.D {
		m.D[i] *= s
	}
}

// AddMat accumulates o into m (same shape).
func (m *Mat) AddMat(o *Mat) {
	if m.R != o.R || m.C != o.C {
		panic("nn: AddMat shape mismatch")
	}
	for i := range m.D {
		m.D[i] += o.D[i]
	}
}

// MatMul returns A·B (A: r×k, B: k×c).
func MatMul(a, b *Mat) *Mat {
	if a.C != b.R {
		panic(fmt.Sprintf("nn: MatMul %dx%d · %dx%d", a.R, a.C, b.R, b.C))
	}
	out := NewMat(a.R, b.C)
	matMulAcc(out, a, b)
	return out
}

// MatMulInto overwrites out (r×c) with A·B, performing exactly the
// floating-point operations of MatMul in the same order, so a caller that
// reuses out across calls gets bit-identical results without allocating.
// out must not alias a or b.
func MatMulInto(out, a, b *Mat) {
	if a.C != b.R || out.R != a.R || out.C != b.C {
		panic(fmt.Sprintf("nn: MatMulInto %dx%d = %dx%d · %dx%d", out.R, out.C, a.R, a.C, b.R, b.C))
	}
	out.Zero()
	matMulAcc(out, a, b)
}

// matMulAcc accumulates A·B into out, which the caller has zeroed.
func matMulAcc(out, a, b *Mat) {
	for i := 0; i < a.R; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MatMulTA returns Aᵀ·B (A: k×r, B: k×c → r×c). Used for weight gradients.
func MatMulTA(a, b *Mat) *Mat {
	if a.R != b.R {
		panic("nn: MatMulTA shape mismatch")
	}
	out := NewMat(a.C, b.C)
	for k := 0; k < a.R; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Row(i)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulTB returns A·Bᵀ (A: r×k, B: c×k → r×c). Used for input gradients.
func MatMulTB(a, b *Mat) *Mat {
	if a.C != b.C {
		panic("nn: MatMulTB shape mismatch")
	}
	out := NewMat(a.R, b.R)
	for i := 0; i < a.R; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for j := 0; j < b.R; j++ {
			brow := b.Row(j)
			s := 0.0
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] = s
		}
	}
	return out
}

// XavierInit fills m with Glorot-uniform values from rng.
func XavierInit(m *Mat, rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(m.R+m.C))
	for i := range m.D {
		m.D[i] = (rng.Float64()*2 - 1) * limit
	}
}

// ReLU applies max(0, x) elementwise, returning a new matrix.
func ReLU(m *Mat) *Mat {
	out := NewMat(m.R, m.C)
	for i, v := range m.D {
		if v > 0 {
			out.D[i] = v
		}
	}
	return out
}

// ReLUBackward masks the upstream gradient by the ReLU activation pattern of
// pre (the pre-activation values).
func ReLUBackward(dOut, pre *Mat) *Mat {
	g := NewMat(dOut.R, dOut.C)
	for i, v := range pre.D {
		if v > 0 {
			g.D[i] = dOut.D[i]
		}
	}
	return g
}

// Sigmoid is the logistic function.
func Sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// SoftmaxRow replaces each row of m with its softmax, in place.
func SoftmaxRow(m *Mat) {
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		mx := math.Inf(-1)
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		s := 0.0
		for j, v := range row {
			row[j] = math.Exp(v - mx)
			s += row[j]
		}
		if s == 0 {
			s = 1
		}
		for j := range row {
			row[j] /= s
		}
	}
}

// LogSumExp returns log Σ exp(xs).
func LogSumExp(xs []float64) float64 {
	mx := math.Inf(-1)
	for _, v := range xs {
		if v > mx {
			mx = v
		}
	}
	if math.IsInf(mx, -1) {
		return mx
	}
	s := 0.0
	for _, v := range xs {
		s += math.Exp(v - mx)
	}
	return mx + math.Log(s)
}

// Dot returns the inner product of equal-length vectors.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// CosineSim returns the cosine similarity of two vectors (0 when either is
// zero).
func CosineSim(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}
