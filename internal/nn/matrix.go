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

// MatMulInto overwrites out (r×c) with A·B (A: r×k, B: k×c), so a caller
// that reuses out across calls gets bit-identical results without
// allocating. out must not alias a or b.
func MatMulInto(out, a, b *Mat) {
	if a.C != b.R || out.R != a.R || out.C != b.C {
		panic(fmt.Sprintf("nn: MatMulInto %dx%d = %dx%d · %dx%d", out.R, out.C, a.R, a.C, b.R, b.C))
	}
	out.Zero()
	for i := 0; i < a.R; i++ {
		MulRowAcc(out.Row(i), a.Row(i), b)
	}
}

// MulRowAcc accumulates one row of A·B: out (len b.C) += a·B for a row a
// (len b.R). Zero entries of a are skipped. MatMulInto is this kernel over every
// row, so a caller that knows which rows of A can be nonzero may run it over
// those rows only and get the same bits. Nonzero entries are taken two at a
// time, each output adding the first product and then the second, so every
// output sees the one-at-a-time sequence of additions.
func MulRowAcc(out, a []float64, b *Mat) {
	next := func(k int) int {
		for k < len(a) && a[k] == 0 {
			k++
		}
		return k
	}
	for k0 := next(0); k0 < len(a); {
		a0, b0 := a[k0], b.Row(k0)[:len(out)]
		k1 := next(k0 + 1)
		if k1 == len(a) {
			for j, bv := range b0 {
				out[j] += a0 * bv
			}
			return
		}
		a1, b1 := a[k1], b.Row(k1)[:len(out)]
		for j := range out {
			out[j] = out[j] + a0*b0[j] + a1*b1[j]
		}
		k0 = next(k1 + 1)
	}
}

// MatMulTAInto overwrites out (r×c) with Aᵀ·B (A: k×r, B: k×c). Used for
// weight gradients.
func MatMulTAInto(out, a, b *Mat) {
	if a.R != b.R || out.R != a.C || out.C != b.C {
		panic(fmt.Sprintf("nn: MatMulTAInto %dx%d = (%dx%d)ᵀ · %dx%d", out.R, out.C, a.R, a.C, b.R, b.C))
	}
	out.Zero()
	for k := 0; k < a.R; k++ {
		AddOuter(out, a.Row(k), b.Row(k))
	}
}

// AddOuter accumulates the outer product aᵀ·b into out (len(a)×len(b)),
// skipping zero entries of a. MatMulTAInto is this kernel over every row pair in
// row order; an all-zero row of A contributes nothing and may be left out.
func AddOuter(out *Mat, a, b []float64) {
	for i, av := range a {
		if av == 0 {
			continue
		}
		orow := out.Row(i)[:len(b)]
		for j, bv := range b {
			orow[j] += av * bv
		}
	}
}

// MatMulTBInto overwrites out (r×c) with A·Bᵀ (A: r×k, B: c×k). Used for
// input gradients.
func MatMulTBInto(out, a, b *Mat) {
	if a.C != b.C || out.R != a.R || out.C != b.R {
		panic(fmt.Sprintf("nn: MatMulTBInto %dx%d = %dx%d · (%dx%d)ᵀ", out.R, out.C, a.R, a.C, b.R, b.C))
	}
	for i := 0; i < a.R; i++ {
		MulRowTB(out.Row(i), a.Row(i), b)
	}
}

// MulRowTB overwrites out (len b.R) with one row of A·Bᵀ: out[j] is the dot
// product of a and row j of B, summed in index order from +0. Four outputs
// share a pass over a, each with its own accumulator, so every sum is the
// one a one-output loop would form.
func MulRowTB(out, a []float64, b *Mat) {
	if len(a) != b.C || len(out) != b.R {
		panic("nn: MulRowTB shape mismatch")
	}
	j := 0
	for ; j+4 <= b.R; j += 4 {
		b0, b1, b2, b3 := b.Row(j)[:len(a)], b.Row(j + 1)[:len(a)], b.Row(j + 2)[:len(a)], b.Row(j + 3)[:len(a)]
		var s0, s1, s2, s3 float64
		for k, av := range a {
			s0 += av * b0[k]
			s1 += av * b1[k]
			s2 += av * b2[k]
			s3 += av * b3[k]
		}
		out[j], out[j+1], out[j+2], out[j+3] = s0, s1, s2, s3
	}
	for ; j < b.R; j++ {
		brow := b.Row(j)[:len(a)]
		s := 0.0
		for k, av := range a {
			s += av * brow[k]
		}
		out[j] = s
	}
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
