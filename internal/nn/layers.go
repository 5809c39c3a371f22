package nn

import "math/rand"

// Dense is a fully connected layer y = xW + b.
type Dense struct {
	W, B *Param
	x    *Mat // cached input for backprop
}

// NewDense builds an in→out layer.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	return &Dense{
		W: NewParam(name+".W", in, out, rng),
		B: NewParam(name+".b", 1, out, nil),
	}
}

// Params lists trainable parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Forward computes xW + b, caching x for Backward.
func (d *Dense) Forward(x *Mat) *Mat {
	return d.ForwardInto(NewMat(x.R, d.W.W.C), x)
}

// ForwardInto is Forward writing into out (x.R × out), which it returns.
func (d *Dense) ForwardInto(out, x *Mat) *Mat {
	d.x = x
	return d.inferInto(out, x)
}

// Infer computes xW + b without caching x, so a trained layer can serve
// concurrent inference calls.
func (d *Dense) Infer(x *Mat) *Mat {
	return d.inferInto(NewMat(x.R, d.W.W.C), x)
}

// inferInto is Infer writing into out (x.R × out), which it returns.
func (d *Dense) inferInto(out, x *Mat) *Mat {
	MatMulInto(out, x, d.W.W)
	for i := 0; i < out.R; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] += d.B.W.D[j]
		}
	}
	return out
}

// Backward accumulates parameter gradients and returns dL/dx.
func (d *Dense) Backward(dOut *Mat) *Mat {
	return d.BackwardInto(NewMat(dOut.R, d.W.W.R), NewMat(d.W.W.R, d.W.W.C), dOut)
}

// BackwardInto is Backward writing dL/dx into dX (dOut.R × in), which it
// returns; gW (in × out) is scratch for the weight gradient.
func (d *Dense) BackwardInto(dX, gW, dOut *Mat) *Mat {
	MatMulTAInto(gW, d.x, dOut)
	d.W.G.AddMat(gW)
	for i := 0; i < dOut.R; i++ {
		row := dOut.Row(i)
		for j := range row {
			d.B.G.D[j] += row[j]
		}
	}
	MatMulTBInto(dX, dOut, d.W.W)
	return dX
}

// Embedding is a lookup table of dense vectors.
type Embedding struct {
	Table *Param
	ids   []int
}

// NewEmbedding builds a vocab×dim table.
func NewEmbedding(name string, vocab, dim int, rng *rand.Rand) *Embedding {
	return &Embedding{Table: NewParam(name, vocab, dim, rng)}
}

// Params lists trainable parameters.
func (e *Embedding) Params() []*Param { return []*Param{e.Table} }

// Dim returns the embedding width.
func (e *Embedding) Dim() int { return e.Table.W.C }

// Forward gathers rows for ids into an n×dim matrix.
func (e *Embedding) Forward(ids []int) *Mat {
	e.ids = append(e.ids[:0], ids...)
	out := NewMat(len(ids), e.Dim())
	for i, id := range ids {
		copy(out.Row(i), e.Table.W.Row(id))
	}
	return out
}

// Backward scatters upstream gradients back to the looked-up rows.
func (e *Embedding) Backward(dOut *Mat) {
	for i, id := range e.ids {
		grow := e.Table.G.Row(id)
		drow := dOut.Row(i)
		for j := range grow {
			grow[j] += drow[j]
		}
	}
}
