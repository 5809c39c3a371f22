package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatMulShapes(t *testing.T) {
	a := NewMatFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewMatFrom(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := NewMat(2, 2)
	MatMulInto(c, a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if math.Abs(c.D[i]-v) > 1e-12 {
			t.Fatalf("MatMulInto[%d] = %v, want %v", i, c.D[i], v)
		}
	}
}

func TestMatMulTransposes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMat(4, 3)
	b := NewMat(4, 5)
	XavierInit(a, rng)
	XavierInit(b, rng)
	// Aᵀ·B via MatMulTAInto must equal explicit transpose multiply.
	at := NewMat(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	got, want := NewMat(3, 5), NewMat(3, 5)
	MatMulTAInto(got, a, b)
	MatMulInto(want, at, b)
	for i := range want.D {
		if math.Abs(got.D[i]-want.D[i]) > 1e-12 {
			t.Fatal("MatMulTAInto mismatch")
		}
	}
	// A·Bᵀ via MatMulTBInto.
	c := NewMat(5, 3)
	XavierInit(c, rng)
	ct := NewMat(3, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			ct.Set(j, i, c.At(i, j))
		}
	}
	got2, want2 := NewMat(4, 5), NewMat(4, 5)
	MatMulTBInto(got2, a, c)
	MatMulInto(want2, a, ct)
	for i := range want2.D {
		if math.Abs(got2.D[i]-want2.D[i]) > 1e-12 {
			t.Fatal("MatMulTBInto mismatch")
		}
	}
}

func TestSoftmaxRowSumsToOne(t *testing.T) {
	f := func(a, b, c float64) bool {
		for _, v := range []float64{a, b, c} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 500 {
				return true // skip extreme inputs
			}
		}
		m := NewMatFrom(1, 3, []float64{a, b, c})
		SoftmaxRow(m)
		s := m.D[0] + m.D[1] + m.D[2]
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogSumExpStable(t *testing.T) {
	v := LogSumExp([]float64{1000, 1000})
	if math.IsInf(v, 0) || math.Abs(v-(1000+math.Log(2))) > 1e-9 {
		t.Fatalf("LogSumExp overflow: %v", v)
	}
}

// numericGrad estimates dLoss/dw by central differences.
func numericGrad(w *float64, loss func() float64) float64 {
	const eps = 1e-5
	old := *w
	*w = old + eps
	lp := loss()
	*w = old - eps
	lm := loss()
	*w = old
	return (lp - lm) / (2 * eps)
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDense("d", 3, 2, rng)
	x := NewMatFrom(2, 3, []float64{0.5, -1, 2, 0.1, 0.3, -0.7})
	labels := []int{1, 0}
	loss := func() float64 {
		out := d.Forward(x)
		l, _ := SoftmaxCE(out, labels)
		return l
	}
	out := d.Forward(x)
	_, dOut := SoftmaxCE(out, labels)
	d.W.ZeroGrad()
	d.B.ZeroGrad()
	d.Backward(dOut)
	for i := 0; i < len(d.W.W.D); i++ {
		want := numericGrad(&d.W.W.D[i], loss)
		if math.Abs(want-d.W.G.D[i]) > 1e-6 {
			t.Fatalf("dW[%d]: analytic %v numeric %v", i, d.W.G.D[i], want)
		}
	}
	for i := 0; i < len(d.B.W.D); i++ {
		want := numericGrad(&d.B.W.D[i], loss)
		if math.Abs(want-d.B.G.D[i]) > 1e-6 {
			t.Fatalf("db[%d]: analytic %v numeric %v", i, d.B.G.D[i], want)
		}
	}
}

func TestLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLSTM("l", 3, 4, rng)
	out := NewDense("o", 4, 2, rng)
	xs := NewMat(3, 3)
	XavierInit(xs, rng)
	labels := []int{0, 1, 0}
	loss := func() float64 {
		h := l.Forward(xs, nil, nil)
		logits := out.Forward(h)
		v, _ := SoftmaxCE(logits, labels)
		return v
	}
	h := l.Forward(xs, nil, nil)
	logits := out.Forward(h)
	_, dLogits := SoftmaxCE(logits, labels)
	for _, p := range append(l.Params(), out.Params()...) {
		p.ZeroGrad()
	}
	dh := out.Backward(dLogits)
	l.Backward(dh)
	for _, p := range l.Params() {
		for i := 0; i < len(p.W.D); i += 7 { // sample every 7th weight
			want := numericGrad(&p.W.D[i], loss)
			if math.Abs(want-p.G.D[i]) > 1e-5 {
				t.Fatalf("%s[%d]: analytic %v numeric %v", p.Name, i, p.G.D[i], want)
			}
		}
	}
}

func TestBiLSTMShapesAndGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bl := NewBiLSTM("bl", 3, 5, rng)
	xs := NewMat(4, 3)
	XavierInit(xs, rng)
	h := bl.Forward(xs)
	if h.R != 4 || h.C != 10 {
		t.Fatalf("BiLSTM output %dx%d", h.R, h.C)
	}
	dx := bl.Backward(h.Clone())
	if dx.R != 4 || dx.C != 3 {
		t.Fatalf("BiLSTM dx %dx%d", dx.R, dx.C)
	}
}

func TestCRFGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	crf := NewCRF("c", 3, rng)
	em := NewMat(4, 3)
	XavierInit(em, rng)
	gold := []int{0, 1, 2, 1}
	loss := func() float64 {
		l, _ := crf.NegLogLikelihood(em, gold)
		return l
	}
	for _, p := range crf.Params() {
		p.ZeroGrad()
	}
	_, dEm := crf.NegLogLikelihood(em, gold)
	// Snapshot analytic gradients now: the numeric probes below call
	// NegLogLikelihood again, which accumulates further into p.G.
	analytic := map[string][]float64{}
	for _, p := range crf.Params() {
		analytic[p.Name] = append([]float64(nil), p.G.D...)
	}
	for _, p := range crf.Params() {
		for i := 0; i < len(p.W.D); i++ {
			want := numericGrad(&p.W.D[i], loss)
			if math.Abs(want-analytic[p.Name][i]) > 1e-5 {
				t.Fatalf("%s[%d]: analytic %v numeric %v", p.Name, i, analytic[p.Name][i], want)
			}
		}
	}
	// Emission gradient check.
	for i := 0; i < len(em.D); i += 3 {
		want := numericGrad(&em.D[i], loss)
		if math.Abs(want-dEm.D[i]) > 1e-5 {
			t.Fatalf("dEm[%d]: analytic %v numeric %v", i, dEm.D[i], want)
		}
	}
}

func TestCRFDecodeConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	crf := NewCRF("c", 4, rng)
	// Strong emissions dominate: decode should follow the argmax when
	// transitions are near zero.
	em := NewMat(5, 4)
	gold := []int{3, 1, 0, 2, 2}
	for t0, g := range gold {
		em.Set(t0, g, 10)
	}
	path := crf.Decode(em)
	for i := range gold {
		if path[i] != gold[i] {
			t.Fatalf("Decode = %v, want %v", path, gold)
		}
	}
}

func TestCRFTrainingReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	crf := NewCRF("c", 3, rng)
	em := NewMat(6, 3)
	XavierInit(em, rng)
	gold := []int{0, 1, 1, 2, 0, 1}
	adam := NewAdam(0.1, crf.Params())
	first, _ := crf.NegLogLikelihood(em, gold)
	adam.Step()
	var last float64
	for i := 0; i < 30; i++ {
		last, _ = crf.NegLogLikelihood(em, gold)
		adam.Step()
	}
	if last >= first {
		t.Fatalf("CRF loss did not decrease: %v -> %v", first, last)
	}
}

func TestAdamConverges(t *testing.T) {
	// Minimize (w-3)^2.
	p := NewParam("w", 1, 1, nil)
	adam := NewAdam(0.1, []*Param{p})
	for i := 0; i < 300; i++ {
		p.G.D[0] = 2 * (p.W.D[0] - 3)
		adam.Step()
	}
	if math.Abs(p.W.D[0]-3) > 0.01 {
		t.Fatalf("Adam failed to converge: %v", p.W.D[0])
	}
}

func TestEmbeddingForwardBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	e := NewEmbedding("e", 10, 4, rng)
	out := e.Forward([]int{2, 2, 5})
	if out.R != 3 || out.C != 4 {
		t.Fatalf("embedding out %dx%d", out.R, out.C)
	}
	d := NewMat(3, 4)
	for i := range d.D {
		d.D[i] = 1
	}
	e.Backward(d)
	// Row 2 looked up twice: grad 2 per dim; row 5 once.
	if e.Table.G.At(2, 0) != 2 || e.Table.G.At(5, 0) != 1 {
		t.Fatalf("embedding grads wrong: %v %v", e.Table.G.At(2, 0), e.Table.G.At(5, 0))
	}
}

func TestSeq2SeqOverfitsTinyPair(t *testing.T) {
	v := NewVocab()
	src := []int{v.Learn("a"), v.Learn("b"), v.Learn("c")}
	tgt := []int{v.ID("b"), v.ID("c")}
	rng := rand.New(rand.NewSource(9))
	m := NewSeq2Seq(v, 8, 8, rng)
	adam := NewAdam(0.05, m.Params())
	var first, last float64
	for i := 0; i < 150; i++ {
		l := m.TrainStep(src, tgt)
		adam.Step()
		if i == 0 {
			first = l
		}
		last = l
	}
	if last >= first {
		t.Fatalf("seq2seq loss did not decrease: %v -> %v", first, last)
	}
	out := m.Generate(src, 4)
	if len(out) != 2 || out[0] != tgt[0] || out[1] != tgt[1] {
		t.Fatalf("seq2seq failed to memorize: %v want %v", out, tgt)
	}
}

func TestVocabReserved(t *testing.T) {
	v := NewVocab()
	if v.ID("missing") != UnkID {
		t.Fatal("unknown word should map to UnkID")
	}
	if v.Word(SosID) != "<sos>" || v.Word(EosID) != "<eos>" {
		t.Fatal("reserved words wrong")
	}
	id := v.Learn("hello")
	if v.ID("hello") != id || v.Word(id) != "hello" {
		t.Fatal("Learn/ID/Word roundtrip failed")
	}
}

func TestWeightedSoftmaxCEMasking(t *testing.T) {
	logits := NewMatFrom(2, 2, []float64{1, 0, 0, 1})
	loss, d := WeightedSoftmaxCE(logits, []int{-1, 1}, []float64{1, 1})
	if loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}
	if d.At(0, 0) != 0 || d.At(0, 1) != 0 {
		t.Fatal("masked row should have zero gradient")
	}
}
