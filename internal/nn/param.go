package nn

import (
	"math"
	"math/rand"
)

// Param is a trainable matrix with its gradient and Adam state.
type Param struct {
	Name string
	W    *Mat
	G    *Mat
	m, v *Mat
}

// NewParam allocates a named r×c parameter, Xavier-initialized from rng
// (zeros when rng is nil, e.g. biases).
func NewParam(name string, r, c int, rng *rand.Rand) *Param {
	p := &Param{Name: name, W: NewMat(r, c), G: NewMat(r, c), m: NewMat(r, c), v: NewMat(r, c)}
	if rng != nil {
		XavierInit(p.W, rng)
	}
	return p
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.G.Zero() }

// Adam is the Adam optimizer over a fixed parameter list.
type Adam struct {
	LR     float64
	Beta1  float64
	Beta2  float64
	Eps    float64
	Clip   float64 // max gradient L2 norm per step (0 disables clipping)
	t      int
	params []*Param
}

// NewAdam returns an optimizer with the usual defaults and gradient clipping
// at norm 5.
func NewAdam(lr float64, params []*Param) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, Clip: 5, params: params}
}

// Step applies one Adam update (with optional global-norm clipping) and
// clears gradients.
func (a *Adam) Step() {
	a.t++
	if a.Clip > 0 {
		var norm float64
		for _, p := range a.params {
			for _, g := range p.G.D {
				norm += g * g
			}
		}
		norm = math.Sqrt(norm)
		if norm > a.Clip {
			s := a.Clip / norm
			for _, p := range a.params {
				p.G.Scale(s)
			}
		}
	}
	b1c := 1 - math.Pow(a.Beta1, float64(a.t))
	b2c := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range a.params {
		for i, g := range p.G.D {
			p.m.D[i] = a.Beta1*p.m.D[i] + (1-a.Beta1)*g
			p.v.D[i] = a.Beta2*p.v.D[i] + (1-a.Beta2)*g*g
			mhat := p.m.D[i] / b1c
			vhat := p.v.D[i] / b2c
			p.W.D[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
		p.ZeroGrad()
	}
}
