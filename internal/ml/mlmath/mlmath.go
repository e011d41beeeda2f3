// Package mlmath provides the small dense-linear-algebra and optimizer
// toolkit shared by the learned cost models (MLP and GNN): vectors,
// dense layers with manual backpropagation, ReLU, and Adam.
package mlmath

import (
	"math"
	"math/rand"
)

// Vec allocates a zero vector.
func Vec(n int) []float64 { return make([]float64, n) }

// Dot returns the inner product; it panics on mismatched lengths (a
// wiring bug, not a data condition).
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mlmath: Dot length mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Add accumulates src into dst element-wise.
func Add(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// Scale multiplies the vector in place.
func Scale(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Mean averages rows of equal-length vectors; an empty input yields a
// zero vector of dimension dim.
func Mean(rows [][]float64, dim int) []float64 {
	out := Vec(dim)
	if len(rows) == 0 {
		return out
	}
	for _, r := range rows {
		Add(out, r)
	}
	Scale(out, 1/float64(len(rows)))
	return out
}

// MaxElem takes the element-wise max of rows; empty input yields zeros.
func MaxElem(rows [][]float64, dim int) []float64 {
	out := Vec(dim)
	if len(rows) == 0 {
		return out
	}
	copy(out, rows[0])
	for _, r := range rows[1:] {
		for i, v := range r {
			if v > out[i] {
				out[i] = v
			}
		}
	}
	return out
}

// ReLU applies max(0, x) out of place.
func ReLU(x []float64) []float64 {
	out := Vec(len(x))
	for i, v := range x {
		if v > 0 {
			out[i] = v
		}
	}
	return out
}

// ReLUGrad masks the upstream gradient by the activation's sign.
func ReLUGrad(preact, grad []float64) []float64 {
	out := Vec(len(grad))
	for i := range grad {
		if preact[i] > 0 {
			out[i] = grad[i]
		}
	}
	return out
}

// Dense is a fully connected layer y = W·x + b with gradient buffers.
type Dense struct {
	In, Out int
	W       [][]float64 // Out × In
	B       []float64
	GW      [][]float64
	GB      []float64
	optW    *Adam
	optB    *Adam
}

// NewDense initializes with He-scaled weights, appropriate for the ReLU
// networks the cost models use.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{In: in, Out: out, B: Vec(out), GB: Vec(out)}
	scale := math.Sqrt(2.0 / float64(in))
	d.W = make([][]float64, out)
	d.GW = make([][]float64, out)
	for o := 0; o < out; o++ {
		d.W[o] = Vec(in)
		d.GW[o] = Vec(in)
		for i := range d.W[o] {
			d.W[o][i] = rng.NormFloat64() * scale
		}
	}
	d.optW = NewAdam(out * in)
	d.optB = NewAdam(out)
	return d
}

// Forward computes W·x + b.
func (d *Dense) Forward(x []float64) []float64 {
	out := Vec(d.Out)
	for o := 0; o < d.Out; o++ {
		out[o] = Dot(d.W[o], x) + d.B[o]
	}
	return out
}

// Backward accumulates parameter gradients for the pair (x, gradOut) and
// returns the gradient with respect to x.
func (d *Dense) Backward(x, gradOut []float64) []float64 {
	gradIn := Vec(d.In)
	for o := 0; o < d.Out; o++ {
		g := gradOut[o]
		if g == 0 {
			continue
		}
		d.GB[o] += g
		wo, gwo := d.W[o], d.GW[o]
		for i := range wo {
			gwo[i] += g * x[i]
			gradIn[i] += g * wo[i]
		}
	}
	return gradIn
}

// Step applies one Adam update scaled by 1/batch and clears gradients.
func (d *Dense) Step(lr float64, batch int) {
	inv := 1.0
	if batch > 0 {
		inv = 1 / float64(batch)
	}
	k := 0
	for o := 0; o < d.Out; o++ {
		for i := 0; i < d.In; i++ {
			d.W[o][i] -= d.optW.Update(k, d.GW[o][i]*inv, lr)
			d.GW[o][i] = 0
			k++
		}
	}
	for o := 0; o < d.Out; o++ {
		d.B[o] -= d.optB.Update(o, d.GB[o]*inv, lr)
		d.GB[o] = 0
	}
}

// ParamCount reports the number of trainable parameters.
func (d *Dense) ParamCount() int { return d.Out*d.In + d.Out }

// Adam is the Adam optimizer state for a flat parameter block.
type Adam struct {
	m, v []float64
	t    int
	b1   float64
	b2   float64
	eps  float64
	// c1, c2 are the bias corrections 1-b1^t and 1-b2^t, recomputed once
	// per timestep instead of once per parameter.
	c1, c2 float64
}

// NewAdam allocates optimizer state for n parameters.
func NewAdam(n int) *Adam {
	return &Adam{m: Vec(n), v: Vec(n), b1: 0.9, b2: 0.999, eps: 1e-8}
}

// Tick advances the shared timestep; call once per optimizer step before
// Update calls.
func (a *Adam) Tick() {
	a.t++
	a.c1 = 1 - math.Pow(a.b1, float64(a.t))
	a.c2 = 1 - math.Pow(a.b2, float64(a.t))
}

// Update returns the parameter delta for gradient g at index i. The
// timestep is advanced lazily on index 0 so Dense.Step needs no extra
// bookkeeping.
func (a *Adam) Update(i int, g, lr float64) float64 {
	if i == 0 {
		a.Tick()
	}
	a.m[i] = a.b1*a.m[i] + (1-a.b1)*g
	a.v[i] = a.b2*a.v[i] + (1-a.b2)*g*g
	mh := a.m[i] / a.c1
	vh := a.v[i] / a.c2
	return lr * mh / (math.Sqrt(vh) + a.eps)
}
