package mlmath

import (
	"math"
	"math/rand"
	"testing"
)

func TestDotAddScale(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	v := []float64{1, 2}
	Add(v, []float64{10, 20})
	if v[0] != 11 || v[1] != 22 {
		t.Errorf("Add = %v", v)
	}
	Scale(v, 2)
	if v[0] != 22 || v[1] != 44 {
		t.Errorf("Scale = %v", v)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dot accepted mismatched lengths")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestMeanAndMaxElem(t *testing.T) {
	rows := [][]float64{{1, 5}, {3, 1}}
	m := Mean(rows, 2)
	if m[0] != 2 || m[1] != 3 {
		t.Errorf("Mean = %v", m)
	}
	mx := MaxElem(rows, 2)
	if mx[0] != 3 || mx[1] != 5 {
		t.Errorf("MaxElem = %v", mx)
	}
	if z := Mean(nil, 3); z[0] != 0 || len(z) != 3 {
		t.Errorf("Mean(empty) = %v", z)
	}
}

func TestReLUAndGrad(t *testing.T) {
	x := []float64{-1, 0, 2}
	y := ReLU(x)
	if y[0] != 0 || y[1] != 0 || y[2] != 2 {
		t.Errorf("ReLU = %v", y)
	}
	g := ReLUGrad(x, []float64{5, 5, 5})
	if g[0] != 0 || g[1] != 0 || g[2] != 5 {
		t.Errorf("ReLUGrad = %v", g)
	}
}

// TestDenseGradientCheck verifies analytic gradients against central
// finite differences — the load-bearing correctness property for every
// model built on Dense.
func TestDenseGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDense(4, 3, rng)
	x := []float64{0.5, -1, 2, 0.3}
	target := []float64{1, -2, 0.5}

	loss := func() float64 {
		y := d.Forward(x)
		var s float64
		for i := range y {
			diff := y[i] - target[i]
			s += diff * diff
		}
		return s
	}

	// Analytic gradients.
	y := d.Forward(x)
	gradOut := make([]float64, 3)
	for i := range y {
		gradOut[i] = 2 * (y[i] - target[i])
	}
	gradIn := d.Backward(x, gradOut)

	const eps = 1e-6
	// Check weight gradients.
	for o := 0; o < 3; o++ {
		for i := 0; i < 4; i++ {
			orig := d.W[o][i]
			d.W[o][i] = orig + eps
			up := loss()
			d.W[o][i] = orig - eps
			down := loss()
			d.W[o][i] = orig
			num := (up - down) / (2 * eps)
			if math.Abs(num-d.GW[o][i]) > 1e-4*(1+math.Abs(num)) {
				t.Errorf("dW[%d][%d]: analytic %v vs numeric %v", o, i, d.GW[o][i], num)
			}
		}
	}
	// Check input gradients.
	for i := 0; i < 4; i++ {
		orig := x[i]
		x[i] = orig + eps
		up := loss()
		x[i] = orig - eps
		down := loss()
		x[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-gradIn[i]) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("dx[%d]: analytic %v vs numeric %v", i, gradIn[i], num)
		}
	}
}

func TestDenseStepClearsGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(2, 2, rng)
	d.Backward([]float64{1, 1}, []float64{1, 1})
	d.Step(0.01, 1)
	for o := range d.GW {
		for i := range d.GW[o] {
			if d.GW[o][i] != 0 {
				t.Fatal("Step did not clear weight gradients")
			}
		}
	}
	for _, g := range d.GB {
		if g != 0 {
			t.Fatal("Step did not clear bias gradients")
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (x-3)² with Adam; must converge near 3.
	a := NewAdam(1)
	x := 0.0
	for i := 0; i < 3000; i++ {
		g := 2 * (x - 3)
		x -= a.Update(0, g, 0.05)
	}
	if math.Abs(x-3) > 0.05 {
		t.Errorf("Adam converged to %v, want ≈3", x)
	}
}

func TestAdamBiasCorrectedFirstSteps(t *testing.T) {
	// With bias correction, m̂ = g and v̂ = g² for a constant gradient, so
	// every step moves by lr·g/(|g|+eps) from the very first one.
	a := NewAdam(2)
	for step := 1; step <= 3; step++ {
		for i, g := range []float64{0.5, -4} {
			want := 0.01 * g / (math.Abs(g) + 1e-8)
			if got := a.Update(i, g, 0.01); math.Abs(got-want) > 1e-12 {
				t.Errorf("step %d param %d: delta %v, want %v", step, i, got, want)
			}
		}
	}
}

func TestDenseLearnsLinearMap(t *testing.T) {
	// A single Dense layer trained with Adam must fit y = 2x₀ − x₁ + 1.
	rng := rand.New(rand.NewSource(3))
	d := NewDense(2, 1, rng)
	for epoch := 0; epoch < 2000; epoch++ {
		x := []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2}
		want := 2*x[0] - x[1] + 1
		y := d.Forward(x)
		d.Backward(x, []float64{2 * (y[0] - want)})
		d.Step(0.02, 1)
	}
	x := []float64{1, 1}
	if got := d.Forward(x)[0]; math.Abs(got-2) > 0.1 {
		t.Errorf("learned f(1,1) = %v, want 2", got)
	}
	if d.ParamCount() != 3 {
		t.Errorf("ParamCount = %d, want 3", d.ParamCount())
	}
}
