package main

import (
	"math"
	"testing"

	"pdspbench/internal/tuple"
)

// The expected values are Python's statistics.median of the same values.
func TestMedianMatchesPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{0.5, 0.25}, 0.375},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMedianLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("median reordered its input: %v", xs)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), the
// computation an external steadiness check applies to the same values.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 20, 30, 40, 50}, 15, 45},
		{[]float64{5.5, 1.25, 9.0, 3.0, 7.75, 2.5, 8.0, 4.0, 6.0, 0.5}, 2.1875, 7.8125},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpreadIsInterquartileShareOfMedian(t *testing.T) {
	if got := spread([]float64{10, 20, 30, 40, 50}); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want (45-15)/30 = 1", got)
	}
	if got := spread([]float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("spread of constant values = %v, want 0", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread with zero median = %v, want 0", got)
	}
}

func TestFailedRatio(t *testing.T) {
	if got := failedRatio(3, 12); got != 0.25 {
		t.Errorf("failedRatio(3, 12) = %v, want 0.25", got)
	}
	if got := failedRatio(0, 40); got != 0 {
		t.Errorf("failedRatio(0, 40) = %v, want 0", got)
	}
	if got := failedRatio(0, 0); got != 1 {
		t.Errorf("failedRatio with nothing attempted = %v, want 1 (an empty run is not clean)", got)
	}
}

func TestSourceLagAndBound(t *testing.T) {
	// 100k tuples at 50k/s are scheduled for 2 s.
	if got := sourceLag(2.03, 100_000, 50_000); math.Abs(got-0.03) > 1e-9 {
		t.Errorf("sourceLag = %v, want 0.03", got)
	}
	if got := sourceLag(1.9, 100_000, 50_000); got != 0 {
		t.Errorf("a run that finished early lags %v, want 0", got)
	}
	if got := sourceLag(3, 10, 0); got != 0 {
		t.Errorf("an unpaced run lags %v, want 0", got)
	}
	// The allowance is a flat 50 ms whatever the schedule: a backlog of
	// 10% of NXQ11's 2 s schedule (200 ms) must fail.
	if lagExceeded(0.049) {
		t.Error("49 ms of plan build and drain is within the bound")
	}
	for _, lag := range []float64{0.051, 0.2} {
		if !lagExceeded(lag) {
			t.Errorf("%.0f ms behind schedule is a growing backlog", 1000*lag)
		}
	}
}

func TestReservoirKeepsBoundedUniformSample(t *testing.T) {
	r := newReservoir(1000, 1)
	for i := 0; i < 500; i++ {
		r.add(float64(i))
	}
	vals, seen := r.snapshot()
	if len(vals) != 500 || seen != 500 {
		t.Fatalf("under capacity: kept %d of %d, want all", len(vals), seen)
	}
	for i := 500; i < 100_000; i++ {
		r.add(float64(i))
	}
	vals, seen = r.snapshot()
	if len(vals) != 1000 || seen != 100_000 {
		t.Fatalf("kept %d of %d, want 1000 of 100000", len(vals), seen)
	}
	// A uniform sample of 0..99999 has its median near 50000.
	if m := median(vals); m < 45_000 || m > 55_000 {
		t.Errorf("sample median %v is far from the stream median 50000", m)
	}
}

func tup(et int64, vs ...tuple.Value) *tuple.Tuple {
	return &tuple.Tuple{Values: vs, EventTime: et}
}

func TestMultisetFingerprintIgnoresOrderOnly(t *testing.T) {
	a := []*tuple.Tuple{tup(1, tuple.Int(1), tuple.Double(2)), tup(2, tuple.String("w001")), tup(2, tuple.String("w001"))}
	fp := func(ts ...*tuple.Tuple) multiset {
		p := newSinkProbe(nil, nil, true, false)
		for _, x := range ts {
			p.tap("sink", x)
		}
		return p.multiset()
	}
	want := fp(a[0], a[1], a[2])
	if got := fp(a[2], a[0], a[1]); got != want {
		t.Errorf("reordered deliveries changed the fingerprint: %+v vs %+v", got, want)
	}
	if got := fp(a[0], a[1]); got == want {
		t.Error("dropping a duplicate did not change the fingerprint")
	}
	if got := fp(a[0], a[1], tup(3, tuple.String("w001"))); got == want {
		t.Error("a changed event time did not change the fingerprint")
	}
	if got := fp(tup(1, tuple.Int(1), tuple.Double(2.5)), a[1], a[2]); got == want {
		t.Error("a changed value did not change the fingerprint")
	}
}

func TestADInvariantsAndDigest(t *testing.T) {
	p := newSinkProbe(nil, nil, false, true)
	p.tap("sink", tup(10, tuple.Int(3), tuple.Double(1)))
	p.tap("sink", tup(40, tuple.Int(3), tuple.Double(0.5)))
	p.tap("sink", tup(20, tuple.Int(3), tuple.Double(1)))
	if p.bad.Load() != 0 {
		t.Fatalf("valid outputs flagged: %d", p.bad.Load())
	}
	if d := p.adDigest(); d[3] != 40 || d[4] != math.MinInt64 {
		t.Errorf("digest = %v, want campaign 3 at 40 and campaign 4 unseen", d)
	}
	for _, bad := range []*tuple.Tuple{
		tup(1, tuple.Int(adCampaigns), tuple.Double(1)), // unknown campaign
		tup(1, tuple.Int(2), tuple.Double(0)),           // CTR not positive
		tup(1, tuple.Int(2), tuple.Double(1.5)),         // CTR above 1
		tup(1, tuple.Int(2)),                            // missing CTR
		tup(1, tuple.Double(1), tuple.Int(2)),           // wrong kinds
	} {
		before := p.bad.Load()
		p.tap("sink", bad)
		if p.bad.Load() != before+1 {
			t.Errorf("%v was not flagged", bad)
		}
	}
}
