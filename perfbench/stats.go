package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
)

// median is the middle value of xs, or the mean of the two middle
// values when their number is even (Python's statistics.median), so the
// medians a run reports are the medians an external check takes of the
// same values. xs is left untouched; an empty sample yields 0.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the spread a result file records is the spread an
// external check computes from the same values. Fewer than two values
// give (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// Python's integer arithmetic: rank j of position i*(n+1)/4,
		// clamped to 1..n-1, and the remainder delta in quarters.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of xs as a share of its median:
// the steadiness figure recorded beside every per-rep metric. A zero
// median yields 0.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// failedRatio is failed operations over operations attempted; nothing
// attempted counts as total failure, so an empty run can never read as
// clean.
func failedRatio(failed, attempted int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// sourceLag is how far a paced run overran its schedule: wall time minus
// the time its sources were scheduled to take (tuples ÷ rate). Negative
// values (a run that finished early) clamp to zero.
func sourceLag(wallSec float64, tuples int, rate float64) float64 {
	if rate <= 0 {
		return 0
	}
	lag := wallSec - float64(tuples)/rate
	if lag < 0 {
		return 0
	}
	return lag
}

// lagExceeded reports whether a paced run fell behind its schedule by
// more than lagAllowanceSec. A run over the bound had a growing backlog,
// so its rate was not sustained.
func lagExceeded(lagSec float64) bool {
	return lagSec > lagAllowanceSec
}

// lagAllowanceSec is the source lag a paced execution may show: plan
// build plus end-of-stream drain (final watermark, window and session
// flush). Over 550 recorded executions of each app on the reference
// machine the lag never exceeded 30 ms for NXQ11 (median 10 ms) or
// 14 ms for AD (median 1.8 ms); the allowance sits a small margin above
// that, so a backlog of a few tens of milliseconds already fails the
// run while a scheduling hiccup of the shared host does not.
const lagAllowanceSec = 0.05

// reservoir keeps a fixed-size uniform sample of a stream of values
// (Vitter's algorithm R), so quantiles over millions of sink deliveries
// cost bounded memory. It is safe for concurrent use; the sink tap calls
// it from every sink instance.
type reservoir struct {
	mu   sync.Mutex
	rng  *rand.Rand
	cap  int
	seen int64
	vals []float64
}

func newReservoir(capacity int, seed int64) *reservoir {
	return &reservoir{rng: rand.New(rand.NewSource(seed)), cap: capacity, vals: make([]float64, 0, capacity)}
}

func (r *reservoir) add(v float64) {
	r.mu.Lock()
	r.seen++
	if len(r.vals) < r.cap {
		r.vals = append(r.vals, v)
	} else if j := r.rng.Int63n(r.seen); j < int64(r.cap) {
		r.vals[j] = v
	}
	r.mu.Unlock()
}

// snapshot copies the retained sample and the number of values offered.
func (r *reservoir) snapshot() ([]float64, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.vals...), r.seen
}
