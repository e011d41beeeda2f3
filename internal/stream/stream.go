// Package stream generates the data streams PDSP-Bench feeds its System
// Under Test — the role Apache Kafka plays in the paper's deployment.
// Synthetic streams randomize tuple width, field data types and event
// rates (Table 3) under a fixed value model so that filter selectivities
// are estimable; application streams (internal/apps) mimic the real-world
// traces the paper replays (DEBS smart grid, ad clicks, stock ticks, …).
package stream

import (
	"fmt"
	"math/rand"

	"pdspbench/internal/stats"
	"pdspbench/internal/tuple"
)

// The synthetic value model: int fields are uniform over [0, IntFieldMax),
// double fields uniform over [0, 1), string fields drawn from a
// lexicographically ordered VocabularySize-word vocabulary ("w000"…).
// The workload generator's selectivity estimation inverts exactly this
// model, which is how it guarantees generated filters pass data.
const (
	IntFieldMax    = 1000
	VocabularySize = 100
)

// Word returns vocabulary word i ("w007").
func Word(i int) string {
	if i < 0 {
		i = 0
	}
	if i >= VocabularySize {
		i = VocabularySize - 1
	}
	return fmt.Sprintf("w%03d", i)
}

// Generator is the engine-facing stream interface (mirrors
// engine.SourceGenerator without importing it, so apps can depend on
// stream alone).
type Generator interface {
	Next() (*tuple.Tuple, bool)
}

// Synthetic produces random tuples for a schema with logical event times
// spaced by the configured event rate.
type Synthetic struct {
	schema *tuple.Schema
	rng    *rand.Rand
	zipf   *stats.Zipf // non-nil for skewed key popularity
	max    int
	n      int
	gapNs  float64
	rate   float64
	now    float64 // logical nanoseconds
}

// NewSynthetic creates a generator emitting max tuples (max ≤ 0 means
// unbounded — mimicking the paper's "repeat the data stream ... to mimic
// infinite data streams"). distribution is "poisson" (exponential gaps)
// or "zipf" (Poisson arrivals with Zipf-skewed keys in field 0).
func NewSynthetic(schema *tuple.Schema, seed int64, max int, eventRate float64, distribution string) *Synthetic {
	if eventRate <= 0 {
		eventRate = 1000
	}
	rng := rand.New(rand.NewSource(seed))
	s := &Synthetic{
		schema: schema,
		rng:    rng,
		max:    max,
		rate:   eventRate,
		gapNs:  1e9 / eventRate,
	}
	if distribution == "zipf" {
		s.zipf = stats.NewZipf(rng, 1.5, IntFieldMax)
	}
	return s
}

// Next implements Generator.
func (s *Synthetic) Next() (*tuple.Tuple, bool) {
	if s.max > 0 && s.n >= s.max {
		return nil, false
	}
	s.n++
	// Poisson process: exponential inter-arrival gaps at the event rate.
	s.now += stats.Exponential(s.rng, s.rate) * 1e9
	// Pooled allocation: the engine returns dropped tuples via Release,
	// so a steady-state run recycles its working set instead of churning
	// one tuple allocation per event.
	t := tuple.Get(s.schema.Width())
	for i, f := range s.schema.Fields {
		t.Values[i] = s.randomValue(f.Type, i == 0)
	}
	t.EventTime = int64(s.now)
	return t, true
}

func (s *Synthetic) randomValue(t tuple.Type, isKey bool) tuple.Value {
	switch t {
	case tuple.TypeInt:
		if isKey && s.zipf != nil {
			return tuple.Int(int64(s.zipf.Next()))
		}
		return tuple.Int(int64(s.rng.Intn(IntFieldMax)))
	case tuple.TypeDouble:
		return tuple.Double(s.rng.Float64())
	default:
		return tuple.String(Word(s.rng.Intn(VocabularySize)))
	}
}

// FromTuples replays a fixed slice — deterministic inputs for tests.
type FromTuples struct {
	ts []*tuple.Tuple
	i  int
	wm int64
}

// NewFromTuples wraps the given tuples.
func NewFromTuples(ts ...*tuple.Tuple) *FromTuples {
	return &FromTuples{ts: ts, wm: tuple.NoEventTime}
}

// Next implements Generator.
func (f *FromTuples) Next() (*tuple.Tuple, bool) {
	if f.i >= len(f.ts) {
		return nil, false
	}
	t := f.ts[f.i]
	f.i++
	if t.EventTime != tuple.NoEventTime && t.EventTime > f.wm {
		f.wm = t.EventTime
	}
	return t, true
}

// Watermark implements the engine's punctuated-watermark interface:
// after every tuple the stream asserts completeness up to the maximum
// event time it has replayed. Fixtures therefore see a watermark advance
// on each in-order arrival — the same per-arrival granularity the
// processing-time engine had — while out-of-order fixtures only advance
// on the new maximum.
func (f *FromTuples) Watermark() int64 { return f.wm }

// Func adapts a closure to a Generator.
type Func func() (*tuple.Tuple, bool)

// Next implements Generator.
func (f Func) Next() (*tuple.Tuple, bool) { return f() }

// Limit caps an underlying generator to n tuples.
func Limit(g Generator, n int) Generator {
	count := 0
	return Func(func() (*tuple.Tuple, bool) {
		if count >= n {
			return nil, false
		}
		count++
		return g.Next()
	})
}
