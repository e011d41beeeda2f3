package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pdspbench/internal/apps"
	"pdspbench/internal/engine"
	"pdspbench/internal/tuple"
)

// span is one timed interval at a layer boundary. Spans of one request
// or execution share a trace id; parent names the span that caused it.
type span struct {
	ID      int64              `json:"id"`
	Parent  int64              `json:"parent,omitempty"`
	Trace   int64              `json:"trace"`
	Name    string             `json:"name"`
	StartUS float64            `json:"start_us"`
	EndUS   float64            `json:"end_us"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory for one traced pass and writes them out
// when the run ends. A nil *tracer records nothing, so untraced passes
// share the code path at the cost of a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ids   atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// rel converts a wall-clock instant to microseconds since the tracer
// started.
func (tr *tracer) rel(t time.Time) float64 { return float64(t.Sub(tr.t0).Nanoseconds()) / 1e3 }

// newID reserves a span id (0 when tracing is off).
func (tr *tracer) newID() int64 {
	if tr == nil {
		return 0
	}
	return tr.ids.Add(1)
}

// record stores a finished span with a pre-reserved id.
func (tr *tracer) record(id, parent, trace int64, name string, start, end time.Time, attrs map[string]float64) {
	if tr == nil {
		return
	}
	if trace == 0 {
		trace = id
	}
	s := span{ID: id, Parent: parent, Trace: trace, Name: name, StartUS: tr.rel(start), EndUS: tr.rel(end), Attrs: attrs}
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// add records a finished span under a fresh id and returns the id.
func (tr *tracer) add(parent, trace int64, name string, start, end time.Time, attrs map[string]float64) int64 {
	id := tr.newID()
	tr.record(id, parent, trace, name, start, end, attrs)
	return id
}

// write dumps the spans as JSON to path.
func (tr *tracer) write(path string) error {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	data, err := json.Marshal(tr.spans)
	tr.mu.Unlock()
	if err != nil {
		return fmt.Errorf("trace: marshal spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// sourceStats accumulates the wrapped-generator timings of every source
// instance of an execution: time inside Next and time between calls
// (routing, batching, pacing and blocking on send in the engine).
type sourceStats struct {
	nextNs, gapNs, tuples atomic.Int64
}

// udoStats accumulates wrapped UDO timings: Process time minus the time
// spent inside emit (downstream routing), tuples processed, and instance
// lifetime from first Process to the end of Flush.
type udoStats struct {
	busyNs, lifeNs, tuples atomic.Int64
}

// probes is what one execution's wrapped App reports. panics is counted
// on every pass; the timings only on traced passes.
type probes struct {
	traced bool
	panics atomic.Int64
	src    sourceStats
	udo    map[string]*udoStats
}

// wrapApp returns a copy of a whose Sources and UDOs factories report
// into pr. The engine sees the same generators and operators; only
// the calls are observed.
func wrapApp(a *apps.App, pr *probes) *apps.App {
	w := *a
	pr.udo = map[string]*udoStats{}
	for name := range a.UDOs() {
		pr.udo[name] = &udoStats{}
	}
	if pr.traced {
		w.Sources = func(seed int64, maxTuples int) map[string]engine.SourceFactory {
			inner := a.Sources(seed, maxTuples)
			out := make(map[string]engine.SourceFactory, len(inner))
			for id, f := range inner {
				f := f
				out[id] = func(idx int) engine.SourceGenerator {
					return &timedGen{g: f(idx), st: &pr.src}
				}
			}
			return out
		}
	}
	w.UDOs = func() map[string]engine.UDOFactory {
		inner := a.UDOs()
		out := make(map[string]engine.UDOFactory, len(inner))
		for name, f := range inner {
			f, st := f, pr.udo[name]
			out[name] = func(idx int) engine.UDO {
				return &guardedUDO{u: f(idx), pr: pr, st: st}
			}
		}
		return out
	}
	return &w
}

// timedGen measures one source instance: each Next call, and the gap
// between consecutive calls. It publishes its totals at end of stream.
type timedGen struct {
	g                engine.SourceGenerator
	st               *sourceStats
	last             time.Time
	nextNs, gapNs, n int64
}

func (t *timedGen) Next() (*tuple.Tuple, bool) {
	start := time.Now()
	if !t.last.IsZero() {
		t.gapNs += start.Sub(t.last).Nanoseconds()
	}
	tp, ok := t.g.Next()
	t.last = time.Now()
	t.nextNs += t.last.Sub(start).Nanoseconds()
	if !ok {
		t.st.nextNs.Add(t.nextNs)
		t.st.gapNs.Add(t.gapNs)
		t.st.tuples.Add(t.n)
		t.nextNs, t.gapNs, t.n = 0, 0, 0
		return tp, ok
	}
	t.n++
	return tp, ok
}

// guardedUDO counts panics (re-raising them so the engine's own per-tuple
// isolation still applies) and, on traced passes, times Process net of
// the emit callback.
type guardedUDO struct {
	u        engine.UDO
	pr       *probes
	st       *udoStats
	first    time.Time
	busyNs   int64
	emitNs   int64
	n        int64
	userEmit func(*tuple.Tuple)
	timedFn  func(*tuple.Tuple)
}

func (g *guardedUDO) Process(t *tuple.Tuple, emit func(*tuple.Tuple)) {
	defer g.countPanic()
	if !g.pr.traced {
		g.u.Process(t, emit)
		return
	}
	start := time.Now()
	if g.first.IsZero() {
		g.first = start
	}
	g.u.Process(t, g.timedEmit(emit))
	g.busyNs += time.Since(start).Nanoseconds()
	g.n++
}

// timedEmit wraps emit so the time spent downstream is excluded from the
// UDO's busy time. The wrapper is rebuilt only when the engine hands in
// a different callback.
func (g *guardedUDO) timedEmit(emit func(*tuple.Tuple)) func(*tuple.Tuple) {
	g.userEmit = emit
	if g.timedFn == nil {
		g.timedFn = func(o *tuple.Tuple) {
			s := time.Now()
			g.userEmit(o)
			g.emitNs += time.Since(s).Nanoseconds()
		}
	}
	return g.timedFn
}

func (g *guardedUDO) Flush(emit func(*tuple.Tuple)) {
	defer g.countPanic()
	g.u.Flush(emit)
	if g.pr.traced && !g.first.IsZero() {
		g.st.busyNs.Add(g.busyNs - g.emitNs)
		g.st.lifeNs.Add(time.Since(g.first).Nanoseconds())
		g.st.tuples.Add(g.n)
	}
}

// countPanic records a UDO panic and re-raises it unchanged.
func (g *guardedUDO) countPanic() {
	if r := recover(); r != nil {
		g.pr.panics.Add(1)
		panic(r)
	}
}
