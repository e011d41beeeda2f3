package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"pdspbench/internal/apps"
	"pdspbench/internal/backend"
	"pdspbench/internal/controller"
	"pdspbench/internal/engine"
	"pdspbench/internal/metrics"
)

// engineParallelism is the operator parallelism of every engine run:
// the core count of the 2-core machine the benchmark was sized on. It
// is a constant, not read from the host, so both commits of a
// comparison run the same job wherever they run.
const engineParallelism = 2

// Set-up warms every app with one unthrottled execution of warmTuples
// per source, so lazily built tables and tuple pools are in place before
// timing. The warm-ups are the program's own work, so setup_s times them
// unpaced.
const warmTuples = 5000

// throttled is the backend of paced executions.
var throttled = &backend.Real{Opts: engine.Options{Throttle: true}}

// specSeed maps the benchmark seed to a backend seed; the backend treats
// 0 as "default", so the mapping is odd and never 0.
func specSeed(seed int64) int64 { return seed*2 + 1 }

// resolveApps looks the application codes up in the registry.
func resolveApps(codes ...string) ([]*apps.App, error) {
	out := make([]*apps.App, len(codes))
	for i, c := range codes {
		a, err := apps.ByCode(c)
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}

// findApp returns the app with the given code from list (nil if absent).
func findApp(list []*apps.App, code string) *apps.App {
	for _, a := range list {
		if a.Code == code {
			return a
		}
	}
	return nil
}

// expectedIngest is how many tuples an execution must ingest: tuples per
// source instance times the source instances of the plan Execute builds.
func expectedIngest(a *apps.App, parallelism, tuplesPerSource int) uint64 {
	plan := a.Build(backend.DefaultEventRate)
	if parallelism > 1 {
		plan.SetUniformParallelism(parallelism)
	}
	var n uint64
	for _, s := range plan.Sources() {
		n += uint64(s.Parallelism) * uint64(tuplesPerSource)
	}
	return n
}

// warmUp executes each app once unthrottled at engineParallelism on
// warmTuples per source, with spec's seed, rate, disorder and lateness.
func warmUp(ctx context.Context, ctrl *controller.Controller, list []*apps.App, spec func(i int) backend.RunSpec) error {
	for i, a := range list {
		s := spec(i)
		s.Runs, s.TuplesPerSource = 1, warmTuples
		if _, err := ctrl.Execute(ctx, &backend.Real{}, a, engineParallelism, s); err != nil {
			return fmt.Errorf("warm-up %s: %w", a.Code, err)
		}
	}
	return nil
}

// execution is one timed controller.Execute call and what it observed.
type execution struct {
	app   string
	rec   *metrics.RunRecord
	wall  float64 // seconds
	sink  *sinkProbe
	probe *probes
}

// execute runs one application through controller.Execute with a
// wrapped App and the given sink probe, timing the call and recording a
// span (with the wrapped layers as children) when tr is set.
func execute(ctx context.Context, tr *tracer, ctrl *controller.Controller, b backend.Backend, a *apps.App,
	parallelism int, spec backend.RunSpec, sink *sinkProbe) (*execution, error) {
	pr := &probes{traced: tr != nil}
	spec.Runs = 1
	spec.SinkTap = sink.tap
	runtime.GC()
	start := time.Now()
	rec, err := ctrl.Execute(ctx, b, wrapApp(a, pr), parallelism, spec)
	end := time.Now()
	if err != nil {
		return nil, fmt.Errorf("execute %s: %w", a.Code, err)
	}
	ex := &execution{app: a.Code, rec: rec, wall: end.Sub(start).Seconds(), sink: sink, probe: pr}
	if tr != nil {
		id := tr.add(0, 0, "controller.Execute/"+a.Code, start, end, map[string]float64{
			"tuples_in": float64(rec.TuplesIn), "tuples_out": float64(rec.TuplesOut),
			"late_drops": float64(rec.LateDrops), "parallelism": float64(parallelism),
		})
		tr.add(id, id, "apps.Sources.Next", start, end, map[string]float64{
			"next_ns": float64(pr.src.nextNs.Load()), "between_ns": float64(pr.src.gapNs.Load()),
			"tuples": float64(pr.src.tuples.Load()),
		})
		for name, st := range pr.udo {
			tr.add(id, id, "apps.UDO.Process/"+name, start, end, map[string]float64{
				"busy_ns": float64(st.busyNs.Load()), "life_ns": float64(st.lifeNs.Load()),
				"tuples": float64(st.tuples.Load()),
			})
		}
		tr.add(id, id, "engine.SinkTap", start, end, map[string]float64{"delivered": float64(sink.n.Load())})
	}
	return ex, nil
}

// layerAcc sums the wrapped-layer counters of a traced pass.
type layerAcc struct {
	nextNs, gapNs float64
	udoBusy       map[string]float64
	udoLife       map[string]float64
	udoTuples     map[string]float64
	reportedP50   []float64
	wall          map[string][]float64
	in            map[string]float64
	lateDrops     map[string]float64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{
		udoBusy: map[string]float64{}, udoLife: map[string]float64{}, udoTuples: map[string]float64{},
		wall: map[string][]float64{}, in: map[string]float64{}, lateDrops: map[string]float64{},
	}
}

func (l *layerAcc) add(ex *execution) {
	l.nextNs += float64(ex.probe.src.nextNs.Load())
	l.gapNs += float64(ex.probe.src.gapNs.Load())
	for name, st := range ex.probe.udo {
		l.udoBusy[name] += float64(st.busyNs.Load())
		l.udoLife[name] += float64(st.lifeNs.Load())
		l.udoTuples[name] += float64(st.tuples.Load())
	}
	l.reportedP50 = append(l.reportedP50, ex.rec.LatencyP50*1000)
	l.wall[ex.app] = append(l.wall[ex.app], ex.wall)
	l.in[ex.app] += float64(ex.rec.TuplesIn)
	l.lateDrops[ex.app] += float64(ex.rec.LateDrops)
}

// publish writes the engine and app layer metrics of a traced pass into
// p.layer, and each app's consumption rate (tuples in per wall second)
// for the generator-headroom probe.
func (l *layerAcc) publish(p *pass, consumed map[string]float64) {
	if total := l.nextNs + l.gapNs; total > 0 {
		p.layer["engine.source.next_frac"] = l.nextNs / total
		p.layer["engine.source.emit_frac"] = l.gapNs / total
	}
	for name, busy := range l.udoBusy {
		key := "apps.udo." + strings.ReplaceAll(name, "/", "-")
		if n := l.udoTuples[name]; n > 0 {
			p.layer[key+".ns_per_tuple"] = busy / n
		}
		if life := l.udoLife[name]; life > 0 {
			p.layer[key+".busy_frac"] = busy / life
		}
	}
	p.layer["engine.reported_latency_p50_ms"] = median(l.reportedP50)
	apps := make([]string, 0, len(l.wall))
	for a := range l.wall {
		apps = append(apps, a)
	}
	sort.Strings(apps)
	for _, a := range apps {
		var total float64
		for _, w := range l.wall[a] {
			total += w
		}
		if total > 0 {
			consumed[a] = l.in[a] / total
		}
		p.layer["engine.late_drops."+a] = l.lateDrops[a]
	}
}
