package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pdspbench/internal/apps"
	"pdspbench/internal/backend"
	"pdspbench/internal/controller"
	"pdspbench/internal/core"
	"pdspbench/internal/metrics"
	"pdspbench/internal/storage"
	"pdspbench/internal/workload"
)

// genApps are the applications whose generators the traced run drains
// alone: every app either engine workload runs.
var genApps = []string{"SA", "WC", "AD", "NXQ11"}

// genProbeTuples is how many tuples each source of an app yields when
// its generator is drained alone.
const genProbeTuples = 50_000

// layerMetric is one per-layer metric a traced run reports.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric a traced run reports, on
// every workload; a layer the workload does not exercise reads 0.
func layerMetrics() []layerMetric {
	ms := []layerMetric{
		{"replay.SA.s", "s"}, {"replay.WC.s", "s"}, {"replay.AD.s", "s"},
		{"replay.p1_tuples_per_s", "tuples/s"}, {"replay.speedup", "ratio"},
		{"engine.source.next_frac", "ratio"}, {"engine.source.emit_frac", "ratio"},
		{"apps.udo.sa-score.ns_per_tuple", "ns"}, {"apps.udo.sa-score.busy_frac", "ratio"},
		{"apps.udo.ad-ctr.ns_per_tuple", "ns"}, {"apps.udo.ad-ctr.busy_frac", "ratio"},
		{"paced.NXQ11.latency_p50_ms", "ms"}, {"paced.NXQ11.latency_p99_ms", "ms"},
		{"paced.AD.latency_p50_ms", "ms"}, {"paced.AD.latency_p99_ms", "ms"},
		{"engine.source_lag_ms.NXQ11", "ms"}, {"engine.source_lag_ms.AD", "ms"},
		{"engine.late_drops.NXQ11", "count"}, {"engine.late_drops.AD", "count"},
		{"engine.reported_latency_p50_ms", "ms"},
		{"server.submit_ms_p50", "ms"}, {"server.submit_ms_p99", "ms"},
		{"server.queue_wait_ms_p50", "ms"}, {"server.queue_wait_ms_p99", "ms"},
		{"server.exec_ms_p50", "ms"}, {"server.exec_ms_p99", "ms"},
		{"server.overhead_ms_p50", "ms"}, {"server.worker_busy_frac", "ratio"},
		{"server.rejected_429", "count"}, {"server.shed_503", "count"},
		{"server.tenant_ok_spread", "ratio"},
		{"simengine.run_ms.small", "ms"}, {"simengine.run_ms.large", "ms"},
		{"storage.append_ms", "ms"},
		{"driver.lateness_ms_p99", "ms"},
		{"trace_overhead", "ratio"},
		{"failed_ratio", "fraction"},
	}
	for _, a := range genApps {
		ms = append(ms, layerMetric{"apps.gen." + a + ".tuples_per_s", "tuples/s"}, layerMetric{"apps.gen_headroom." + a, "ratio"})
	}
	return ms
}

// standaloneProbes times layers alone, outside any workload, so a
// traced run of every workload reports them: each app's generator
// drained without the engine (and its headroom over the rate the
// workload consumed it at), backend.Sim.Run on the serve-mixed plans,
// and Store.Append of a run record.
func standaloneProbes(ctx context.Context, tr *tracer, seed int64, p *pass) error {
	for _, code := range genApps {
		a, err := apps.ByCode(code)
		if err != nil {
			return err
		}
		rate := generatorRate(tr, a, specSeed(seed))
		p.layer["apps.gen."+code+".tuples_per_s"] = rate
		if c := p.consumed[code]; c > 0 {
			p.layer["apps.gen_headroom."+code] = rate / c
		}
	}
	small, large, err := simRunMS(ctx, tr)
	if err != nil {
		return err
	}
	p.layer["simengine.run_ms.small"] = small
	p.layer["simengine.run_ms.large"] = large
	ms, err := appendMS(tr)
	if err != nil {
		return err
	}
	p.layer["storage.append_ms"] = ms
	return nil
}

// generatorRate drains every source of a, one instance each, and
// returns tuples per second over the summed drain time.
func generatorRate(tr *tracer, a *apps.App, seed int64) float64 {
	start := time.Now()
	var n int
	for _, f := range a.Sources(seed, genProbeTuples) {
		g := f(0)
		for {
			t, ok := g.Next()
			if !ok {
				break
			}
			t.Release()
			n++
		}
	}
	end := time.Now()
	tr.add(0, 0, "apps.Sources.drain/"+a.Code, start, end, map[string]float64{"tuples": float64(n)})
	return float64(n) / end.Sub(start).Seconds()
}

// simRunMS times backend.Sim.Run alone on the serve-mixed plan classes:
// per class, the mean over its plans of the median of three runs.
func simRunMS(ctx context.Context, tr *tracer) (small, large float64, err error) {
	ctrl := controller.Fast()
	sim := &backend.Sim{Cfg: ctrl.Cfg}
	classMS := func(plans []servePlan) (float64, error) {
		var sum float64
		for _, sp := range plans {
			plan, err := sp.build(ctrl)
			if err != nil {
				return 0, err
			}
			var reps []float64
			for i := 0; i < 3; i++ {
				start := time.Now()
				if _, err := sim.Run(ctx, plan, ctrl.Homogeneous(), backend.RunSpec{Runs: 1}); err != nil {
					return 0, fmt.Errorf("sim run %s: %w", sp, err)
				}
				end := time.Now()
				tr.add(0, 0, "backend.Sim.Run/"+sp.String(), start, end, nil)
				reps = append(reps, float64(end.Sub(start).Nanoseconds())/1e6)
			}
			sum += median(reps)
		}
		return sum / float64(len(plans)), nil
	}
	if small, err = classMS(smallPlans); err != nil {
		return 0, 0, err
	}
	large, err = classMS(largePlans)
	return small, large, err
}

// appendMS times Store.Append of a run record into a fresh store: the
// median of 200 appends.
func appendMS(tr *tracer) (float64, error) {
	dir, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), "store-probe-")
	if err != nil {
		return 0, fmt.Errorf("store probe: %w", err)
	}
	defer os.RemoveAll(dir)
	st, err := storage.Open(dir)
	if err != nil {
		return 0, err
	}
	rec := &metrics.RunRecord{
		ID: "sim/3-way-join/m510/p16", Backend: "sim", Workload: "3-way-join", Cluster: "m510",
		Category: core.CategoryForDegree(16).String(), MaxDegree: 16, EventRate: 500_000,
		LatencyP50: 0.0123, LatencyP95: 0.0456, LatencyP99: 0.0789, LatencyMean: 0.02,
		Throughput: 480_000, Runs: 1,
	}
	var reps []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		if err := st.Append("runs", rec); err != nil {
			return 0, err
		}
		end := time.Now()
		tr.add(0, 0, "storage.Append", start, end, nil)
		reps = append(reps, float64(end.Sub(start).Nanoseconds())/1e6)
	}
	return median(reps), nil
}

// servePlan is one plan of the serve-mixed request mix.
type servePlan struct {
	structure   workload.Structure
	parallelism int
}

func (sp servePlan) String() string { return fmt.Sprintf("%s/p%d", sp.structure, sp.parallelism) }

// build constructs the plan the server builds for this request.
func (sp servePlan) build(ctrl *controller.Controller) (*core.PQP, error) {
	return ctrl.SyntheticPlan(sp.structure, sp.parallelism)
}
