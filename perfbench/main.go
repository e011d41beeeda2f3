// Command perfbench is the repository's end-to-end benchmark. It drives
// PDSP-Bench only through its public entry points — controller.Execute
// on the real engine, the HTTP front door from server.New, backend.Sim
// and the apps.App factories — and prints every end-to-end metric by
// name and unit, checks the outputs, and in a separate traced run
// reports per-layer metrics. See README.md in this directory.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload replay-apps --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare OLD.json NEW.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median. Forty set-ups take a few seconds, long enough that the
// median spans the shared host's speed swings of a second or two
// rather than landing inside one.
const setupReps = 40

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pass is what one measured pass of a workload produces.
type pass struct {
	attempted, failed int
	failures          []string
	// e2e holds the end-to-end metrics (setup_s is added by the caller;
	// peak_rss_mb is read when the timed window ends, before the output
	// checks run their reference executions); layer the per-layer
	// metrics of a traced pass.
	e2e   map[string]float64
	layer map[string]float64
	// reps are per-repetition values kept in the result record.
	reps map[string][]float64
	// consumed is each app's replay or paced consumption rate (tuples
	// in per wall second), the base of the generator-headroom ratio.
	consumed map[string]float64
}

func newPass() *pass {
	return &pass{e2e: map[string]float64{}, layer: map[string]float64{}, reps: map[string][]float64{}, consumed: map[string]float64{}}
}

// check counts one attempted operation and, when ok is false, a failed
// one with its reason (the first few reasons are kept for the report).
func (p *pass) check(ok bool, format string, args ...any) {
	p.attempted++
	if ok {
		return
	}
	p.failed++
	if len(p.failures) < 20 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// verdict collects the problems the checks of one operation found.
type verdict []string

func (v *verdict) expect(ok bool, format string, args ...any) {
	if !ok {
		*v = append(*v, fmt.Sprintf(format, args...))
	}
}

func (v verdict) String() string { return strings.Join(v, "; ") }

// env is a set-up workload ready to measure.
type env interface {
	// run measures the workload for the given wall time. tr is nil on
	// untraced passes.
	run(ctx context.Context, tr *tracer, seconds float64) (*pass, error)
	// headline is the end-to-end metric the traced pass is compared on
	// for trace_overhead, and whether higher is better.
	headline() (name string, higherBetter bool)
	close()
}

// benchWorkload builds an env from a seed.
type benchWorkload struct {
	name  string
	setup func(ctx context.Context, seed int64, scratch string) (env, error)
}

var workloads = []benchWorkload{
	{name: "replay-apps", setup: setupReplay},
	{name: "paced-eventtime", setup: setupPaced},
	{name: "serve-mixed", setup: setupServe},
}

// Units of the end-to-end metrics; every workload reports all of them.
var e2eUnits = map[string]string{
	"setup_s":        "s",
	"tuples_per_s":   "1/s",
	"latency_p50_ms": "ms",
	"latency_p99_ms": "ms",
	"peak_rss_mb":    "MB",
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: replay-apps, paced-eventtime or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured wall time of one run")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	res, rec, err := runBench(wl, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	report(stdout, rec)
	path, err := rec.save(filepath.Join(".bench_build", "results"))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "record: %s\n", path)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runBench sets the workload up setupReps times, measures it, and
// assembles the result line and the result record.
func runBench(wl *benchWorkload, seed int64, seconds int, traced bool) (*result, *record, error) {
	ctx := context.Background()
	scratch := filepath.Join(".bench_build", "tmp", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, nil, fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(scratch)

	var setups []float64
	var e env
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		next, err := wl.setup(ctx, seed, filepath.Join(scratch, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			if e != nil {
				e.close()
			}
			return nil, nil, fmt.Errorf("%s setup: %w", wl.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if e != nil {
			e.close()
		}
		e = next
	}
	defer e.close()
	resetPeakRSS()

	rec := &record{Context: collectContext(wl.name, seed, seconds, traced), Reps: map[string][]float64{"setup_s": setups}}
	var p *pass
	var err error
	if traced {
		p, err = tracedRun(ctx, e, wl.name, seed, float64(seconds))
	} else {
		p, err = e.run(ctx, nil, float64(seconds))
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	res := &result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metric{}}
	if p.attempted < 1 {
		res.Attempted, res.Failed, res.Correct = 1, 1, false
		p.failures = append(p.failures, "no operation was attempted")
	}
	if traced {
		p.layer["failed_ratio"] = failedRatio(res.Failed, res.Attempted)
		for _, m := range layerMetrics() {
			res.Metrics[m.name] = metric{Value: p.layer[m.name], Unit: m.unit}
		}
	} else {
		p.e2e["setup_s"] = median(setups)
		for name, unit := range e2eUnits {
			res.Metrics[name] = metric{Value: p.e2e[name], Unit: unit}
		}
	}
	for k, v := range p.reps {
		rec.Reps[k] = v
	}
	rec.finish(res, p.failures)
	return res, rec, nil
}

// tracedRun measures the workload untraced and then traced for half the
// time each, reports the per-layer metrics of the traced pass, the
// trace overhead on the workload's headline metric, and the standalone
// layer probes, and writes the spans out.
func tracedRun(ctx context.Context, e env, name string, seed int64, seconds float64) (*pass, error) {
	plain, err := e.run(ctx, nil, seconds/2)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	p, err := e.run(ctx, tr, seconds/2)
	if err != nil {
		return nil, err
	}
	p.attempted += plain.attempted
	p.failed += plain.failed
	p.failures = append(plain.failures, p.failures...)
	head, higher := e.headline()
	if base, traced := plain.e2e[head], p.e2e[head]; base > 0 && traced > 0 {
		if higher {
			p.layer["trace_overhead"] = base/traced - 1
		} else {
			p.layer["trace_overhead"] = traced/base - 1
		}
	}
	// Rates that divide by the workload's own throughput take it from
	// the untraced pass, so tracing does not inflate them.
	p.consumed = plain.consumed
	if p1 := p.layer["replay.p1_tuples_per_s"]; p1 > 0 {
		p.layer["replay.speedup"] = plain.e2e["tuples_per_s"] / p1
	}
	if err := standaloneProbes(ctx, tr, seed, p); err != nil {
		return nil, err
	}
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d-%d.json", name, seed, time.Now().UnixNano()))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	return p, nil
}

// report prints the human-readable summary: context, every metric by
// name and unit, per-rep spreads and any failure reasons.
func report(w io.Writer, rec *record) {
	c := rec.Context
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v\n", c.Workload, c.Seed, c.Seconds, c.Traced)
	fmt.Fprintf(w, "context: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		c.CPUModel, c.NProc, c.GOMAXPROCS, c.GoVersion, c.Commit, c.SourceDigest)
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Result.Metrics[n]
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	reps := make([]string, 0, len(rec.Reps))
	for n := range rec.Reps {
		reps = append(reps, n)
	}
	sort.Strings(reps)
	for _, n := range reps {
		fmt.Fprintf(w, "  reps %-35s n=%-4d spread=%.4f\n", n, len(rec.Reps[n]), spread(rec.Reps[n]))
	}
	fmt.Fprintf(w, "checks: attempted=%d failed=%d correct=%v\n", rec.Result.Attempted, rec.Result.Failed, rec.Result.Correct)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// resetPeakRSS returns freed heap to the OS and restarts the kernel's
// peak-RSS count (VmHWM) from the current resident set, so the next
// reading covers only what ran after it: the measured pass, not the
// warm-ups. Where the kernel refuses the reset the peak includes what
// ran before.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// errNoShared reports a comparison with nothing to compare.
var errNoShared = errors.New("no metric is present in both results")
