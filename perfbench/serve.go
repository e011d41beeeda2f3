package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"pdspbench/internal/backend"
	"pdspbench/internal/controller"
	"pdspbench/internal/metrics"
	"pdspbench/internal/server"
	"pdspbench/internal/storage"
	"pdspbench/internal/workload"
)

// Plan classes of the serve-mixed mix: small runs simulate in well under
// a millisecond, large ones in about 30 ms each on the reference
// machine. The large class is kept to two plans of similar cost so the
// latency tail measures the front door, not which plans a seed drew.
var (
	smallPlans = []servePlan{
		{workload.StructLinear, 2}, {workload.StructLinear, 3}, {workload.StructLinear, 4},
		{workload.StructTwoFilter, 2}, {workload.StructTwoFilter, 3}, {workload.StructTwoFilter, 4},
	}
	largePlans = []servePlan{
		{workload.StructThreeJoin, 32}, {workload.StructSixJoin, 16},
	}
	allPlans = append(append([]servePlan(nil), smallPlans...), largePlans...)
)

// serveTenant is one client population of the open loop: Poisson
// arrivals at rate per second, each a run of a plan drawn uniformly from
// plans, submitted synchronously or async and followed over SSE.
type serveTenant struct {
	name  string
	rate  float64
	async bool
	plans []servePlan
}

// serveTenants offer about 66 runs/s in total: below every admission
// quota (200/s per tenant, 500/s overall by default) and, at well under
// a tenth of two cores of simulation, below CPU capacity, so the front
// door queues briefly but never sheds or rejects. Large runs are about
// 3% of requests, so latency_p99_ms falls in the body of the large-run
// distribution; small runs that wait behind them form a tail of their
// own, and at a larger large-run share the two tails meet at p99 and
// the quantile jumps between them from run to run.
var serveTenants = []serveTenant{
	{name: "small-sync", rate: 60, plans: smallPlans},
	{name: "large-sync", rate: 0.5, plans: largePlans},
	{name: "async-sse", rate: 6, async: true, plans: allPlans},
}

// serverWorkers is the server's default execution-slot count
// (ServingConfig.Workers), the base of server.worker_busy_frac.
const serverWorkers = 4

// requestTimeout bounds one request so a stalled server fails the run
// instead of hanging it.
const requestTimeout = 30 * time.Second

// maxInFlight caps driver goroutines; a request that finds the cap full
// is counted failed rather than delaying the open loop.
const maxInFlight = 512

type serveEnv struct {
	seed  int64
	store *storage.Store
	srv   *server.Server
	ts    *httptest.Server
	// refs caches the direct controller.MeasureSpec record per plan.
	refs map[servePlan][]byte
}

// setupServe starts a dispatcher over a fresh store behind a TLS
// HTTP/2 loopback server and warms the connection and the simulator
// with one sync run of every plan of the mix, sent back to back.
func setupServe(ctx context.Context, seed int64, scratch string) (env, error) {
	store, err := storage.Open(scratch)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(store)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.EnableHTTP2 = true
	ts.StartTLS()
	e := &serveEnv{seed: seed, store: store, srv: srv, ts: ts, refs: map[servePlan][]byte{}}
	for _, sp := range allPlans {
		if o := e.do(ctx, nil, request{tenant: 0, plan: sp}, time.Now()); !o.ok {
			e.close()
			return nil, fmt.Errorf("warm-up run %s: %s", sp, o.why)
		}
	}
	return e, nil
}

func (e *serveEnv) close() {
	e.ts.Close()
	e.srv.Close()
}

func (e *serveEnv) headline() (string, bool) { return "latency_p50_ms", false }

// request is one scheduled run of the open loop.
type request struct {
	due    time.Duration // offset from the start of the pass
	tenant int
	plan   servePlan
}

// schedule draws the open-loop arrivals of every tenant over the window
// from the seed: the same seed gives the same requests at the same
// offsets.
func schedule(seed int64, window time.Duration) []request {
	var out []request
	for ti, t := range serveTenants {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(ti)))
		var at float64
		for {
			at += rng.ExpFloat64() / t.rate
			if at >= window.Seconds() {
				break
			}
			out = append(out, request{
				due:    time.Duration(at * float64(time.Second)),
				tenant: ti,
				plan:   t.plans[rng.Intn(len(t.plans))],
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// outcome is what the driver observed for one request.
type outcome struct {
	ok  bool
	why string
	// status is the HTTP status of the submission (0 on transport error).
	status int
	shed   bool
	// Latencies in ms: due time to final byte or terminal event; POST
	// to 202 (async); queued→admitted and admitted→completed from the
	// run's own events (async, traced).
	e2eMs, submitMs, queueMs, execMs float64
	lateMs                           float64
	record                           []byte // canonical JSON of the returned record
}

// run drives the open loop for the window, then checks every outcome.
func (e *serveEnv) run(ctx context.Context, tr *tracer, seconds float64) (*pass, error) {
	p := newPass()
	window := time.Duration(seconds * float64(time.Second))
	reqs := schedule(e.seed, window)
	outs := make([]outcome, len(reqs))
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	stopSampler := e.sampleActive(ctx, tr)
	start := time.Now()
	timer := time.NewTimer(0)
	<-timer.C
	for i, r := range reqs {
		due := start.Add(r.due)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				wg.Wait()
				stopSampler()
				return nil, ctx.Err()
			}
		}
		late := float64(time.Since(due).Nanoseconds()) / 1e6
		select {
		case sem <- struct{}{}:
		default:
			outs[i] = outcome{why: "driver in-flight cap reached", lateMs: late}
			continue
		}
		wg.Add(1)
		go func(i int, r request, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			outs[i] = e.do(ctx, tr, r, due)
			outs[i].lateMs = late
		}(i, r, due)
	}
	wg.Wait()
	busy := stopSampler()
	p.e2e["peak_rss_mb"] = peakRSSMB()

	if err := e.checkAll(ctx, p, reqs, outs); err != nil {
		return nil, err
	}
	var e2e, late, submit, queue, exec, overhead []float64
	okBy := make([]float64, len(serveTenants))
	allBy := make([]float64, len(serveTenants))
	var rejected, shed float64
	for i, o := range outs {
		late = append(late, o.lateMs)
		allBy[reqs[i].tenant]++
		switch {
		case o.status == http.StatusTooManyRequests:
			rejected++
		case o.status == http.StatusServiceUnavailable || o.shed:
			shed++
		}
		if !o.ok {
			continue
		}
		okBy[reqs[i].tenant]++
		e2e = append(e2e, o.e2eMs)
		if serveTenants[reqs[i].tenant].async {
			submit = append(submit, o.submitMs)
			if tr != nil {
				queue = append(queue, o.queueMs)
				exec = append(exec, o.execMs)
				overhead = append(overhead, o.e2eMs-o.queueMs-o.execMs)
			}
		}
	}
	var completed float64
	for _, n := range okBy {
		completed += n
	}
	p.e2e["tuples_per_s"] = completed / seconds
	p.e2e["latency_p50_ms"] = metrics.Quantile(e2e, 0.50)
	p.e2e["latency_p99_ms"] = metrics.Quantile(e2e, 0.99)
	if tr != nil {
		p.layer["server.submit_ms_p50"] = metrics.Quantile(submit, 0.50)
		p.layer["server.submit_ms_p99"] = metrics.Quantile(submit, 0.99)
		p.layer["server.queue_wait_ms_p50"] = metrics.Quantile(queue, 0.50)
		p.layer["server.queue_wait_ms_p99"] = metrics.Quantile(queue, 0.99)
		p.layer["server.exec_ms_p50"] = metrics.Quantile(exec, 0.50)
		p.layer["server.exec_ms_p99"] = metrics.Quantile(exec, 0.99)
		p.layer["server.overhead_ms_p50"] = metrics.Quantile(overhead, 0.50)
		p.layer["server.worker_busy_frac"] = busy
		p.layer["server.rejected_429"] = rejected
		p.layer["server.shed_503"] = shed
		p.layer["server.tenant_ok_spread"] = okSpread(okBy, allBy)
		p.layer["driver.lateness_ms_p99"] = metrics.Quantile(late, 0.99)
	}
	return p, nil
}

// okSpread is the largest minus the smallest per-tenant share of runs
// that completed: 0 when every tenant was served equally well.
func okSpread(ok, all []float64) float64 {
	lo, hi := 1.0, 0.0
	for i := range ok {
		if all[i] == 0 {
			continue
		}
		r := ok[i] / all[i]
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// checkAll counts every request as one operation: it fails unless it
// finished 2xx/completed with a record identical to a direct
// controller.MeasureSpec of the same plan (the simulator is
// deterministic for a plan and seed).
func (e *serveEnv) checkAll(ctx context.Context, p *pass, reqs []request, outs []outcome) error {
	for i, o := range outs {
		if !o.ok {
			p.check(false, "%s %s: %s", serveTenants[reqs[i].tenant].name, reqs[i].plan, o.why)
			continue
		}
		want, err := e.reference(ctx, reqs[i].plan)
		if err != nil {
			return err
		}
		p.check(bytes.Equal(o.record, want), "%s %s: record differs from a direct MeasureSpec", serveTenants[reqs[i].tenant].name, reqs[i].plan)
	}
	return nil
}

// reference is the canonical JSON of controller.MeasureSpec on the
// plan the server builds, with the server's default controller.
func (e *serveEnv) reference(ctx context.Context, sp servePlan) ([]byte, error) {
	if r, ok := e.refs[sp]; ok {
		return r, nil
	}
	ctrl := controller.Fast()
	plan, err := sp.build(ctrl)
	if err != nil {
		return nil, err
	}
	rec, err := ctrl.MeasureSpec(ctx, plan, ctrl.Homogeneous(), backend.RunSpec{})
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", sp, err)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	e.refs[sp] = data
	return data, nil
}

// sampleActive polls the server's active-run gauge every 50 ms while a
// traced pass runs; the returned stop function ends the sampler and
// returns the mean share of execution slots in use.
func (e *serveEnv) sampleActive(ctx context.Context, tr *tracer) func() float64 {
	if tr == nil {
		return func() float64 { return 0 }
	}
	stop := make(chan struct{})
	done := make(chan float64, 1)
	go func() {
		var sum float64
		var n int
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				if n == 0 {
					done <- 0
				} else {
					done <- sum / float64(n) / serverWorkers
				}
				return
			case <-tick.C:
				var snap metrics.ServingSnapshot
				if err := e.getJSON(ctx, "/api/serving/stats", &snap); err == nil {
					sum += float64(snap.ActiveRuns)
					n++
				}
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

// do performs one request and follows it to its end.
func (e *serveEnv) do(ctx context.Context, tr *tracer, r request, due time.Time) outcome {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	t := serveTenants[r.tenant]
	body, err := json.Marshal(server.RunRequest{Structure: string(r.plan.structure), Parallelism: r.plan.parallelism, Async: t.async})
	if err != nil {
		return outcome{why: err.Error()}
	}
	trace := tr.newID()
	start := time.Now()
	resp, err := e.post(ctx, t.name, body)
	if err != nil {
		return outcome{why: "transport: " + err.Error()}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	tr.record(trace, 0, trace, "http.POST /api/run/"+t.name, start, end, map[string]float64{"status": float64(resp.StatusCode)})
	o := outcome{status: resp.StatusCode}
	if err != nil {
		o.why = "read response: " + err.Error()
		return o
	}
	if !t.async {
		if resp.StatusCode != http.StatusOK {
			o.why = fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
			return o
		}
		o.e2eMs = msSince(due, end)
		o.record, err = canonicalRecord(data)
		if err != nil {
			o.why = err.Error()
			return o
		}
		o.ok = true
		return o
	}
	if resp.StatusCode != http.StatusAccepted {
		o.why = fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
		return o
	}
	o.submitMs = msSince(start, end)
	var acc server.AsyncRunResponse
	if err := json.Unmarshal(data, &acc); err != nil {
		o.why = "decode 202: " + err.Error()
		return o
	}
	ev, err := e.follow(ctx, tr, trace, acc.Events)
	finished := time.Now()
	if err != nil {
		o.why = err.Error()
		return o
	}
	o.e2eMs = msSince(due, finished)
	if ev.Type != "completed" || ev.Record == nil {
		o.shed = ev.Type == "shed"
		o.why = fmt.Sprintf("run ended %s: %s", ev.Type, ev.Error)
		return o
	}
	if o.record, err = json.Marshal(ev.Record); err != nil {
		o.why = err.Error()
		return o
	}
	if tr != nil {
		if err := e.runEvents(ctx, tr, trace, acc.Status, &o); err != nil {
			o.why = err.Error()
			return o
		}
	}
	o.ok = true
	return o
}

// follow reads the run's SSE stream until its terminal event.
func (e *serveEnv) follow(ctx context.Context, tr *tracer, trace int64, path string) (*server.RunEvent, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.ts.URL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		payload, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev server.RunEvent
		if err := json.Unmarshal([]byte(payload), &ev); err != nil {
			return nil, fmt.Errorf("events: decode: %w", err)
		}
		switch ev.Type {
		case "completed", "failed", "shed":
			tr.add(trace, trace, "http.GET events", start, time.Now(), nil)
			return &ev, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	return nil, errors.New("events: stream ended without a terminal event")
}

// runEvents reads GET /api/runs/{id} and takes the queue wait and
// execution time from the server's own event timestamps, recording
// them as server spans under the request.
func (e *serveEnv) runEvents(ctx context.Context, tr *tracer, trace int64, path string, o *outcome) error {
	start := time.Now()
	var st server.RunStatus
	if err := e.getJSON(ctx, path, &st); err != nil {
		return fmt.Errorf("run status: %w", err)
	}
	tr.add(trace, trace, "http.GET status", start, time.Now(), nil)
	at := map[string]int64{}
	for _, ev := range st.Events {
		at[ev.Type] = ev.TMS
	}
	q, a, c := at["queued"], at["admitted"], at["completed"]
	if q == 0 || a == 0 || c == 0 {
		return fmt.Errorf("run status: missing events in %v", st.Events)
	}
	o.queueMs, o.execMs = float64(a-q), float64(c-a)
	tr.add(trace, trace, "server.queue", time.UnixMilli(q), time.UnixMilli(a), nil)
	tr.add(trace, trace, "server.execute", time.UnixMilli(a), time.UnixMilli(c), nil)
	return nil
}

func (e *serveEnv) post(ctx context.Context, tenant string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.ts.URL+"/api/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.TenantHeader, tenant)
	return e.ts.Client().Do(req)
}

func (e *serveEnv) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.ts.URL+path, nil)
	if err != nil {
		return err
	}
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// canonicalRecord re-encodes a record body so it compares byte for byte
// with a locally marshalled one.
func canonicalRecord(data []byte) ([]byte, error) {
	var rec metrics.RunRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("decode record: %w", err)
	}
	return json.Marshal(&rec)
}

func msSince(from, to time.Time) float64 { return float64(to.Sub(from).Nanoseconds()) / 1e6 }
