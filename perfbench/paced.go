package main

import (
	"context"
	"fmt"
	"time"

	"pdspbench/internal/apps"
	"pdspbench/internal/backend"
	"pdspbench/internal/controller"
	"pdspbench/internal/core"
	"pdspbench/internal/metrics"
)

// pacedApp is one throttled execution of the paced-eventtime workload.
// rate is per source instance (events/s), tuples per source instance,
// so the scheduled duration is tuples ÷ rate.
type pacedApp struct {
	code       string
	rate       float64
	tuples     int
	latenessMs int64
	// disorder overrides the sources' disorder; nil keeps the app's own
	// (NXQ11 ships bounded 100 ms disorder on its bid source).
	disorder *core.DisorderSpec
}

// pacedMix runs both apps well below their replay capacity on the
// reference machine (NXQ11 ≈ 1/16, AD ≈ 1/3 per source), so latency
// reflects watermark cadence, batching linger and window state rather
// than a backlog. NXQ11 runs longest and so contributes most sink
// outputs to the pooled quantiles; paced.<APP>.* in the traced run
// reports each app alone.
var pacedMix = []pacedApp{
	{code: "NXQ11", rate: 50_000, tuples: 100_000, latenessMs: 100},
	{code: "AD", rate: 20_000, tuples: 10_000, latenessMs: 50,
		disorder: &core.DisorderSpec{Kind: core.DisorderBounded, MaxSkewMs: 50}},
}

type pacedEnv struct {
	ctrl *controller.Controller
	seed int64
	apps []*apps.App
	// refs caches the unthrottled reference execution per app.
	refs map[string]*execution
}

func setupPaced(ctx context.Context, seed int64, _ string) (env, error) {
	e := &pacedEnv{ctrl: controller.Fast(), seed: specSeed(seed), refs: map[string]*execution{}}
	codes := make([]string, len(pacedMix))
	for i, m := range pacedMix {
		codes[i] = m.code
	}
	var err error
	if e.apps, err = resolveApps(codes...); err != nil {
		return nil, err
	}
	if err := warmUp(ctx, e.ctrl, e.apps, func(i int) backend.RunSpec { return e.spec(pacedMix[i]) }); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *pacedEnv) close() {}

func (e *pacedEnv) headline() (string, bool) { return "latency_p50_ms", false }

// spec is the run spec of one paced app (the backend decides pacing).
func (e *pacedEnv) spec(m pacedApp) backend.RunSpec {
	return backend.RunSpec{
		Seed:              e.seed,
		EventRate:         m.rate,
		TuplesPerSource:   m.tuples,
		Disorder:          m.disorder,
		AllowedLatenessMs: m.latenessMs,
	}
}

// run alternates the paced apps until the time is spent. Latency is
// pooled over every sink delivery of the pass; tuples_per_s is input
// tuples ÷ wall seconds of the Execute calls, which stays at the offered
// rate unless the sources fall behind. peak_rss_mb is the peak resident
// set of one execution (counted afresh before each), median over each
// app's executions, of the larger app: the peak over the whole pass is
// the maximum of some twenty executions and swings with GC timing.
func (e *pacedEnv) run(ctx context.Context, tr *tracer, seconds float64) (*pass, error) {
	p := newPass()
	lat := newReservoir(200_000, e.seed)
	appLat := map[string]*reservoir{}
	acc := newLayerAcc()
	lags := map[string][]float64{}
	var execs []*execution
	var in, wall float64
	begin := time.Now()
	for {
		roundStart := time.Now()
		for i, a := range e.apps {
			m := pacedMix[i]
			var al *reservoir
			if tr != nil {
				if appLat[a.Code] == nil {
					appLat[a.Code] = newReservoir(100_000, e.seed+int64(i))
				}
				al = appLat[a.Code]
			}
			sink := newSinkProbe(lat, al, a.Code != "AD", a.Code == "AD")
			resetPeakRSS()
			ex, err := execute(ctx, tr, e.ctrl, throttled, a, engineParallelism, e.spec(m), sink)
			if err != nil {
				p.check(false, "%v", err)
				continue
			}
			p.reps["paced."+a.Code+".rss_mb"] = append(p.reps["paced."+a.Code+".rss_mb"], peakRSSMB())
			execs = append(execs, ex)
			acc.add(ex)
			in += float64(ex.rec.TuplesIn)
			wall += ex.wall
			lags[a.Code] = append(lags[a.Code], sourceLag(ex.wall, m.tuples, m.rate))
			p.reps["paced."+a.Code+".s"] = append(p.reps["paced."+a.Code+".s"], ex.wall)
		}
		if time.Since(begin).Seconds()+time.Since(roundStart).Seconds() > seconds {
			break
		}
	}
	for _, a := range e.apps {
		p.e2e["peak_rss_mb"] = max(p.e2e["peak_rss_mb"], median(p.reps["paced."+a.Code+".rss_mb"]))
	}
	if wall > 0 {
		p.e2e["tuples_per_s"] = in / wall
	}
	samples, _ := lat.snapshot()
	p.e2e["latency_p50_ms"] = metrics.Quantile(samples, 0.50)
	p.e2e["latency_p99_ms"] = metrics.Quantile(samples, 0.99)

	for _, ex := range execs {
		ref, err := e.reference(ctx, ex.app)
		if err != nil {
			return nil, err
		}
		v := e.checkOne(ex, ref)
		p.check(len(v) == 0, "%s: %s", ex.app, v)
	}
	acc.publish(p, p.consumed)
	if tr != nil {
		for code, r := range appLat {
			s, _ := r.snapshot()
			p.layer["paced."+code+".latency_p50_ms"] = metrics.Quantile(s, 0.50)
			p.layer["paced."+code+".latency_p99_ms"] = metrics.Quantile(s, 0.99)
		}
		for code, l := range lags {
			p.layer["engine.source_lag_ms."+code] = 1000 * median(l)
		}
	}
	return p, nil
}

// checkOne applies the paced checks to one execution: the ingest,
// panic and tap checks of replay, no late drop, sources within their
// schedule (a lag over the bound means the backlog grew), and output
// equal to the unthrottled run on the same inputs — the full sink
// multiset for NXQ11, and for AD, whose CTR snapshots depend on arrival
// interleaving, the CTR invariants plus the newest event time emitted
// per campaign.
func (e *pacedEnv) checkOne(ex, ref *execution) verdict {
	var v verdict
	m := e.mix(ex.app)
	want := expectedIngest(findApp(e.apps, ex.app), engineParallelism, m.tuples)
	v.expect(ex.rec.TuplesIn == want, "ingested %d tuples, requested %d", ex.rec.TuplesIn, want)
	v.expect(ex.probe.panics.Load() == 0, "%d UDO panics", ex.probe.panics.Load())
	v.expect(uint64(ex.sink.n.Load()) == ex.rec.TuplesOut, "sink tap saw %d tuples, record reports %d", ex.sink.n.Load(), ex.rec.TuplesOut)
	v.expect(ex.rec.LateDrops == 0, "%d late drops", ex.rec.LateDrops)
	lag := sourceLag(ex.wall, m.tuples, m.rate)
	v.expect(!lagExceeded(lag), "sources lagged %.0f ms behind a %.2f s schedule", 1000*lag, float64(m.tuples)/m.rate)
	if ex.app == "AD" {
		v.expect(ex.sink.bad.Load() == 0, "%d outputs violate the CTR invariants", ex.sink.bad.Load())
		v.expect(ex.rec.TuplesOut > 0, "no output")
		v.expect(ex.sink.adDigest() == ref.sink.adDigest(), "per-campaign digest differs from the unthrottled run")
	} else {
		got, want := ex.sink.multiset(), ref.sink.multiset()
		v.expect(got == want, "sink multiset differs from the unthrottled run (%d vs %d tuples)", got.n, want.n)
	}
	return v
}

// reference returns the unthrottled execution of app on the same
// inputs, running it on first use.
func (e *pacedEnv) reference(ctx context.Context, code string) (*execution, error) {
	if r, ok := e.refs[code]; ok {
		return r, nil
	}
	sink := newSinkProbe(nil, nil, code != "AD", code == "AD")
	r, err := execute(ctx, nil, e.ctrl, &backend.Real{}, findApp(e.apps, code), engineParallelism, e.spec(e.mix(code)), sink)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	e.refs[code] = r
	return r, nil
}

func (e *pacedEnv) mix(code string) pacedApp {
	for _, m := range pacedMix {
		if m.code == code {
			return m
		}
	}
	return pacedApp{}
}
