package main

import (
	"context"
	"fmt"
	"time"

	"pdspbench/internal/apps"
	"pdspbench/internal/backend"
	"pdspbench/internal/controller"
	"pdspbench/internal/metrics"
)

// replayMix is the replay-apps job: each application replayed
// unthrottled at engineParallelism, tuples per source instance sized so
// the three take similar wall time on the reference machine. SA stays
// in the mix at full size: its generator is the known bottleneck, and
// the benchmark must keep showing it.
var replayMix = []struct {
	code   string
	tuples int
}{
	{"SA", 120_000},
	{"WC", 150_000},
	{"AD", 35_000},
}

type replayEnv struct {
	ctrl *controller.Controller
	seed int64
	apps []*apps.App
	// refs caches the single-thread reference execution per app; inputs
	// repeat every round, so one reference serves the whole run.
	refs map[string]*execution
}

func setupReplay(ctx context.Context, seed int64, _ string) (env, error) {
	e := &replayEnv{ctrl: controller.Fast(), seed: specSeed(seed), refs: map[string]*execution{}}
	codes := make([]string, len(replayMix))
	for i, m := range replayMix {
		codes[i] = m.code
	}
	var err error
	if e.apps, err = resolveApps(codes...); err != nil {
		return nil, err
	}
	if err = warmUp(ctx, e.ctrl, e.apps, func(int) backend.RunSpec { return backend.RunSpec{Seed: e.seed} }); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *replayEnv) close() {}

func (e *replayEnv) headline() (string, bool) { return "tuples_per_s", true }

// run replays the mix round after round until the time is spent. Every
// round repeats the same inputs; tuples_per_s is the median over rounds
// of input tuples ingested ÷ wall seconds of the Execute calls. Replay
// is a batch regime, so its latency is the batch latency: the wall time
// of one Execute call, from input to complete result, over every call
// of the pass.
func (e *replayEnv) run(ctx context.Context, tr *tracer, seconds float64) (*pass, error) {
	p := newPass()
	acc := newLayerAcc()
	var rounds, lat []float64
	var execs []*execution
	begin := time.Now()
	for {
		roundStart := time.Now()
		var in, wall float64
		for i, a := range e.apps {
			spec := backend.RunSpec{Seed: e.seed, TuplesPerSource: replayMix[i].tuples}
			sink := newSinkProbe(nil, nil, false, a.Code == "AD")
			ex, err := execute(ctx, tr, e.ctrl, &backend.Real{}, a, engineParallelism, spec, sink)
			if err != nil {
				p.check(false, "%v", err)
				continue
			}
			execs = append(execs, ex)
			acc.add(ex)
			in += float64(ex.rec.TuplesIn)
			wall += ex.wall
			lat = append(lat, 1000*ex.wall)
			p.reps["replay."+a.Code+".s"] = append(p.reps["replay."+a.Code+".s"], ex.wall)
		}
		if wall > 0 {
			rounds = append(rounds, in/wall)
		}
		if time.Since(begin).Seconds()+time.Since(roundStart).Seconds() > seconds {
			break
		}
	}
	p.e2e["peak_rss_mb"] = peakRSSMB()
	p.reps["tuples_per_s"] = rounds
	p.e2e["tuples_per_s"] = median(rounds)
	p.e2e["latency_p50_ms"] = metrics.Quantile(lat, 0.50)
	p.e2e["latency_p99_ms"] = metrics.Quantile(lat, 0.99)

	if err := e.checkAll(ctx, p, execs); err != nil {
		return nil, err
	}
	e.publishLayers(p, acc)
	return p, nil
}

// checkAll runs the output checks on every execution of the pass.
func (e *replayEnv) checkAll(ctx context.Context, p *pass, execs []*execution) error {
	for _, ex := range execs {
		ref, err := e.reference(ctx, ex.app)
		if err != nil {
			return err
		}
		v := e.checkOne(ex, ref)
		p.check(len(v) == 0, "%s: %s", ex.app, v)
	}
	return nil
}

// checkOne applies the replay checks to one execution: every requested
// tuple ingested, no UDO panic, the tap saw every delivery, and SA and
// WC sink counts equal to the single-thread reference (their counts do
// not depend on interleaving). AD's count does, so AD is checked on its
// output invariants instead.
func (e *replayEnv) checkOne(ex, ref *execution) verdict {
	var v verdict
	want := expectedIngest(findApp(e.apps, ex.app), engineParallelism, e.tuples(ex.app))
	v.expect(ex.rec.TuplesIn == want, "ingested %d tuples, requested %d", ex.rec.TuplesIn, want)
	v.expect(ex.probe.panics.Load() == 0, "%d UDO panics", ex.probe.panics.Load())
	v.expect(uint64(ex.sink.n.Load()) == ex.rec.TuplesOut, "sink tap saw %d tuples, record reports %d", ex.sink.n.Load(), ex.rec.TuplesOut)
	if ex.app == "AD" {
		v.expect(ex.sink.bad.Load() == 0, "%d outputs violate the CTR invariants", ex.sink.bad.Load())
		v.expect(ex.rec.TuplesOut > 0, "no output")
	} else {
		v.expect(ex.rec.TuplesOut == ref.rec.TuplesOut, "sink count %d, single-thread reference %d", ex.rec.TuplesOut, ref.rec.TuplesOut)
	}
	return v
}

// reference returns the single-thread execution of app on the same
// inputs, running it on first use.
func (e *replayEnv) reference(ctx context.Context, code string) (*execution, error) {
	if r, ok := e.refs[code]; ok {
		return r, nil
	}
	spec := backend.RunSpec{Seed: e.seed, TuplesPerSource: e.tuples(code)}
	r, err := execute(ctx, nil, e.ctrl, &backend.Real{}, findApp(e.apps, code), 1, spec, newSinkProbe(nil, nil, false, code == "AD"))
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	e.refs[code] = r
	return r, nil
}

// publishLayers reports the replay layer metrics, including the
// single-thread baseline the references provide; only a traced run
// prints them.
func (e *replayEnv) publishLayers(p *pass, acc *layerAcc) {
	acc.publish(p, p.consumed)
	for _, a := range e.apps {
		p.layer["replay."+a.Code+".s"] = median(acc.wall[a.Code])
	}
	var in, wall float64
	for _, a := range e.apps {
		r := e.refs[a.Code]
		in += float64(r.rec.TuplesIn)
		wall += r.wall
	}
	if wall > 0 {
		p.layer["replay.p1_tuples_per_s"] = in / wall
	}
}

func (e *replayEnv) tuples(code string) int {
	for _, m := range replayMix {
		if m.code == code {
			return m.tuples
		}
	}
	return 0
}
