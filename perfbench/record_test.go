package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

func testRecord(commit string, metrics map[string]metric) *record {
	return &record{
		Context: runContext{
			Workload: "serve-mixed", Seed: 3, Seconds: 20, CPUModel: "cpu", NProc: 2,
			GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: commit, SourceDigest: commit,
		},
		Result: &result{Correct: true, Attempted: 1, Metrics: metrics},
	}
}

func TestCompareRefusesDifferentContexts(t *testing.T) {
	m := map[string]metric{"latency_p50_ms": {Value: 2, Unit: "ms"}}
	base := testRecord("a", m)
	for name, mutate := range map[string]func(*runContext){
		"cpu":        func(c *runContext) { c.CPUModel = "other" },
		"nproc":      func(c *runContext) { c.NProc = 4 },
		"gomaxprocs": func(c *runContext) { c.GOMAXPROCS = 1 },
		"go":         func(c *runContext) { c.GoVersion = "go1.23.0" },
		"seed":       func(c *runContext) { c.Seed = 4 },
		"workload":   func(c *runContext) { c.Workload = "replay-apps" },
		"seconds":    func(c *runContext) { c.Seconds = 10 },
		"traced":     func(c *runContext) { c.Traced = true },
	} {
		other := testRecord("b", m)
		mutate(&other.Context)
		if _, err := compareRecords(base, other); err == nil {
			t.Errorf("%s differs but the comparison was allowed", name)
		}
	}
	// Commits differ in every real comparison; that alone is fine.
	if _, err := compareRecords(base, testRecord("b", m)); err != nil {
		t.Errorf("comparing two commits on one machine refused: %v", err)
	}
}

func TestCompareRefusesNothingShared(t *testing.T) {
	a := testRecord("a", map[string]metric{"latency_p50_ms": {Value: 2, Unit: "ms"}})
	b := testRecord("b", map[string]metric{"tuples_per_s": {Value: 2, Unit: "1/s"}})
	if _, err := compareRecords(a, b); !errors.Is(err, errNoShared) {
		t.Fatalf("err = %v, want errNoShared", err)
	}
}

func TestCompareReportsRelativeChange(t *testing.T) {
	a := testRecord("a", map[string]metric{"latency_p50_ms": {Value: 2, Unit: "ms"}, "setup_s": {Value: 1, Unit: "s"}})
	b := testRecord("b", map[string]metric{"latency_p50_ms": {Value: 2.5, Unit: "ms"}, "setup_s": {Value: 0.5, Unit: "s"}})
	rows, err := compareRecords(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].name != "latency_p50_ms" || rows[0].change != 0.25 || rows[1].change != -0.5 {
		t.Errorf("rows = %+v", rows)
	}
}

func TestCompareMainExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r *record) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	m := map[string]metric{"latency_p50_ms": {Value: 2, Unit: "ms"}}
	old := write("old.json", testRecord("a", m))
	same := write("new.json", testRecord("b", m))
	moved := testRecord("b", m)
	moved.Context.CPUModel = "elsewhere"
	other := write("other.json", moved)
	var out, errOut bytes.Buffer
	if code := compareMain([]string{old, same}, &out, &errOut); code != 0 {
		t.Errorf("comparable records: exit %d, stderr %q", code, errOut.String())
	}
	if code := compareMain([]string{old, other}, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "refused") {
		t.Errorf("different machines: exit %d, stderr %q; want 2 and a refusal", code, errOut.String())
	}
}

func TestScheduleIsSeededOpenLoop(t *testing.T) {
	a := schedule(7, 20*time.Second)
	b := schedule(7, 20*time.Second)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d requests", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs under the same seed: %+v vs %+v", i, a[i], b[i])
		}
	}
	if c := schedule(8, 20*time.Second); len(c) == len(a) && c[0] == a[0] {
		t.Error("a different seed gave the same schedule")
	}
	var offered float64
	for _, tn := range serveTenants {
		offered += tn.rate
	}
	// Poisson counts over 20 s: within five standard deviations.
	want := offered * 20
	if d := float64(len(a)) - want; d*d > 25*want {
		t.Errorf("%d requests in 20 s, want about %.0f", len(a), want)
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due {
			t.Fatal("schedule is not in due order")
		}
	}
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesReportedMetrics keeps BENCHMARK.json and the
// metrics the program prints in step.
func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	if got, want := strings.Join(wls, ","), workloadNames(); strings.ReplaceAll(want, " ", "") != got {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, want)
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	if len(e2e) != len(e2eUnits) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, program prints %d", len(e2e), len(e2eUnits))
	}
	for name, unit := range e2eUnits {
		if e2e[name] != unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, program %q", name, e2e[name], unit)
		}
	}
	printed := map[string]string{}
	for _, m := range layerMetrics() {
		printed[m.name] = m.unit
	}
	listed := map[string]string{}
	for _, m := range spec.PerLayer {
		if !nameRe.MatchString(m.Name) {
			t.Errorf("per-layer name %q breaks the naming rule", m.Name)
		}
		if _, dup := listed[m.Name]; dup {
			t.Errorf("per-layer name %q listed twice", m.Name)
		}
		listed[m.Name] = m.Unit
	}
	var missing []string
	for n, u := range printed {
		if listed[n] != u {
			missing = append(missing, n+" ("+u+")")
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 || len(listed) != len(printed) {
		t.Errorf("per-layer metrics differ: printed but not listed with that unit: %v; listed %d, printed %d", missing, len(listed), len(printed))
	}
}
