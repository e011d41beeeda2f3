package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runContext is what a result depends on besides the code under test.
// Two results are comparable only when their contexts match on every
// field except the commit and source digest, which are what a
// comparison compares.
type runContext struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Traced       bool   `json:"traced"`
	CPUModel     string `json:"cpu_model"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
}

// record is the result file one run leaves under .bench_build/results:
// the context, the printed result, every per-rep value and its spread,
// and the failure reasons.
type record struct {
	Context  runContext           `json:"context"`
	Result   *result              `json:"result"`
	Reps     map[string][]float64 `json:"reps"`
	Spreads  map[string]float64   `json:"spreads"`
	Failures []string             `json:"failures,omitempty"`
}

func (r *record) finish(res *result, failures []string) {
	r.Result = res
	r.Failures = failures
	r.Spreads = map[string]float64{}
	for k, v := range r.Reps {
		r.Spreads[k] = spread(v)
	}
}

// save writes the record as <dir>/<workload>-seed<n>-trace<0|1>-<ns>.json.
func (r *record) save(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("results dir: %w", err)
	}
	trace := 0
	if r.Context.Traced {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", r.Context.Workload, r.Context.Seed, trace, time.Now().UnixNano()))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("marshal record: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write record: %w", err)
	}
	return path, nil
}

func collectContext(workload string, seed int64, seconds int, traced bool) runContext {
	return runContext{
		Workload:     workload,
		Seed:         seed,
		Seconds:      seconds,
		Traced:       traced,
		CPUModel:     cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit("."),
		SourceDigest: sourceDigest("."),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the .git directory under root without
// running git; a checkout that is not a repository reports "unknown"
// and is identified by its source digest instead.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, name, ok := strings.Cut(line, " "); ok && name == ref {
				return id
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file under cmd/ and
// internal/: the code under test, identified without version control.
func sourceDigest(root string) string {
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil // an unreadable entry is left out of the digest
		})
	}
	files = append(files, filepath.Join(root, "go.mod"))
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// comparableContexts returns why two results may not be compared, or ""
// when they may.
func comparableContexts(a, b runContext) string {
	var diffs []string
	if a.Workload != b.Workload {
		diffs = append(diffs, fmt.Sprintf("workload %s vs %s", a.Workload, b.Workload))
	}
	if a.Seed != b.Seed {
		diffs = append(diffs, fmt.Sprintf("seed %d vs %d", a.Seed, b.Seed))
	}
	if a.Seconds != b.Seconds {
		diffs = append(diffs, fmt.Sprintf("seconds %d vs %d", a.Seconds, b.Seconds))
	}
	if a.Traced != b.Traced {
		diffs = append(diffs, fmt.Sprintf("traced %v vs %v", a.Traced, b.Traced))
	}
	if a.CPUModel != b.CPUModel {
		diffs = append(diffs, fmt.Sprintf("cpu %q vs %q", a.CPUModel, b.CPUModel))
	}
	if a.NProc != b.NProc {
		diffs = append(diffs, fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc))
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.GoVersion != b.GoVersion {
		diffs = append(diffs, fmt.Sprintf("go %s vs %s", a.GoVersion, b.GoVersion))
	}
	return strings.Join(diffs, "; ")
}

func loadRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if r.Result == nil {
		return nil, fmt.Errorf("%s: no result", path)
	}
	return &r, nil
}

// compareMain compares two result records metric by metric. It refuses
// (exit 2) when their contexts differ or they share no metric, so a
// comparison can never pass by comparing nothing.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	old, err := loadRecord(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	cur, err := loadRecord(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	rows, err := compareRecords(old, cur)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: refused: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s seed=%d: %s (%s) -> %s (%s)\n", old.Context.Workload, old.Context.Seed,
		old.Context.Commit, old.Context.SourceDigest, cur.Context.Commit, cur.Context.SourceDigest)
	for _, r := range rows {
		fmt.Fprintf(stdout, "  %-40s %14.6g -> %14.6g %s  %+8.2f%%\n", r.name, r.old, r.cur, r.unit, 100*r.change)
	}
	return 0
}

// comparison is one metric of two records.
type comparison struct {
	name     string
	unit     string
	old, cur float64
	change   float64 // (cur-old)/|old|; NaN when old is 0
}

func compareRecords(old, cur *record) ([]comparison, error) {
	if why := comparableContexts(old.Context, cur.Context); why != "" {
		return nil, fmt.Errorf("contexts differ: %s", why)
	}
	var rows []comparison
	for name, m := range old.Result.Metrics {
		n, ok := cur.Result.Metrics[name]
		if !ok || n.Unit != m.Unit {
			continue
		}
		change := math.NaN()
		if m.Value != 0 {
			change = (n.Value - m.Value) / math.Abs(m.Value)
		}
		rows = append(rows, comparison{name: name, unit: m.Unit, old: m.Value, cur: n.Value, change: change})
	}
	if len(rows) == 0 {
		return nil, errNoShared
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows, nil
}
