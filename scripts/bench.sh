#!/usr/bin/env bash
# bench.sh — runs the substrate micro-benchmarks with -benchmem and
# records the results as BENCH_<n>.json in the repo root, where <n> is
# the next free index. The BENCH_*.json sequence is the repo's recorded
# performance trajectory: each entry carries name, ns/op, allocs/op,
# B/op, and any custom metrics (tuples/s, MB/s) per benchmark, so a
# regression shows up as a diff against the last committed file.
#
# Usage:
#   scripts/bench.sh            # run and write BENCH_<n>.json
#   scripts/bench.sh --compare  # diff the two newest BENCH_*.json files:
#                               # exit non-zero if any shared tuples_per_s
#                               # metric regressed by more than 10%
#   BENCH_FILTER=Filter scripts/bench.sh   # restrict to matching names
#   BENCH_COUNT=5 scripts/bench.sh         # repetitions (default 3)
#
# The default selection is the substrate scoreboard: the real engine's
# filter and join pipelines, the event-time plane under disorder
# (zipfburst windows with their late-drop rate, the windowed join under
# bounded skew), and the DES simulator event rate — the benchmarks
# the batched data plane is judged by. All of them report tuples/s, so
# --compare can gate on throughput uniformly.
#
# Caveat: BENCH_*.json files are only comparable when recorded on the
# same machine — --compare gates regressions between two same-machine
# recordings, not across hardware generations.
set -euo pipefail
cd "$(dirname "$0")/.."

FILTER="${BENCH_FILTER:-BenchmarkEngineFilterThroughput|BenchmarkEngineWindowedJoin|BenchmarkEngineDisorderedWindow|BenchmarkEngineWindowedJoinUnderSkew|BenchmarkSimulatorEventRate}"
COUNT="${BENCH_COUNT:-3}"
BENCHTIME="${BENCH_TIME:-10x}"

# --compare: no benchmarks run; diff the two newest recordings. A shared
# benchmark whose tuples_per_s dropped >10% fails the gate. Metrics
# present in only one file (new or retired benchmarks) are skipped.
if [ "${1:-}" = "--compare" ]; then
  newest="" prev=""
  n=1
  while [ -e "BENCH_${n}.json" ]; do
    prev="$newest"
    newest="BENCH_${n}.json"
    n=$((n + 1))
  done
  if [ -z "$prev" ]; then
    echo "bench.sh --compare: need at least two BENCH_*.json files, skipping"
    exit 0
  fi
  echo "bench.sh --compare: $newest vs $prev"
  awk -v newf="$newest" -v oldf="$prev" '
  function scan(file, tab,   line, name, v) {
    while ((getline line < file) > 0) {
      if (match(line, /"name": "[^"]+"/)) {
        name = substr(line, RSTART + 9, RLENGTH - 10)
        if (match(line, /"tuples_per_s": [0-9.eE+-]+/)) {
          v = substr(line, RSTART + 16, RLENGTH - 16)
          tab[name] = v + 0
        }
      }
    }
    close(file)
  }
  BEGIN {
    scan(newf, now); scan(oldf, old)
    bad = 0
    for (name in now) {
      if (!(name in old) || old[name] <= 0) continue
      delta = (now[name] - old[name]) / old[name] * 100
      verdict = "ok"
      if (delta < -10) { verdict = "REGRESSION"; bad = 1 }
      printf "  %-40s %12.4g -> %12.4g tuples/s  %+6.1f%%  %s\n", name, old[name], now[name], delta, verdict
    }
    if (bad) {
      print "bench.sh --compare: throughput regressed >10%" > "/dev/stderr"
      exit 1
    }
    print "bench.sh --compare: no regression beyond 10%"
  }'
  exit $?
fi

n=1
while [ -e "BENCH_${n}.json" ]; do
  n=$((n + 1))
done
out="BENCH_${n}.json"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

echo "== go test -bench ${FILTER} -benchmem -benchtime ${BENCHTIME} -count ${COUNT}"
go test -run '^$' -bench "${FILTER}" -benchmem -benchtime "${BENCHTIME}" -count "${COUNT}" . | tee "$raw"

# Parse `BenchmarkName  N  123 ns/op  45 B/op  6 allocs/op  7.8 unit ...`
# lines into JSON, averaging repetitions of the same benchmark.
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
/^Benchmark/ {
  name = $1
  sub(/-[0-9]+$/, "", name)
  count[name]++
  for (i = 3; i < NF; i += 2) {
    val = $i; unit = $(i + 1)
    gsub(/[^A-Za-z0-9_\/%.-]/, "", unit)
    sum[name, unit] += val
    if (!((name, unit) in seen)) { seen[name, unit] = 1; units[name] = units[name] unit SUBSEP }
  }
}
END {
  printf "{\n  \"recorded\": \"%s\",\n  \"benchmarks\": [\n", date
  nb = 0
  for (name in count) order[++nb] = name
  # stable order: sort names
  for (i = 1; i <= nb; i++)
    for (j = i + 1; j <= nb; j++)
      if (order[j] < order[i]) { t = order[i]; order[i] = order[j]; order[j] = t }
  for (i = 1; i <= nb; i++) {
    name = order[i]
    printf "    {\"name\": \"%s\", \"reps\": %d", name, count[name]
    split(units[name], us, SUBSEP)
    for (u in us) {
      unit = us[u]
      if (unit == "") continue
      key = unit
      gsub(/\//, "_per_", key)
      printf ", \"%s\": %.6g", key, sum[name, unit] / count[name]
    }
    printf "}%s\n", (i < nb ? "," : "")
  }
  printf "  ]\n}\n"
}' "$raw" > "$out"

echo "bench.sh: wrote $out"
