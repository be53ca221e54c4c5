#!/usr/bin/env bash
# Profiling harness: captures a CPU profile and a runtime/trace execution
# trace for every Primitive macro benchmark into prof/, one file pair per
# benchmark, plus the compiled test binary for symbolisation. Usage:
#
#   scripts/profile.sh                    # profile every Primitive benchmark
#   scripts/profile.sh DensePush          # only benchmarks matching a substring
#   BENCHTIME=5s scripts/profile.sh Late  # longer capture for quiet profiles
#
# Reading the output:
#
#   go tool pprof -http=:8080 prof/repro.test prof/<name>.cpu.pprof
#       flame graph / top — where round time goes (delivery kernel vs
#       decision phase vs accounting)
#   go tool trace prof/<name>.trace.out
#       scheduler timeline — goroutine utilisation, GC pauses, blocked
#       time
#
# Each benchmark runs in its own `go test` invocation because -cpuprofile
# and -trace capture whole-process streams: one benchmark per process keeps
# every profile attributable. The planet-scale benchmarks are excluded via
# -short (use BENCH_FILTER=full to include them).
set -euo pipefail

cd "$(dirname "$0")/.."
PATTERN="${1:-}"
BENCHTIME="${BENCHTIME:-2s}"
BENCH_FILTER="${BENCH_FILTER:-short}"
case "${BENCH_FILTER}" in
  short) TIER_FLAGS=("-short") ;;
  full)  TIER_FLAGS=("-timeout" "120m") ;;
  *) echo "profile.sh: BENCH_FILTER must be \"short\" or \"full\", got \"${BENCH_FILTER}\"" >&2; exit 2 ;;
esac

mkdir -p prof

# Enumerate the macro benchmarks, then run each in isolation.
mapfile -t benches < <(go test -run '^$' -list 'Primitive' . | grep '^Benchmark' || true)
if [[ ${#benches[@]} -eq 0 ]]; then
  echo "profile.sh: no Primitive benchmarks found" >&2
  exit 1
fi

ran=0
for bench in "${benches[@]}"; do
  if [[ -n "${PATTERN}" && "${bench}" != *"${PATTERN}"* ]]; then
    continue
  fi
  name="${bench#Benchmark}"
  echo "profiling ${bench} -> prof/${name}.{cpu.pprof,trace.out}" >&2
  go test -run '^$' ${TIER_FLAGS[@]+"${TIER_FLAGS[@]}"} -bench="^${bench}\$" \
    -benchtime="${BENCHTIME}" \
    -cpuprofile "prof/${name}.cpu.pprof" \
    -trace "prof/${name}.trace.out" \
    -o prof/repro.test . >&2
  ran=$((ran + 1))
done

if [[ ${ran} -eq 0 ]]; then
  echo "profile.sh: no benchmark matched \"${PATTERN}\"" >&2
  exit 1
fi
echo "profiled ${ran} benchmark(s); inspect with:" >&2
echo "  go tool pprof -http=:8080 prof/repro.test prof/<name>.cpu.pprof" >&2
echo "  go tool trace prof/<name>.trace.out" >&2
