#!/usr/bin/env bash
# One-shot gate driver: runs the four verification lanes (default, asan,
# tsan, lint — see docs/ANALYSIS.md) plus the obs smoke lanes
# (bench gate + live distributed-obs probe, docs/OBSERVABILITY.md) and the
# benchmark smoke lane (perfbench/), and exits non-zero if any fails.
# Usage: scripts/check.sh [-j N]
set -u

jobs=$(nproc)
while getopts "j:" opt; do
  case "$opt" in
    j) jobs="$OPTARG" ;;
    *) echo "usage: $0 [-j N]" >&2; exit 2 ;;
  esac
done

cd "$(dirname "$0")/.."
failed=()

run() {
  local name="$1"
  shift
  echo "==> [$name] $*"
  if ! "$@"; then
    echo "==> [$name] FAILED"
    failed+=("$name")
    return 1
  fi
}

lane() {
  # lane <name> <preset> <test-args...>: configure + build + test; a
  # failing step skips the rest of the lane but later lanes still run.
  local name="$1" preset="$2"
  shift 2
  run "$name-configure" cmake --preset "$preset" &&
    run "$name-build" cmake --build --preset "$preset" -j "$jobs" &&
    run "$name-test" ctest --test-dir "build-$preset" --output-on-failure "$@"
}

# Lane 1: default build, full test suite.
run default-configure cmake -B build -S . &&
  run default-build cmake --build build -j "$jobs" &&
  run default-test ctest --test-dir build --output-on-failure

# Lane 1b: obs smoke — bench_service's built-in gate fails on modeled
# metrics overhead > 2% or any empty hot-path histogram.
run obs-smoke ./build/bench_service --quick

# Lane 1c: distributed-obs smoke — a live server, a plain client session,
# a traced probe session, and the operator console. Asserts the probe's
# merged client+server timeline (>= 90% coverage gate inside setrec_stat)
# and non-empty windowed-rate lines in the v2 exposition.
distributed_obs() {
  local log port addr server probe stat rc
  log=$(mktemp)
  # --serve higher than the sessions we run: the server must stay up to
  # answer the probe's TRACE? and the console's STAT?; we kill it after.
  ./build/example_sync_server --listen=tcp:0 --serve=8 --stats-every=1 \
    >"$log" 2>&1 &
  server=$!
  port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/^listening on tcp port \([0-9]*\).*/\1/p' "$log")
    [ -n "$port" ] && break
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "distributed-obs: server never reported a port:"
    cat "$log"
    kill "$server" 2>/dev/null
    wait "$server" 2>/dev/null
    rm -f "$log"
    return 1
  fi
  addr="tcp:127.0.0.1:$port"
  rc=0
  if ! ./build/example_sync_client --connect="$addr"; then
    echo "distributed-obs: client session failed"
    rc=1
  fi
  probe=$(./build/setrec_stat --connect="$addr" --probe 2>&1)
  if [ $? -ne 0 ] || ! echo "$probe" | grep -q "^merged trace id="; then
    echo "distributed-obs: traced probe failed:"
    echo "$probe"
    rc=1
  fi
  stat=$(./build/setrec_stat --connect="$addr" --once 2>&1)
  if [ $? -ne 0 ] \
      || ! echo "$stat" | grep -q "^# setrec-metrics v2" \
      || ! echo "$stat" | grep -Eq "^rate setrec_sessions_per_sec\{\} [0-9]"; then
    echo "distributed-obs: STAT? exposition missing v2 header or rates:"
    echo "$stat"
    rc=1
  fi
  kill "$server" 2>/dev/null
  wait "$server" 2>/dev/null
  rm -f "$log"
  [ "$rc" -eq 0 ] && echo "distributed-obs: probe merged, rates live"
  return "$rc"
}
run distributed-obs distributed_obs

# Lane 1d: net-scale smoke — the server end of 2k concurrent connections
# (client swarm in a forked child; see bench_service.cc), each pre-hello
# one holding an armed handshake deadline, must finish its measured
# sessions with zero failures/protocol errors/handshake timeouts and a
# bounded p99.
run net-scale ./build/bench_service --net-scale=2000

# Lane 1e: benchmark smoke — perfbench/run.py builds the benchmark from this
# tree's src/ (so a src/ change that breaks the benchmark's build fails
# here) and runs every workload briefly, untraced and traced. Each run's
# last line must report "correct": true, and a run against corrupted
# expectations must report "correct": false (the check can fire).
bench_run() {
  # bench_run <true|false> <run.py args...>
  local expect="$1" err last
  shift
  err=$(mktemp)
  last=$(python3 perfbench/run.py "$@" 2>"$err" | tail -n 1)
  if ! echo "$last" | grep -q "\"correct\": $expect"; then
    echo "bench-smoke: '$*' did not report \"correct\": $expect:"
    tail -n 40 "$err"
    echo "$last"
    rm -f "$err"
    return 1
  fi
  rm -f "$err"
}
bench_smoke() {
  local w t rc=0
  for w in service-mixed net-unix bulk-ssru; do
    for t in 0 1; do
      bench_run true --workload "$w" --seed 1 --seconds 1 --trace "$t" || rc=1
    done
  done
  bench_run false --workload net-unix --seed 1 --seconds 1 --trace 0 \
    --corrupt-expected || rc=1
  [ "$rc" -eq 0 ] && echo "bench-smoke: every workload correct; corruption caught"
  return "$rc"
}
run bench-smoke bench_smoke

# Lane 2: ASan+UBSan over the lifetime-sensitive suites.
lane asan asan -L 'fast|service|net'

# Lane 3: TSan over the threaded suites.
lane tsan tsan -L 'mt|service|net'

# Lane 4: hardened warnings as errors (whole tree) + setrec_lint.
lane lint lint -L lint

echo
if [ "${#failed[@]}" -ne 0 ]; then
  echo "CHECK FAILED: ${failed[*]}"
  exit 1
fi
echo "CHECK OK: default, obs-smoke, distributed-obs, net-scale, bench-smoke, asan, tsan, lint all green"
