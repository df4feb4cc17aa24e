#!/usr/bin/env bash
# CI entry point: build + test the default (Release) tree, the
# ASan+UBSan tree (COLIBRI_SANITIZE=ON), and the TSan tree
# (COLIBRI_SANITIZE=thread). Any failing step fails the run.
#
# After each functional preset's full suite, the data-plane parity gate
# re-runs by name: the wire-fuzz corpus replay (tests/fuzz) plus the
# differential suites that run the pipeline against the per-packet
# reference router and gateway in tests/support (the oracle). These are
# the tests that prove the one pipeline and its sharded layer are
# observationally identical to the reference, so they get their own
# visible (and grep-able) CI step — under the asan preset this is the
# required "differential under ASan+UBSan" run.
#
# The tsan preset is a race lane, not a functional lane: it runs the
# concurrency-shaped suites (the telemetry stress test, the sharded
# runtime drain/health tests, the SPSC ring, concurrent counters) under
# ThreadSanitizer instead of repeating the whole functional suite.
#
# Every functional preset (and the tsan race lane) then re-runs the
# chaos lane by label: the fault-injection, link-failover, and WAL
# crash-recovery suites carry the `chaos` ctest label (tests/CMakeLists)
# so the deterministic-adversity proof is a visible CI step of its own.
#
# The default preset also runs the repository benchmark's data-plane
# workload for a few seconds and fails unless it reports a correct run:
# forged packets dropped at the predicted hop, replays dropped, valid
# packets delivered, all through the one router and gateway pipeline.
#
# Every preset (tsan included) replays the JSON reader fuzz corpus
# right after its build: the telemetry exports' one strict reader.
#
# The default preset additionally smoke-tests the colibri_obs tool end
# to end: run the demo scenario, dump every artifact, export a Perfetto
# trace, query the sharded-runtime health surface, drive the failover
# scenario through the watch dashboard, and run the fleet-federation
# scenario through both the fleet table and the watch fleet line. Every
# JSON artifact it writes is also parsed with Python's json module.
#
# The opt-in bench-gate lane (not part of the default preset list —
# benchmark numbers are machine-sensitive, so it only runs when asked
# for) builds the Release tree, runs every benchmark that has a
# committed baseline under bench/baselines/, and fails the run if
# throughput or latency percentiles regressed beyond the tolerance
# (BENCH_TOLERANCE, default from scripts/check_bench.py).
#
#   scripts/ci.sh              # all three presets
#   scripts/ci.sh default      # just one
#   scripts/ci.sh bench-gate   # benchmark regression gate only
#   JOBS=4 scripts/ci.sh       # limit build parallelism
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
PRESETS=("$@")
[ ${#PRESETS[@]} -gt 0 ] || PRESETS=(default asan tsan)

# The gate's own self-test runs before anything it might gate: a broken
# gate must fail the run, not wave regressions through.
echo "=== check_bench self-test"
python3 scripts/check_bench.py --self-test

TSAN_SUITES='TelemetryStressTest|ShardedRuntimeTest|SpscRingTest'
TSAN_SUITES+='|CounterTest.ConcurrentIncrementsFromManyThreads'
TSAN_SUITES+='|ControlPlaneStressTest'
TSAN_SUITES+='|ControlPlaneStressTest.SweepRacesBatchedRenewalDrain'
TSAN_SUITES+='|ControlPlaneStressTest.ParallelDrainWorkersSplitTheShards'
TSAN_SUITES+='|ReservationDbTest.NextResIdIsUniqueAcrossThreads'
TSAN_SUITES+='|SamplerAlertStressTest'
TSAN_SUITES+='|FleetAuditStressTest'
TSAN_SUITES+='|HistoryIncidentStressTest'

for preset in "${PRESETS[@]}"; do
  if [ "$preset" = bench-gate ]; then
    echo "=== [bench-gate] configure + build (default preset)"
    cmake --preset default
    cmake --build --preset default -j "$JOBS"
    BENCH_DIR=$(dirname "$(find build -name bench_cserv_throughput -type f | head -1)")
    echo "=== [bench-gate] run baselined benchmarks"
    for baseline in bench/baselines/BENCH_*.json; do
      bench=$(basename "$baseline" .json)
      bench=${bench#BENCH_}
      (cd "$BENCH_DIR" && "./$bench" > /dev/null)
    done
    echo "=== [bench-gate] compare against bench/baselines"
    python3 scripts/check_bench.py --current "$BENCH_DIR" \
      --report build/bench_gate_report.json \
      ${BENCH_TOLERANCE:+--tolerance "$BENCH_TOLERANCE"}
    continue
  fi
  echo "=== [$preset] configure"
  cmake --preset "$preset"
  echo "=== [$preset] build"
  cmake --build --preset "$preset" -j "$JOBS"
  echo "=== [$preset] JSON reader fuzz corpus replay"
  ctest --preset "$preset" -R '^fuzz_json_corpus_replay$'
  if [ "$preset" = tsan ]; then
    # A deleted or renamed race test must not shrink the gate silently:
    # every alternative has to select at least one test.
    IFS='|' read -ra tsan_alts <<< "$TSAN_SUITES"
    for alt in "${tsan_alts[@]}"; do
      selected=$(ctest --preset "$preset" -N -R "$alt" | sed -n 's/^Total Tests: //p')
      if [ "${selected:-0}" -eq 0 ]; then
        echo "race gate: '$alt' selects no test" >&2
        exit 1
      fi
    done
    echo "=== [$preset] concurrency race gate (telemetry + sharded runtime + control plane)"
    ctest --preset "$preset" -R "$TSAN_SUITES"
    echo "=== [$preset] chaos lane (fault injection, failover, WAL recovery)"
    ctest --preset "$preset" -L chaos
    continue
  fi
  echo "=== [$preset] test"
  ctest --preset "$preset"
  echo "=== [$preset] data-plane parity gate (fuzz corpus + differential)"
  ctest --preset "$preset" \
    -R 'fuzz_corpus_replay|RouterDifferential|GatewayDifferential|WireRouterTest|ShardedGatewayTest|CmacMultiTest|BatchedFlightRecorderTest'
  echo "=== [$preset] chaos lane (fault injection, failover, WAL recovery)"
  ctest --preset "$preset" -L chaos
  if [ "$preset" = default ]; then
    echo "=== [default] end-to-end data-plane check (perfbench dp_attack_long_path)"
    result=$(python3 perfbench/run.py --workload dp_attack_long_path --seed 1 \
      --seconds 3 --trace 0 | tail -1)
    echo "$result"
    echo "$result" | grep -q '"correct": true'
  fi
done

for preset in "${PRESETS[@]}"; do
  if [ "$preset" = default ]; then
    echo "=== [default] colibri_obs smoke (scenario, dumps, trace, health)"
    OBS=build/src/colibri_obs
    [ -x "$OBS" ] || OBS=$(find build -name colibri_obs -type f | head -1)
    "$OBS" > /dev/null
    "$OBS" --dump=openmetrics | grep -q '^# EOF$'
    # sed reads the whole dump; head would close the pipe early and
    # kill the writer with SIGPIPE under pipefail.
    "$OBS" --dump=events | sed -n 1p | grep -q '"name"'
    # Every JSON artifact must parse with an independent parser: whole
    # documents (metrics snapshot, Perfetto trace, incident bundles) and
    # one document per line (event and flight-record streams).
    json_docs='import json,sys; [json.load(open(p)) for p in sys.argv[1:]]'
    json_lines='import json,sys; ls=sys.stdin.read().splitlines(); assert ls; [json.loads(l) for l in ls]'
    "$OBS" --dump=metrics | python3 -c 'import json,sys; json.load(sys.stdin)'
    "$OBS" --dump=events | python3 -c "$json_lines"
    "$OBS" --dump=records | python3 -c "$json_lines"
    "$OBS" --query=router.forwarded > /dev/null
    trace_out=$(mktemp /tmp/colibri_trace.XXXXXX.json)
    "$OBS" trace --perfetto "$trace_out" | grep -q 'trace events'
    grep -q '"traceEvents"' "$trace_out"
    python3 -c "$json_docs" "$trace_out"
    rm -f "$trace_out"
    "$OBS" health | grep -q 'stall detector'
    "$OBS" watch --once | grep -q 'alerts:'
    echo "=== [default] colibri_obs failover-scenario smoke"
    "$OBS" watch --once --scenario=failover | grep -q 'failover:'
    echo "=== [default] colibri_obs fleet-federation smoke"
    "$OBS" fleet --once | grep -q 'audit: PASS'
    "$OBS" watch --once --scenario=fleet | grep -q 'fleet:'
    echo "=== [default] colibri_obs forensics smoke (history round-trip + incident)"
    forensics_dir=$(mktemp -d /tmp/colibri_forensics.XXXXXX)
    "$OBS" watch --once --scenario=failover --forensics-dir="$forensics_dir" \
      > /dev/null
    # Same seed, same trail: a second run writes byte-identical history
    # segments and incident bundles (wall-clock series are filtered out).
    forensics_twin=$(mktemp -d /tmp/colibri_forensics.XXXXXX)
    "$OBS" watch --once --scenario=failover --forensics-dir="$forensics_twin" \
      > /dev/null
    (cd "$forensics_dir" && find history incidents -type f | sort) \
      > "$forensics_twin/files.a"
    (cd "$forensics_twin" && find history incidents -type f | sort) \
      > "$forensics_twin/files.b"
    cmp "$forensics_twin/files.a" "$forensics_twin/files.b"
    [ -s "$forensics_twin/files.a" ]
    while read -r f; do
      cmp "$forensics_dir/$f" "$forensics_twin/$f"
    done < "$forensics_twin/files.a"
    rm -rf "$forensics_twin"
    # Write → reopen → query: the offline CLI opens the store the
    # scenario just wrote and must recover every frame cleanly.
    "$OBS" incident list --dir="$forensics_dir" \
      | grep -q 'cserv.failover-active'
    "$OBS" incident show --dir="$forensics_dir" \
      | grep -q '"schema": "colibri.incident.v1"'
    python3 -c "$json_docs" "$forensics_dir"/incidents/incident-*.json
    # The half-open span contract through the on-disk store: the
    # failover timeline cuts 1 s windows from SimClock 1000 s, and a
    # window boundary T splits the whole-store count into [.., T) plus
    # [T, ..) with nothing counted twice or lost.
    forwarded() {
      "$OBS" history query --series=gateway.forwarded \
        --dir="$forensics_dir" "$@" 2> /dev/null | sed -n 's/^counter .* = //p'
    }
    whole=$(forwarded)
    before=$(forwarded --until=1006s)
    after=$(forwarded --since=1006s)
    echo "history gateway.forwarded: $whole = $before (< 1006 s) + $after"
    [ "$before" -gt 0 ]
    [ "$after" -gt 0 ]
    [ "$whole" -eq $((before + after)) ]
    "$OBS" history rate --series=router.forwarded --dir="$forensics_dir" \
      > /dev/null
    "$OBS" history p99 --series=cserv.failover.latency_ns \
      --dir="$forensics_dir" > /dev/null
    rm -rf "$forensics_dir"
  fi
done

echo "=== all presets green: ${PRESETS[*]}"
