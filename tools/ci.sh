#!/usr/bin/env bash
# Tier-1 verification, a trace-output smoke test, a stream-delivery smoke
# test (served pipeline/insitu -> viewer decode -> byte-exact check, plus
# the strict CLI parsing contract), a server churn-chaos stage run under two
# seeds, an SLO gate (serve and served-pipeline runs under two seeds must
# produce passing e2e-latency verdicts and flight-recorder dumps the
# validator accepts), a ThreadSanitizer pass over the message-passing
# runtime and the parallel renderer, a determinism/fuzz stage run under two
# seeds, the same fuzz walls plus the pipeline, record-file, mesh location
# and dense-table (block node lists, render-block remap, view plans) suites
# under AddressSanitizer + UBSan, and the benchmark gate.
# Usage: tools/ci.sh [--tier1-only|--trace-only|--stream-only|
#                     --server-chaos-only|slo-gate|--steer-smoke-only|
#                     --tsan-only|--determinism-only|--asan-only|
#                     --bench-gate-only]
#        tools/ci.sh --bench-update    # re-baseline BENCH_*.json
# BENCH_THRESHOLD (default 0.15) sets the gate's relative regression bound.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
MODE=${1:-all}

tier1() {
  echo "== tier 1: build + full test suite =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"
  ctest --test-dir build --output-on-failure -j 4 --timeout 300
}

trace_smoke() {
  echo "== trace: pipeline run with --trace produces a loadable event file =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target quakeviz
  local work
  work=$(mktemp -d)
  trap 'rm -rf "$work"' RETURN
  ./build/tools/quakeviz generate --out="$work/ds" --mode=synthetic \
      --steps=3 --max-level=3 >/dev/null
  ./build/tools/quakeviz pipeline --dataset="$work/ds" --inputs=2 \
      --renderers=2 --width=96 --height=72 --vmax=3 \
      --trace="$work/trace.json" --metrics-json="$work/run.json"
  if command -v python3 >/dev/null; then
    python3 - "$work/trace.json" "$work/run.json" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))
assert isinstance(events, list) and events, "trace must be a non-empty array"
cats = {e.get("cat") for e in events}
names = {e.get("name") for e in events}
for cat in ("pipeline", "setup", "io", "render", "compositing"):
    assert cat in cats, f"missing category {cat!r} (have {sorted(c for c in cats if c)})"
for name in ("fetch", "send_blocks", "wait_blocks", "render", "composite",
             "frame", "input_plan", "render_blocks", "thread_name"):
    assert name in names, f"missing span {name!r}"
assert any(e.get("ph") == "M" for e in events), "missing thread metadata"
print(f"trace smoke: {len(events)} events, categories {sorted(c for c in cats if c)}")
r = json.load(open(sys.argv[2]))
assert r.get("schema") == "qv-run-report" and r.get("version") == 2, "bad schema"
assert r.get("kind") == "pipeline"
tracked = {m["name"] for m in r["tracked"]}
assert "interframe_s" in tracked, f"tracked = {sorted(tracked)}"
assert "span.pipeline.render" in r["histograms"], "span feed missing"
assert r["counters"].get("render.rays", 0) > 0, "render counters missing"
# One pair of clock reads per stage: each stage counter is exactly its
# spans' summed durations (the export is ns-exact).
for stage in ("fetch", "preprocess", "send_blocks", "render", "composite"):
    total = sum(round(e["dur"] * 1000) for e in events if e.get("ph") == "X"
                and e.get("cat") == "pipeline" and e.get("name") == stage)
    ctr = f"pipeline.{stage.replace('_blocks', '')}_ns"
    assert r["counters"].get(ctr) == total > 0, (ctr, r["counters"].get(ctr), total)
print(f"metrics smoke: {len(r['counters'])} counters, "
      f"{len(r['histograms'])} histograms, stage counters equal the spans")
EOF
  else
    echo "trace smoke: python3 unavailable, skipped JSON validation"
  fi
}

stream_smoke() {
  echo "== stream: served pipeline and insitu deliver frames the viewer decodes byte-exactly =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target quakeviz
  local work f driver
  work=$(mktemp -d)
  trap 'rm -rf "$work"' RETURN
  ./build/tools/quakeviz generate --out="$work/ds" --mode=synthetic \
      --steps=4 --max-level=3 >/dev/null
  # A point-to-point stream is a one-client fleet; client 0's delivered
  # frames are recorded for the offline viewer.
  local serve=(--serve-clients=1 --serve-bandwidth-hi=100000000)
  ./build/tools/quakeviz pipeline --dataset="$work/ds" \
      --out="$work/pipeline/frames" \
      --inputs=2 --renderers=2 --width=96 --height=72 --vmax=3 \
      "${serve[@]}" --serve-record="$work/pipeline/rec.bin" \
      --metrics-json="$work/pipeline/run.json"
  ./build/tools/quakeviz insitu --out="$work/insitu/frames" --snapshots=4 \
      --renderers=2 --width=96 --height=72 \
      "${serve[@]}" --serve-record="$work/insitu/rec.bin" \
      --metrics-json="$work/insitu/run.json"
  for driver in pipeline insitu; do
    ./build/tools/quakeviz view --in="$work/$driver/rec.bin" \
        --out="$work/$driver/viewed"
    for f in "$work/$driver"/frames/frame_*.ppm; do
      cmp "$f" "$work/$driver/viewed/$(basename "$f")" \
          || { echo "stream smoke: viewer frame differs: $f" >&2; return 1; }
    done
    echo "stream smoke: $driver: all $(ls "$work/$driver"/frames/frame_*.ppm | wc -l) frames byte-identical"
  done
  if command -v python3 >/dev/null; then
    python3 - "$work/pipeline/run.json" "$work/insitu/run.json" <<'EOF'
import json, sys
for path in sys.argv[1:]:
    r = json.load(open(path))
    c = r["counters"]
    h = r["histograms"]
    tracked = {m["name"] for m in r["tracked"]}
    assert "interframe_s" in tracked, f"{r['kind']}: tracked = {sorted(tracked)}"
    client = r["e2e"]["clients"][0]
    assert client["frames"] == 4, client
    assert c.get("stream.server.dropped_frames", -1) == 0, c
    assert c.get("stream.server.decode_failures", -1) == 0, c
    assert c.get("stream.server.bytes_out", 0) > 0, c
    assert "stream.server.queue_bytes" in h, "queue histogram missing"
    assert "stream.e2e.encode" in h, "encode-stage histogram missing"
    assert h.get("stream.server.latency", {}).get("count") == 4, \
        "delivery latency histogram missing"
    assert client["p95_s"] > 0, client
    print(f"stream smoke: {r['kind']} run-report counters and histograms present")
EOF
  else
    echo "stream smoke: python3 unavailable, skipped run-report validation"
  fi
  # The strict-parsing contract: a malformed or out-of-range flag exits 2
  # and names the flag; it is never read as zero or run silently wrong.
  # Every case is otherwise a run that succeeds, so only the flag can fail.
  local pipe=(./build/tools/quakeviz pipeline --dataset="$work/ds" --inputs=2
              --renderers=2 --width=96 --height=72 --vmax=3)
  local serve_run=(./build/tools/quakeviz serve --steps=10)
  local render=(./build/tools/quakeviz render --dataset="$work/ds"
                --out="$work/one.ppm" --width=96 --height=72 --vmax=3)
  local insitu=(./build/tools/quakeviz insitu --snapshots=2 --renderers=2
                --width=96 --height=72)
  local gen=(./build/tools/quakeviz generate --out="$work/gen" --mode=synthetic
             --steps=2 --max-level=3)
  must_reject render-threads "${pipe[@]}" --render-threads=abc
  must_reject render-threads "${pipe[@]}" --render-threads=0
  must_reject render-threads "${insitu[@]}" --render-threads=0
  must_reject render-threads "${serve_run[@]}" --steer --render-threads=0
  must_reject renderers "${pipe[@]}" --renderers=0
  must_reject renderers "${insitu[@]}" --renderers=0
  must_reject inputs "${pipe[@]}" --inputs=0
  must_reject snapshots "${insitu[@]}" --snapshots=0
  must_reject width "${render[@]}" --width=0
  must_reject height "${render[@]}" --height=-1
  must_reject width "${pipe[@]}" --width=0
  must_reject height "${pipe[@]}" --height=-1
  must_reject width "${insitu[@]}" --width=0
  must_reject height "${insitu[@]}" --height=-1
  must_reject width "${serve_run[@]}" --width=0
  must_reject height "${serve_run[@]}" --height=-1
  must_reject width "${serve_run[@]}" --steer --width=0
  must_reject height "${serve_run[@]}" --steer --height=-1
  must_reject serve-budget "${pipe[@]}" --serve-budget=1e30
  must_reject serve-budget "${pipe[@]}" --serve-budget=-1
  must_reject serve-clients "${pipe[@]}" --serve-clients=0
  must_reject serve-clients "${pipe[@]}" --serve-clients=-3
  must_reject serve-evict-timeout "${pipe[@]}" --serve-evict-timeout=-1
  must_reject serve-latency-ms "${pipe[@]}" --serve-latency-ms=-50
  must_reject budget "${serve_run[@]}" --budget=1e30
  must_reject budget "${serve_run[@]}" --budget=-1
  must_reject clients "${serve_run[@]}" --clients=0
  must_reject clients "${serve_run[@]}" --clients=-2
  must_reject clients "${serve_run[@]}" --steer --clients=0
  must_reject steps "${pipe[@]}" --steps=0
  must_reject steps "${serve_run[@]}" --steps=0
  must_reject steps "${serve_run[@]}" --steer --steps=-3
  must_reject steer-edits "${serve_run[@]}" --steer --steer-edits=-2
  must_reject steps "${gen[@]}" --steps=0
  must_reject max-level "${gen[@]}" --max-level=1
  must_reject freq "${gen[@]}" --freq=0
  must_reject interval "${gen[@]}" --interval=-1
  echo "stream smoke: malformed and out-of-range flags rejected by name"
}

# must_reject FLAG CMD...: CMD must exit 2 and name --FLAG on stderr.
must_reject() {
  local flag=$1 rc=0 err
  shift
  err=$("$@" 2>&1 >/dev/null) || rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q -- "--$flag" <<<"$err"; then
    echo "stream smoke: '${*: -1}' exited $rc without naming --$flag" >&2
    return 1
  fi
}

server_chaos() {
  echo "== server chaos: delivery-server churn invariants under two seeds =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target test_server test_server_chaos quakeviz
  local seed
  for seed in 1 2; do
    echo "-- QV_FUZZ_SEED=$seed --"
    QV_FUZZ_SEED=$seed ./build/tests/test_server
    QV_FUZZ_SEED=$seed ./build/tests/test_server_chaos
  done
  # The CLI entry point exercises the same harness end to end, non-zero on
  # any invariant violation.
  ./build/tools/quakeviz serve --chaos --clients=6 --steps=40 --seed=11 \
      >/dev/null
  echo "server chaos: invariants held under both seeds + CLI run"
}

steer_smoke() {
  echo "== steer smoke: scripted steering through the CLI, two seeds =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target quakeviz
  local work seed
  work=$(mktemp -d)
  trap 'rm -rf "$work"' RETURN
  for seed in 1 2; do
    echo "-- --steer-seed=$seed --"
    # Scripted steered serve: non-zero exit on any stale/fresh invariant
    # violation (epoch echo, pixel SHA, delta-across-epoch, post-edit
    # keyframe). Late joiners included.
    ./build/tools/quakeviz serve --steer --steer-seed="$seed" \
        --steer-edits=5 --steer-late-join=6 --clients=5 --steps=16 \
        >"$work/steer_$seed.txt"
    grep -q 'all invariants held' "$work/steer_$seed.txt" \
        || { echo "steer smoke: invariants line missing at seed $seed" >&2
             return 1; }
    # Live mode with in-flight cancellation through the same entry point.
    ./build/tools/quakeviz serve --steer --steer-live --steer-seed="$seed" \
        --clients=3 --steps=10 >/dev/null
  done
  # A steering trace file round-trips: edits land at their scripted steps.
  cat >"$work/trace.txt" <<'EOF'
# steering trace smoke
2 camera 135
4 transfer 0.1 0.8
6 scrub 3
EOF
  ./build/tools/quakeviz serve --steer --steer-trace="$work/trace.txt" \
      --clients=2 --steps=10 >/dev/null
  # Steering a pipeline run: every rank folds the same trace; exclusive
  # with --rebalance (single epoch owner), which must be rejected.
  ./build/tools/quakeviz generate --out="$work/ds" --mode=synthetic \
      --steps=6 --max-level=3 >/dev/null
  ./build/tools/quakeviz pipeline --dataset="$work/ds" --inputs=2 \
      --renderers=2 --width=96 --height=72 --vmax=3 \
      --steer --steer-edits=3 >/dev/null
  if ./build/tools/quakeviz pipeline --dataset="$work/ds" --inputs=2 \
      --renderers=2 --width=96 --height=72 --vmax=3 \
      --steer --rebalance=2 >/dev/null 2>&1; then
    echo "steer smoke: --steer --rebalance combination was not rejected" >&2
    return 1
  fi
  echo "steer smoke: invariants held under both seeds; trace + pipeline paths OK"
}

tsan() {
  echo "== tsan: vmpi runtime + fault layer + tracing + renderer under ThreadSanitizer =="
  cmake -B build-tsan -S . -DQV_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-tsan -j "$JOBS" --target test_vmpi test_pipeline test_trace test_metrics \
      test_util test_render test_stream test_server test_lineage test_compositing \
      test_control test_steer
  # TSAN_OPTIONS halt_on_error makes a data-race report a hard failure.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_vmpi
  # In situ runs the pipeline's render role, fed by the solver root: its
  # receive loop and NACK path (the corruption wall), the threaded render
  # pool and the SLIC exchange.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_pipeline \
      --gtest_filter='FaultPipelineTest.*:Insitu.*'
  # TraceOverlapTest is a timing experiment (deliberate I/O delays); the
  # mechanics it relies on are covered by the remaining trace tests.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_trace \
      --gtest_filter='-TraceOverlapTest.*'
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_metrics
  # The work-stealing pool and the threaded == serial determinism contract,
  # with the race detector watching the stealing schedule.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_util \
      --gtest_filter='ThreadPool.*'
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_render \
      --gtest_filter='RenderDeterminism.*:GoldenImage.*'
  # The full streamed pipeline: render threads feeding the output rank's
  # encoder/link/viewer loop, with the race detector watching the handoff.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_stream
  # The delivery server and its shared encoder bank under the race detector.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_server
  # The lineage flight recorder, hammered from every rank thread at once
  # and dumped from a fault observer while peers still record.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_lineage
  # The compositing exchange (threads-as-ranks) with the race detector
  # watching every send/recv handoff: radix-k's rounds, and SLIC and
  # direct-send, which share its send and receive code. Small rank counts
  # keep TSan tractable.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_compositing \
      --gtest_filter='Small/RadixKEquivalence.*:RadixKEdge.*:ActivePixel*:RankCounts/ScatterComposite.*'
  # The steering inbox (posted from a monitor thread while the render loop
  # drains) and the cancellation stress: cancels fired mid-render into the
  # worker pool at thread counts {1,2,4,7}.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_control
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_steer \
      --gtest_filter='SteerCancellation.*'
}

slo_gate() {
  echo "== slo gate: e2e SLO verdicts + flight-recorder dumps, two seeds =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target quakeviz bench_report
  local work seed
  work=$(mktemp -d)
  trap 'rm -rf "$work"' RETURN
  ./build/tools/quakeviz generate --out="$work/ds" --mode=synthetic \
      --steps=6 --max-level=3 >/dev/null
  for seed in 1 2; do
    echo "-- --seed=$seed --"
    # A healthy (non-chaos) serve fleet must meet the delivery SLO, and its
    # lineage dump must round-trip through the validator.
    ./build/tools/quakeviz serve --clients=6 --steps=40 --seed="$seed" \
        --metrics-json="$work/serve_$seed.json" \
        --lineage="$work/serve_$seed.lineage.json" \
        --slo-p95=30 --slo-drop=0.1 >/dev/null
    ./build/tools/bench_report slo "$work/serve_$seed.json"
    ./build/tools/bench_report validate-lineage "$work/serve_$seed.lineage.json"
    # A served pipeline under the same gate: its dump adds the wall-clock
    # render, composite and frame events of the render and output ranks.
    ./build/tools/quakeviz pipeline --dataset="$work/ds" --inputs=2 \
        --renderers=2 --width=96 --height=72 --vmax=3 --serve-clients=4 \
        --serve-outage-seed="$seed" \
        --metrics-json="$work/pipeline_$seed.json" \
        --lineage="$work/pipeline_$seed.lineage.json" \
        --slo-p95=30 --slo-drop=0.1 >/dev/null
    ./build/tools/bench_report slo "$work/pipeline_$seed.json"
    ./build/tools/bench_report validate-lineage \
        "$work/pipeline_$seed.lineage.json"
  done
  echo "slo gate: verdicts PASS and flight-recorder dumps valid under both seeds"
}

# The seeded property and fuzz walls, run from build directory $1 under
# QV_FUZZ_SEED=1 and 2: the determinism stage runs them on the tier-1 build,
# the asan stage on the sanitizer build.
FUZZ_TARGETS=(test_render test_vmpi test_io test_stream test_server test_compositing test_control test_steer)
fuzz_walls() {
  local dir=$1 seed
  for seed in 1 2; do
    echo "-- QV_FUZZ_SEED=$seed --"
    QV_FUZZ_SEED=$seed "$dir"/tests/test_render \
        --gtest_filter='RenderDeterminism.*:GoldenImage.*'
    QV_FUZZ_SEED=$seed "$dir"/tests/test_vmpi --gtest_filter='CollectivesFuzz.*'
    QV_FUZZ_SEED=$seed "$dir"/tests/test_io --gtest_filter='Rle8Fuzz.*'
    QV_FUZZ_SEED=$seed "$dir"/tests/test_stream --gtest_filter='FrameCodecFuzz.*'
    QV_FUZZ_SEED=$seed "$dir"/tests/test_server --gtest_filter='ControlCodecFuzz.*'
    # The QVCT steering codec wall + the stale/fresh property wall.
    QV_FUZZ_SEED=$seed "$dir"/tests/test_control --gtest_filter='SteerCodecFuzz.*'
    QV_FUZZ_SEED=$seed "$dir"/tests/test_steer --gtest_filter='SteerPropertyWall.*'
    # The bit-exact compositing wall, the QVPS corrupt-input fuzzers and
    # the traffic-accounting check.
    QV_FUZZ_SEED=$seed "$dir"/tests/test_compositing \
        --gtest_filter='*RadixK*:RadixPlan*:ActivePixel*:*TrafficAccounting*'
  done
}

determinism() {
  echo "== determinism/fuzz: seeded property suites under two seeds =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS" --target "${FUZZ_TARGETS[@]}" test_util
  fuzz_walls build
  ./build/tests/test_util --gtest_filter='ThreadPool.*:Sha256.*'
}

asan() {
  echo "== asan: fuzz walls + pipeline, mesh and dense-table suites under AddressSanitizer + UBSan =="
  cmake -B build-asan -S . -DQV_SANITIZE=address,undefined \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-asan -j "$JOBS" --target "${FUZZ_TARGETS[@]}" \
      test_pipeline test_mesh
  # halt_on_error turns the first out-of-bounds access or undefined
  # behaviour into a hard failure, not a log line.
  local -x ASAN_OPTIONS=halt_on_error=1
  local -x UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
  fuzz_walls build-asan
  # The input -> render block messages end to end (every I/O strategy, the
  # NACK regenerators under payload corruption, and in situ, which runs the
  # pipeline's receive loop and answers NACKs from the solver root) and the
  # render -> output frame message.
  ./build-asan/tests/test_pipeline \
      --gtest_filter='BlockMsg.*:FrameMsg.*:PipelineTest.*:FaultPipelineTest.*:Insitu.*'
  # The --serve-record file reader on truncated and corrupt captures.
  ./build-asan/tests/test_stream --gtest_filter='StreamRecordTest.*'
  # Key order and point location: leaf_holds reads the leaf after the one
  # it tests, up to the last leaf of the tree.
  ./build-asan/tests/test_mesh --gtest_filter='OctKey.*:LinearOctree.*:HexMesh.*'
  # The linear set-up builds index dense tables by node id or range index:
  # the block node lists' stamps, the merge bitmap, the 2DIP positions and
  # the forward maps, the render blocks' remap table (with its clean-up
  # after a throw), and the collective reads' view plans.
  ./build-asan/tests/test_io \
      --gtest_filter='BlockNodeIndex.*:MergedNodes.*:ForwardMap.*'
  ./build-asan/tests/test_render --gtest_filter='RenderBlock.*'
  ./build-asan/tests/test_vmpi --gtest_filter='File.*'
}

# The tracked benches and where their committed baselines live.
BENCH_NAMES=(pipeline io compositing stream server steering)
bench_binary() {
  case "$1" in
    pipeline) echo bench_pipeline_small ;;
    io) echo bench_io_readers ;;
    compositing) echo bench_compositing ;;
    stream) echo bench_stream ;;
    server) echo bench_server ;;
    steering) echo bench_steering ;;
  esac
}

bench_build() {
  cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build-bench -j "$JOBS" \
      --target bench_pipeline_small bench_io_readers bench_compositing bench_stream bench_server bench_steering bench_report
}

bench_gate() {
  echo "== bench gate: tracked benches vs committed BENCH_*.json baselines =="
  bench_build
  # The gate logic itself must be sound before we trust its verdicts.
  ./build-bench/tools/bench_report selftest
  local work threshold rc name bin
  work=$(mktemp -d)
  trap 'rm -rf "$work"' RETURN
  threshold=${BENCH_THRESHOLD:-0.15}
  rc=0
  for name in "${BENCH_NAMES[@]}"; do
    bin=$(bench_binary "$name")
    if [ ! -f "BENCH_${name}.json" ]; then
      echo "bench gate: missing baseline BENCH_${name}.json" \
           "(run tools/ci.sh --bench-update)" >&2
      rc=1
      continue
    fi
    echo "-- $bin --"
    "./build-bench/bench/$bin" --json="$work/$name.json" >/dev/null
    ./build-bench/tools/bench_report compare \
        --baseline="BENCH_${name}.json" --current="$work/$name.json" \
        --threshold="$threshold" || rc=1
  done
  return "$rc"
}

bench_update() {
  echo "== bench gate: regenerating baselines =="
  bench_build
  local name bin
  for name in "${BENCH_NAMES[@]}"; do
    bin=$(bench_binary "$name")
    echo "-- $bin --"
    "./build-bench/bench/$bin" --json="BENCH_${name}.json" >/dev/null
    echo "wrote BENCH_${name}.json"
  done
  echo "bench gate: commit the updated BENCH_*.json deliberately"
}

case "$MODE" in
  --tier1-only) tier1 ;;
  --trace-only) trace_smoke ;;
  --stream-only) stream_smoke ;;
  --server-chaos-only) server_chaos ;;
  slo-gate|--slo-gate-only) slo_gate ;;
  --steer-smoke-only) steer_smoke ;;
  --tsan-only) tsan ;;
  --determinism-only) determinism ;;
  --asan-only) asan ;;
  --bench-gate-only) bench_gate ;;
  --bench-update) bench_update ;;
  all|--all) tier1; trace_smoke; stream_smoke; server_chaos; slo_gate; steer_smoke; determinism; asan; tsan; bench_gate ;;
  *) echo "usage: tools/ci.sh [--tier1-only|--trace-only|--stream-only|--server-chaos-only|slo-gate|--steer-smoke-only|--tsan-only|--determinism-only|--asan-only|--bench-gate-only|--bench-update]" >&2; exit 2 ;;
esac
echo "ci: OK"
