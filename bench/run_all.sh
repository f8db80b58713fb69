#!/usr/bin/env bash
# Regenerate every figure and ablation of the reproduction.
#
#   bench/run_all.sh [build-dir] [out-dir]
#
# Defaults: build directory ./build, output directory ./bench_results.
# The full paper figures use classes W and A; class A needs ~2 GB RAM and a
# few minutes per variant on a laptop-class machine.

set -euo pipefail

BUILD="${1:-build}"
OUT="${2:-bench_results}"
mkdir -p "$OUT"

# Run one bench, teeing its output; a failure is recorded (with its exit
# status) instead of aborting, so one broken bench cannot hide the rest, and
# the script still exits nonzero at the end.
FAILED=()

run() {
  local name="$1"; shift
  echo "== $name =="
  local status=0
  "$@" | tee "$OUT/$name.txt" || status=$?
  if [[ $status -ne 0 ]]; then
    echo "!! $name failed (exit $status)" >&2
    FAILED+=("$name")
  fi
}

run fig11_serial        "$BUILD/bench/fig11_serial" --classes W,A --csv "$OUT/fig11.csv"
run fig12_speedup       "$BUILD/bench/fig12_speedup" --classes W,A --csv "$OUT/fig12.csv" --svg "$OUT/fig12"
run fig13_speedup_vs_f77 "$BUILD/bench/fig13_speedup_vs_f77" --classes W,A --csv "$OUT/fig13.csv" --svg "$OUT/fig13"
run abl_folding         "$BUILD/bench/abl_folding" --classes S,W
run abl_memory          "$BUILD/bench/abl_memory" --classes S
run abl_pool            "$BUILD/bench/abl_pool" --classes S,W --csv "$OUT/abl_pool.csv" --min-reduction 25
run abl_threshold       "$BUILD/bench/abl_threshold"
run abl_levels          "$BUILD/bench/abl_levels" --classes W
run ext_direct          "$BUILD/bench/ext_direct" --classes S,W
run ext_mpi             "$BUILD/bench/ext_mpi" --classes W,A
run ext_classes         "$BUILD/bench/ext_classes"
run ext_rank            "$BUILD/bench/ext_rank"
run abl_graph           "$BUILD/bench/abl_graph"
run abl_stencil         "$BUILD/bench/abl_stencil" --benchmark_min_time=0.2 \
  --benchmark_out="$OUT/abl_stencil.json" --benchmark_out_format=json
run abl_backend         "$BUILD/bench/abl_backend" --benchmark_min_time=0.2 \
  --benchmark_repetitions=5 \
  --benchmark_out="$OUT/abl_backend.json" --benchmark_out_format=json
run abl_specialize      "$BUILD/bench/abl_specialize" --benchmark_min_time=0.2
run micro_sac           "$BUILD/bench/micro_sac" --benchmark_min_time=0.2

# Telemetry artifact: one instrumented class-W run, consolidated into
# BENCH_obs.json.  The consolidator validates the summary against
# bench/obs_schema.json and refuses to emit the file otherwise, so a
# malformed trace/metrics dump fails the bench run instead of producing a
# silently-broken artifact.
run obs_npb_mg "$BUILD/examples/npb_mg" --class W --impl sac --obs \
  --trace-out="$OUT/obs_trace.json" --metrics-out="$OUT/obs_metrics.txt"
run obs_consolidate python3 "$(dirname "$0")/obs_consolidate.py" \
  "$OUT/obs_trace.json" "$OUT/obs_metrics.txt" \
  "$(dirname "$0")/obs_schema.json" "$OUT/BENCH_obs.json" class=W impl=sac

# MG timing artifact: every variant at classes S and W, the SAC variants in
# both the grouped and the shared plane-sum (kPlanes) stencil engines
# (docs/stencil.md) on the scalar row engine, plus a kPlanes run on the simd
# row engine (docs/backends.md).  The consolidator joins these wall times with
# abl_stencil's ns/point ladder and abl_backend's per-primitive breakdown
# into BENCH_mg.json, validates it against bench/mg_schema.json, and gates
# at the class-W-sized grid (n = 66): planes-vs-grouped improvement under
# 20% or a fused-row simd-vs-scalar speedup under 1.5x fails the bench run.
for cls in S W; do
  for mode in grouped planes; do
    run "time_mg_sac_${cls}_${mode}" "$BUILD/examples/npb_mg" \
      --class "$cls" --impl sac --stencil-mode "$mode" --backend scalar
    run "time_mg_direct_${cls}_${mode}" "$BUILD/examples/npb_mg" \
      --class "$cls" --impl direct --stencil-mode "$mode" --backend scalar
  done
  run "time_mg_sac_${cls}_planes_simd" "$BUILD/examples/npb_mg" \
    --class "$cls" --impl sac --stencil-mode planes --backend simd
  run "time_mg_f77_${cls}" "$BUILD/examples/npb_mg" --class "$cls" --impl f77
  run "time_mg_omp_${cls}" "$BUILD/examples/npb_mg" --class "$cls" --impl omp
done
run mg_consolidate python3 "$(dirname "$0")/mg_consolidate.py" \
  "$OUT/abl_stencil.json" "$OUT/abl_backend.json" \
  "$(dirname "$0")/mg_schema.json" \
  "$OUT/BENCH_mg.json" 20 1.5 "$OUT"/time_mg_*.txt

# Serving artifact: class-S throughput (serialized vs 8 concurrent clients)
# plus the 2x-overload shedding/latency phase.  serve_bench gates itself on
# core-scaled targets; the consolidator validates the summary against
# bench/serve_schema.json before emitting BENCH_serve.json.
run serve_bench "$BUILD/bench/serve_bench" --class S --clients 8 \
  --requests 24 --json "$OUT/serve_raw.json"
run serve_consolidate python3 "$(dirname "$0")/serve_consolidate.py" \
  "$OUT/serve_raw.json" "$(dirname "$0")/serve_schema.json" \
  "$OUT/BENCH_serve.json"

# Tracing artifact: a 2x-overloaded loadgen run with full tail sampling, so
# the retained set carries both completed and shed requests, plus paired
# class-W runs with tracing fully off/on.  The consolidator re-validates
# every stitched trace (one serve_e2e root, queue+exec within 5% of it for
# completed requests), gates the overload factor at >= 2x and the tracing
# overhead at <= 1%, and folds a "tracing" section into BENCH_obs.json --
# refusing to update the artifact when any gate fails.
run trace_loadgen "$BUILD/examples/mg_loadgen" --class S --requests 48 \
  --rate 400 --deadline-ms 250 --slo-ms 100 --trace-sample 1.0 \
  --traces-out "$OUT/loadgen_traces.json"
for i in 1 2; do
  run "trace_off_W_$i" "$BUILD/examples/npb_mg" --class W --impl sac
  run "trace_on_W_$i" "$BUILD/examples/npb_mg" --class W --impl sac \
    --obs --trace-sample 1.0
done
run trace_consolidate python3 "$(dirname "$0")/trace_consolidate.py" \
  "$OUT/loadgen_traces.json" "$(dirname "$0")/trace_schema.json" \
  "$OUT/BENCH_obs.json" 0.01 "$OUT/trace_loadgen.txt" \
  "$OUT/trace_off_W_1.txt" "$OUT/trace_off_W_2.txt" \
  "$OUT/trace_on_W_1.txt" "$OUT/trace_on_W_2.txt"

# Distributed artifact: class A over real sockets (examples/mg_cluster forks
# one OS process per rank and wires them with sacpp_net over loopback TCP).
# One single-process baseline, one 2-process run (--verify re-checks the
# norms against an in-process world at 1e-12), and one 2-process run with
# halo/compute overlap disabled.  The consolidator gates the 2-process
# speedup on a core-scaled floor (single-core hosts time-slice both ranks on
# one CPU, so they get a bounded-overhead floor instead), demands overlap
# never lose more than the floor allows, and refuses to write BENCH_net.json
# when the distributed norms drift past 1e-12.
run net_single "$BUILD/examples/mg_cluster" --ranks 1 --class A \
  --json "$OUT/net_single.json"
run net_two "$BUILD/examples/mg_cluster" --ranks 2 --class A --verify \
  --json "$OUT/net_two.json"
run net_two_no_overlap "$BUILD/examples/mg_cluster" --ranks 2 --class A \
  --no-overlap --json "$OUT/net_two_no_overlap.json"
run net_consolidate python3 "$(dirname "$0")/net_consolidate.py" \
  "$OUT/net_single.json" "$OUT/net_two.json" \
  "$OUT/net_two_no_overlap.json" \
  "$(dirname "$0")/net_schema.json" "$OUT/BENCH_net.json"

echo
if [[ ${#FAILED[@]} -ne 0 ]]; then
  echo "FAILED: ${FAILED[*]}" >&2
  exit 1
fi
echo "All outputs in $OUT/"
