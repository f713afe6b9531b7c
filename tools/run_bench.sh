#!/usr/bin/env bash
# Benchmark baseline: measures the SIMD microkernel layer, the
# deterministic parallel execution layer, the fused masked-reconstruction
# kernel over the observed index (against the unfused baseline, down to 1%
# observed), fold-in serving throughput, and the telemetry disabled-path
# overhead, and writes the results to BENCH_KERNELS.json at the repository
# root (BENCH_PR8.json is the committed historical baseline, in an older
# schema).
#
# What runs:
#   1. bench_fig9_scalability (MF family: NMF / SMF / SMFL, lake dataset,
#      250/500/1000 rows) at SMFL_THREADS = 1, 2, 4 and the machine's
#      hardware concurrency — thread-scaling of the fit loop.
#   2. bench_kernels TWICE at 1 thread: once with the runtime-dispatched
#      SIMD tier (whatever the CPU probe resolves — recorded as
#      host.simd_tier from the benchmark's JSON context) and once with
#      SMFL_SIMD=0 pinning the scalar tier. The per-kernel ratio is the
#      SIMD speedup, valid on ANY host because both runs share one core
#      count. Then once per thread count for the thread-scaling curves.
#   3. bench_table4_imputation (all methods, all datasets, 1 trial) at the
#      same thread counts, timed end to end.
#   4. BM_TelemetryOverhead (inside bench_kernels): the per-instrument cost
#      with collection off and on.
#
# Results are bitwise identical across thread counts AND SIMD tiers by
# construction (see docs/performance.md); this script only measures wall
# clock. When the host has a single core, every thread-scaling curve is
# noise around 1.0 by construction and is tagged "noise": true in the
# JSON — the SIMD ratios and the fusion ratios remain valid.
#
# Usage: tools/run_bench.sh [--quick]
#        tools/run_bench.sh --gate [--build-dir=DIR]
#   --quick  fewer rows for table4 (smoke-test the harness, not a baseline)
#   --gate   fast regression gate (used by tools/run_checks.sh): runs only
#            the fusion pair, one gemm and the 10%/90% SMFL fits, checks
#            the speedups against the committed thresholds, prints
#            PASS/FAIL per check, and exits nonzero on a regression. The
#            SIMD checks auto-skip when the host resolves to the scalar
#            tier.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="$repo_root/build"
out_json="$repo_root/BENCH_KERNELS.json"

mode="full"
table4_rows=400
table4_trials=1
for arg in "$@"; do
  case "$arg" in
    --quick) table4_rows=150 ;;
    --gate) mode="gate" ;;
    --build-dir=*) build_dir="${arg#--build-dir=}" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

if [[ ! -x "$build_dir/bench/bench_kernels" ]]; then
  echo "==> bench binaries missing; building $build_dir"
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j "$(nproc)"
fi

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

# ---------------------------------------------------------------------------
# Gate mode: the perf-regression step of tools/run_checks.sh. Thresholds
# are deliberately below the measured baselines (BENCH_PR8.json records
# ~3x fusion at 10% observed and >2x SIMD on MatMul) so scheduler noise
# cannot flake the gate, while a real regression — losing the fused path,
# the vector dispatch, or the per-tier density crossover — still fails
# loudly.
if [[ "$mode" == "gate" ]]; then
  gate_filter='BM_MaskedReconstruct(Unfused|Indexed)/10$|BM_MatMulABt/1000$|BM_SmflFit/(10|90)$'
  gate_flags=(--benchmark_filter="$gate_filter" --benchmark_repetitions=3
              --benchmark_report_aggregates_only=true
              --benchmark_out_format=json)
  echo "==> bench gate: dispatched tier @ 1 thread"
  SMFL_THREADS=1 "$build_dir/bench/bench_kernels" \
      "${gate_flags[@]}" --benchmark_out="$scratch/gate_simd.json" >/dev/null
  echo "==> bench gate: scalar tier (SMFL_SIMD=0) @ 1 thread"
  SMFL_THREADS=1 SMFL_SIMD=0 "$build_dir/bench/bench_kernels" \
      "${gate_flags[@]}" --benchmark_out="$scratch/gate_scalar.json" >/dev/null

  SCRATCH="$scratch" python3 - <<'PY'
import json, os, sys

# Regression thresholds. Measured baselines are well above these; see the
# "bench gate" section of docs/performance.md before changing them.
# Fusion is checked on the SCALAR tier: the fused kernel's advantage
# (skipping unobserved entries) is a property of the algorithm, and the
# scalar-vs-scalar ratio is stable across vector units, whereas under
# AVX2 the unfused dense gemm vectorizes better than the fused sparse
# gather path and the ratio compresses toward ~1.3 at 10% observed.
FUSION_MIN_10PCT = 1.5   # indexed vs unfused reconstruct @ 10%, scalar tier
# SIMD-vs-scalar on the panel gemm (skipped on scalar hosts). Checked on
# BM_MatMulABt/1000 rather than BM_MatMul/256: the compiler auto-vectorizes
# the scalar axpy kernel well enough (~1.15x gap) that the axpy-based gemm
# ratio can no longer distinguish "lost the dispatch" from noise, while the
# packed dot_panel kernel holds >3x over its scalar twin and collapses to
# ~1.0 if dispatch breaks.
SIMD_MIN_GEMM = 1.4
# The sparse crossover contract (PR 8): the dispatched tier's masked path
# at 10% observed must never be meaningfully slower than the scalar
# tier's — the AVX2 hardware-gather kernel violated exactly this (0.85x,
# BENCH_PR7.json) until it was replaced by scalar per-entry dots plus a
# measured per-tier dense crossover. Post-fix both tiers run the same
# code below the crossover, so the true ratio is ~1.0 by construction;
# 0.9 leaves scheduler-noise headroom while still catching a
# reintroduced slow gather kernel. Checked on the ObservedIndex form,
# the one the fit loop runs. Skipped on scalar hosts.
SPARSE_MIN_10PCT = 0.9
# The Ω-sparse fit loop (BM_SmflFit, dispatched tier): every pass walks
# only the observed cells, so a whole fit at 10% observed attribute cells
# must stay well ahead of the same fit at 90%. The /90 over /10 time ratio
# measured 1.3-2.5 (median ~2.2) on a shared 4-vCPU AVX2 Xeon
# (RelWithDebInfo, 1 thread; K-means and initialization are a fixed share
# of both); the dense N×M loop it replaced measured 0.7-1.1. The threshold
# is ~55% of the median measured ratio, so it stays clear of scheduler
# noise and still fails a return to the dense loop.
OMEGA_FIT_MIN_RATIO = 1.2

scratch = os.environ["SCRATCH"]

def load(path):
    with open(path) as f:
        doc = json.load(f)
    medians = {b["run_name"]: b["real_time"] for b in doc["benchmarks"]
               if b.get("aggregate_name") == "median"}
    return doc.get("context", {}), medians

ctx, simd = load(f"{scratch}/gate_simd.json")
_, scalar = load(f"{scratch}/gate_scalar.json")
tier = ctx.get("simd_tier", "unknown")

failures = []

fused = scalar["BM_MaskedReconstructIndexed/10"]
unfused = scalar["BM_MaskedReconstructUnfused/10"]
fusion_speedup = unfused / fused
status = "PASS" if fusion_speedup >= FUSION_MIN_10PCT else "FAIL"
print(f"[{status}] fusion speedup @ 10% observed (scalar tier): "
      f"{fusion_speedup:.2f}x (threshold {FUSION_MIN_10PCT}x)")
if status == "FAIL":
    failures.append("masked-reconstruct fusion regressed")

if tier == "scalar":
    print(f"[SKIP] SIMD speedup check: host tier is scalar "
          f"(no vector unit or SMFL_SIMD pinned)")
else:
    simd_speedup = scalar["BM_MatMulABt/1000"] / simd["BM_MatMulABt/1000"]
    status = "PASS" if simd_speedup >= SIMD_MIN_GEMM else "FAIL"
    print(f"[{status}] SIMD ({tier}) speedup on MatMulABt/1000: "
          f"{simd_speedup:.2f}x (threshold {SIMD_MIN_GEMM}x)")
    if status == "FAIL":
        failures.append(f"SIMD ({tier}) gemm speedup regressed")

if tier == "scalar":
    print(f"[SKIP] sparse masked-path check: host tier is scalar")
else:
    sparse_ratio = (scalar["BM_MaskedReconstructIndexed/10"] /
                    simd["BM_MaskedReconstructIndexed/10"])
    status = "PASS" if sparse_ratio >= SPARSE_MIN_10PCT else "FAIL"
    print(f"[{status}] masked path @ 10% observed, {tier} vs scalar tier: "
          f"{sparse_ratio:.2f}x (threshold {SPARSE_MIN_10PCT}x)")
    if status == "FAIL":
        failures.append(f"{tier} masked path slower than scalar at 10% "
                        "observed (gather-crossover regression)")

omega_ratio = simd["BM_SmflFit/90"] / simd["BM_SmflFit/10"]
status = "PASS" if omega_ratio >= OMEGA_FIT_MIN_RATIO else "FAIL"
print(f"[{status}] Ω-sparse fit, 90% vs 10% observed ({tier} tier): "
      f"{omega_ratio:.2f}x (threshold {OMEGA_FIT_MIN_RATIO}x)")
if status == "FAIL":
    failures.append("fit time no longer falls with |Ω| (Ω-sparse loop "
                    "regressed)")

if failures:
    print("bench gate FAILED: " + "; ".join(failures))
    sys.exit(1)
print("bench gate passed")
PY
  exit 0
fi

# ---------------------------------------------------------------------------
# Full baseline run.

ncores="$(nproc)"
cpu_model="$(awk -F': ' '/model name/{print $2; exit}' /proc/cpuinfo \
             2>/dev/null || true)"
cpu_model="${cpu_model:-unknown}"
thread_counts="1 2 4 $ncores"
# Deduplicate while preserving order (e.g. ncores = 1, 2 or 4).
thread_counts="$(tr ' ' '\n' <<<"$thread_counts" | awk '!seen[$0]++' | tr '\n' ' ')"

fig9_filter='Fig9/lake/(NMF|SMF|SMFL)'

echo "==> machine: $ncores hardware thread(s); thread counts: $thread_counts"

# Median of 5 repetitions: each repetition is one full Impute() call
# (Iterations(1) manual timing in the bench), so the median is robust to
# scheduler noise without inflating runtime much.
fig9_flags=(--benchmark_filter="$fig9_filter" --benchmark_repetitions=5
            --benchmark_report_aggregates_only=true
            --benchmark_out_format=json)

for t in $thread_counts; do
  echo "==> fig9 scalability slice @ $t thread(s)"
  SMFL_THREADS="$t" "$build_dir/bench/bench_fig9_scalability" \
      "${fig9_flags[@]}" --benchmark_out="$scratch/fig9_t$t.json" >/dev/null
done

echo "==> fig9 slice @ 1 thread, scalar tier (SMFL_SIMD=0)"
SMFL_THREADS=1 SMFL_SIMD=0 "$build_dir/bench/bench_fig9_scalability" \
    "${fig9_flags[@]}" --benchmark_out="$scratch/fig9_scalar.json" >/dev/null

kernel_flags=(--benchmark_repetitions=3 --benchmark_report_aggregates_only=true
              --benchmark_out_format=json)
for t in $thread_counts; do
  echo "==> kernel microbench @ $t thread(s)"
  SMFL_THREADS="$t" "$build_dir/bench/bench_kernels" \
      "${kernel_flags[@]}" --benchmark_out="$scratch/kernels_t$t.json" \
      >/dev/null
done

echo "==> kernel microbench @ 1 thread, scalar tier (SMFL_SIMD=0)"
SMFL_THREADS=1 SMFL_SIMD=0 "$build_dir/bench/bench_kernels" \
    "${kernel_flags[@]}" --benchmark_out="$scratch/kernels_scalar.json" \
    >/dev/null

for t in $thread_counts; do
  echo "==> table4 imputation @ $t thread(s) (rows=$table4_rows)"
  start_ns="$(date +%s%N)"
  SMFL_THREADS="$t" "$build_dir/bench/bench_table4_imputation" \
      --rows="$table4_rows" --trials="$table4_trials" \
      >"$scratch/table4_t$t.txt"
  end_ns="$(date +%s%N)"
  echo "$(( (end_ns - start_ns) / 1000000 ))" >"$scratch/table4_t$t.ms"
done

echo "==> merging results into $out_json"
SCRATCH="$scratch" NCORES="$ncores" CPU_MODEL="$cpu_model" \
THREAD_COUNTS="$thread_counts" \
TABLE4_ROWS="$table4_rows" OUT_JSON="$out_json" python3 - <<'PY'
import json, os, re

scratch = os.environ["SCRATCH"]
threads = [int(t) for t in os.environ["THREAD_COUNTS"].split()]
ncores = int(os.environ["NCORES"])
# With one physical core the threaded runs contend for the same cpu, so
# every speedup_vs_1_thread curve is noise around 1.0 by construction —
# tagged, not published as data. SIMD and fusion ratios are unaffected
# (both sides of those ratios run at the same parallelism).
scaling_noise = ncores == 1

def bench_doc(path):
    with open(path) as f:
        return json.load(f)

def fig9_times(path):
    """base benchmark name -> median real_time in ms across repetitions."""
    return {b["run_name"]: b["real_time"]
            for b in bench_doc(path)["benchmarks"]
            if b.get("aggregate_name") == "median"}

def tag_scaling(entry):
    """Marks a thread-scaling curve as noise on 1-core hosts."""
    if scaling_noise:
        entry["noise"] = True
    return entry

per_thread = {t: fig9_times(f"{scratch}/fig9_t{t}.json") for t in threads}
fig9_scalar = fig9_times(f"{scratch}/fig9_scalar.json")
base = per_thread[1]

fig9 = {}
for name in sorted(base):
    m = re.match(r"Fig9/(\w+)/(\w+)/(\d+)", name)
    entry = {
        "dataset": m.group(1), "method": m.group(2), "rows": int(m.group(3)),
        "ms_per_thread_count": {str(t): round(per_thread[t][name], 3)
                                for t in threads},
        "speedup_vs_1_thread": tag_scaling(
            {str(t): round(base[name] / per_thread[t][name], 3)
             for t in threads}),
    }
    if name in fig9_scalar:
        entry["scalar_tier_ms_1_thread"] = round(fig9_scalar[name], 3)
        entry["simd_speedup_1_thread"] = round(
            fig9_scalar[name] / base[name], 3)
    fig9[name] = entry

kernels_per_thread = {t: fig9_times(f"{scratch}/kernels_t{t}.json")
                      for t in threads}
kbase = kernels_per_thread[1]
kscalar = fig9_times(f"{scratch}/kernels_scalar.json")
simd_tier = bench_doc(f"{scratch}/kernels_t1.json").get(
    "context", {}).get("simd_tier", "unknown")

kernels = {}
for name in sorted(kbase):
    if name.startswith("BM_TelemetryOverhead"):
        continue  # nanosecond-scale; reported in its own block below
    kernels[name] = {
        "ms_per_thread_count": {str(t): round(kernels_per_thread[t][name], 4)
                                for t in threads},
        "speedup_vs_1_thread": tag_scaling(
            {str(t): round(kbase[name] / kernels_per_thread[t][name], 3)
             for t in threads}),
    }

# Scalar-vs-SIMD per-kernel ratios at 1 thread: both runs share the same
# parallelism and host, so these are valid on any machine (the dimension
# the thread curves lack on small hosts). Excludes fold-in and telemetry,
# which measure other layers.
simd_kernels = {}
for name in sorted(kbase):
    if name.startswith(("BM_TelemetryOverhead", "BM_FoldInBatch")):
        continue
    if name not in kscalar:
        continue
    simd_kernels[name] = {
        "scalar_ms": round(kscalar[name], 4),
        "simd_ms": round(kbase[name], 4),
        "speedup": round(kscalar[name] / kbase[name], 3),
    }

# The observed-rate sweep of the fused kernel over the CSR index (the one
# the fit runs) against the unfused ApplyMask(MatMul) baseline at 1
# thread: the fused kernel computes only the Ω entries, so the gap widens
# as Ω thins. Also the dispatched-vs-scalar ratio of the indexed path,
# which must never drop below ~1.0x (AVX2 hardware gathers once measured
# 0.85x scalar at 10% observed; the tier now uses scalar per-entry dots
# with a measured dense crossover).
fusion = {}
for arg in (90, 50, 10, 5, 1):
    fused = kbase[f"BM_MaskedReconstructIndexed/{arg}"]
    unfused = kbase[f"BM_MaskedReconstructUnfused/{arg}"]
    entry = {
        "fused_ms": round(fused, 4), "unfused_ms": round(unfused, 4),
        "speedup": round(unfused / fused, 3),
    }
    scalar_indexed = kscalar.get(f"BM_MaskedReconstructIndexed/{arg}")
    if scalar_indexed is not None and simd_tier != "scalar":
        entry["dispatched_vs_scalar"] = round(scalar_indexed / fused, 3)
    fusion[f"observed_{arg}pct"] = entry

# Fold-in serving throughput: median real_time is ms per FoldIn() batch,
# so rows / (ms / 1000) = rows served per second at that thread count.
foldin = {}
for arg in (64, 512, 2048):
    name = f"BM_FoldInBatch/{arg}"
    if name not in kbase:
        continue
    per_thread_rps = {
        str(t): round(arg / (kernels_per_thread[t][name] / 1000.0), 1)
        for t in threads}
    foldin[f"batch_{arg}_rows"] = {
        "ms_per_batch_per_thread_count": {
            str(t): round(kernels_per_thread[t][name], 4) for t in threads},
        "rows_per_sec_per_thread_count": per_thread_rps,
        "speedup_vs_1_thread": tag_scaling(
            {str(t): round(kbase[name] / kernels_per_thread[t][name], 3)
             for t in threads}),
    }

# Telemetry overhead: median real_time is ns per loop iteration, and each
# iteration runs 3 instruments (counter + histogram + span), so ns/3 is
# the per-instrument cost. Arg 0 = collection off (the disabled-path
# guard), Arg 1 = on.
telemetry_units = {b["run_name"]: b.get("time_unit", "ns")
                   for b in bench_doc(f"{scratch}/kernels_t1.json")["benchmarks"]
                   if b.get("aggregate_name") == "median"}
telemetry = {}
for arg, label in ((0, "disabled"), (1, "enabled")):
    name = f"BM_TelemetryOverhead/{arg}"
    if name in kbase:
        telemetry[label] = {
            "per_iteration": round(kbase[name], 3),
            "per_instrument": round(kbase[name] / 3.0, 3),
            "time_unit": telemetry_units.get(name, "ns"),
        }
if "disabled" in telemetry and "enabled" in telemetry:
    telemetry["enabled_vs_disabled_ratio"] = round(
        telemetry["enabled"]["per_iteration"] /
        max(telemetry["disabled"]["per_iteration"], 1e-9), 2)

table4 = {}
for t in threads:
    with open(f"{scratch}/table4_t{t}.ms") as f:
        table4[str(t)] = {"wall_ms": int(f.read().strip())}
t4_base = table4["1"]["wall_ms"]
for t in threads:
    table4[str(t)]["speedup_vs_1_thread"] = round(
        t4_base / table4[str(t)]["wall_ms"], 3)
if scaling_noise:
    table4["noise"] = True

best_simd = max(simd_kernels.items(), key=lambda kv: kv[1]["speedup"]) \
    if simd_kernels else (None, {"speedup": None})
largest = max((e for e in fig9.values() if e["method"] == "SMFL"),
              key=lambda e: e["rows"])
out = {
    "generated_by": "tools/run_bench.sh",
    "host": {
        "cores": ncores,
        "cpu_model": os.environ["CPU_MODEL"],
        "simd_tier": simd_tier,
        "thread_counts": threads,
        "thread_scaling_noise": scaling_noise,
        "note": ("thread-scaling curves carry \"noise\": true when the "
                 "host has one core (the ratios are ~1.0 by construction); "
                 "simd_kernel_speedups and the fusion ratios compare runs "
                 "at equal parallelism and are valid on any host"),
    },
    "determinism": "outputs bitwise identical across all thread counts, "
                   "SIMD tiers (SMFL_SIMD=0/1), and with telemetry on or "
                   "off (tests/kernel_equivalence_test.cc, "
                   "tests/simd_kernel_test.cc)",
    "simd_kernel_speedups_1_thread": simd_kernels,
    "fig9_scalability_mf_family": fig9,
    "kernel_microbench": kernels,
    "masked_reconstruct_fusion_1_thread": fusion,
    "foldin_serving_throughput": foldin,
    "telemetry_overhead": telemetry,
    "table4_imputation_end_to_end": {
        "rows": int(os.environ["TABLE4_ROWS"]),
        "per_thread_count": table4,
    },
    "headline": {
        "simd_tier": simd_tier,
        "best_simd_kernel": best_simd[0],
        "best_simd_kernel_speedup": best_simd[1]["speedup"],
        "end_to_end_simd_speedup_1_thread":
            largest.get("simd_speedup_1_thread"),
        "largest_config": f"Fig9/lake/SMFL/{largest['rows']}",
        "kernel_fusion_speedup_10pct_observed":
            fusion["observed_10pct"]["speedup"],
        "masked_path_10pct_dispatched_vs_scalar": fusion[
            "observed_10pct"].get("dispatched_vs_scalar"),
        "threaded_speedup_at_max":
            largest["speedup_vs_1_thread"][str(threads[-1])],
        "foldin_rows_per_sec_at_max_threads": foldin.get(
            "batch_2048_rows", {}).get(
            "rows_per_sec_per_thread_count", {}).get(str(threads[-1])),
        "telemetry_disabled_ns_per_instrument": telemetry.get(
            "disabled", {}).get("per_instrument"),
    },
}
with open(os.environ["OUT_JSON"], "w") as f:
    json.dump(out, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {os.environ['OUT_JSON']}")
print(json.dumps(out["headline"], indent=2))
PY
