#!/usr/bin/env bash
# Benchmark baseline: measures the SIMD microkernel layer, the
# deterministic parallel execution layer, the fused masked-reconstruction
# kernel over the observed index (against the unfused baseline, down to 1%
# observed), fold-in serving throughput and its SIMD solve, and the
# telemetry disabled-path overhead, and writes the results to BENCH_KERNELS.json at the repository
# root (BENCH_PR8.json is the committed historical baseline, in an older
# schema).
#
# What runs:
#   1. bench_fig9_scalability (MF family: NMF / SMF / SMFL, lake dataset,
#      250/500/1000 rows) at SMFL_THREADS = 1, 2, 4 and the machine's
#      hardware concurrency — thread-scaling of the fit loop.
#   2. bench_kernels once per thread count. Every kernel benchmark compared
#      across SIMD tiers takes the tier as its last argument (/0 scalar
#      pinned, /1 the runtime-dispatched tier, recorded as host.simd_tier
#      from the benchmark's JSON context) and pins it in-process, so each
#      run holds both tiers; at 1 thread their ratio is the SIMD speedup,
#      valid on ANY host.
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
#   --gate   fast regression gate (used by tools/run_checks.sh): runs the
#            gated benchmarks of both tiers in ONE process with their
#            repetitions randomly interleaved, checks the median of the
#            per-repetition ratios against the committed thresholds,
#            prints PASS/FAIL per check, and exits nonzero on a
#            regression. The SIMD checks auto-skip when the host resolves
#            to the scalar tier.

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
# are deliberately below the measured baselines (see the "bench gate"
# section of docs/performance.md) so scheduler noise cannot flake the
# gate, while a real regression — losing the fused path, the vector
# dispatch, the per-tier density crossover or the Ω-sparse loop — still
# fails loudly. Both tiers run in one process with their repetitions
# randomly interleaved, and every check reads the median of ratios taken
# repetition by repetition, so drift in host speed lands on both sides of
# each ratio instead of between two processes run one after the other.
# The row pass at 7 columns and the Laplacian term's kernel run beside the
# checks and have their tier ratios reported, not gated.
if [[ "$mode" == "gate" ]]; then
  gate_filter='BM_MaskedReconstruct(Unfused|Indexed)/10/[01]$|BM_MatMulABt/1000/[01]$|BM_SmflFit/(10|90)/1$|BM_FitRowPass/(10/20|90/7)/[01]$|BM_FoldInSolve/[01]$|BM_LaplacianQuadraticForm/[01]$'
  echo "==> bench gate: scalar and dispatched tiers @ 1 thread, interleaved"
  SMFL_THREADS=1 "$build_dir/bench/bench_kernels" \
      --benchmark_filter="$gate_filter" --benchmark_repetitions=7 \
      --benchmark_enable_random_interleaving=true \
      --benchmark_out_format=json --benchmark_out="$scratch/gate.json" \
      >/dev/null

  SCRATCH="$scratch" python3 - <<'PY'
import json, os, statistics, sys

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
# measured per-tier dense crossover. At this shape both tiers send nearly
# every row to masked_dot_cols, which on AVX2 now runs four cells per
# vector (the kernel the fit's row pass uses too): it measured 1.51-1.91
# (median ~1.7) over 10 gate runs. 0.9 still catches a reintroduced slow
# gather kernel or a crossover that sends sparse rows down the dense
# path. Checked on the ObservedIndex form. Skipped on scalar hosts.
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
# The register-resident fit kernels (skipped on scalar hosts): the row
# pass (R_Ω(UV), its squared error and the U step) at perfbench's impute
# shape, 10% observed attribute cells, one thread, scalar tier over
# dispatched tier. The U step alone measured 3.25-3.70 (median ~3.45)
# over 10 gate runs on a shared 4-vCPU AVX2 Xeon (RelWithDebInfo, 1
# thread); the row pass, which adds the reconstruction to both sides,
# measured 2.16-3.09 (median ~2.64), so this threshold sits at ~72% of
# its median (the "bench gate" section of docs/performance.md). A table
# that points the vector tier back at the scalar kernels reads ~1.0.
FIT_KERNEL_MIN_SPEEDUP = 1.9
# The row-lane fold-in solve (skipped on scalar hosts): one core::FoldIn
# batch at perfbench's apply-batches shape (1000 x 20, rank 10, its outage
# patterns), pinned to one thread, scalar tier over dispatched tier. It
# measured 4.65-6.36 (median ~5.41) over 10 gate runs on a shared 4-vCPU
# AVX2 Xeon (RelWithDebInfo, 1 thread); the threshold is ~35% of the
# median, and a table that points the vector tier at the scalar solve
# reads ~1.0.
FOLDIN_MIN_SPEEDUP = 1.9

scratch = os.environ["SCRATCH"]
with open(f"{scratch}/gate.json") as f:
    doc = json.load(f)
tier = doc.get("context", {}).get("simd_tier", "unknown")
reps = {}
for b in doc["benchmarks"]:
    if b.get("run_type") == "iteration":
        reps.setdefault(b["run_name"], {})[b["repetition_index"]] = \
            b["real_time"]

def paired(num, den):
    """Median over repetitions r of time(num)[r] / time(den)[r]."""
    common = sorted(set(reps[num]) & set(reps[den]))
    return statistics.median(reps[num][r] / reps[den][r] for r in common)

failures = []

def check(label, value, threshold, failure):
    status = "PASS" if value >= threshold else "FAIL"
    print(f"[{status}] {label}: {value:.2f}x (threshold {threshold}x)")
    if status == "FAIL":
        failures.append(failure)

check("fusion speedup @ 10% observed (scalar tier)",
      paired("BM_MaskedReconstructUnfused/10/0",
             "BM_MaskedReconstructIndexed/10/0"),
      FUSION_MIN_10PCT, "masked-reconstruct fusion regressed")

if tier == "scalar":
    print("[SKIP] SIMD checks: host tier is scalar "
          "(no vector unit)")
else:
    check(f"SIMD ({tier}) speedup on MatMulABt/1000",
          paired("BM_MatMulABt/1000/0", "BM_MatMulABt/1000/1"),
          SIMD_MIN_GEMM, f"SIMD ({tier}) gemm speedup regressed")
    check(f"masked path @ 10% observed, {tier} vs scalar tier",
          paired("BM_MaskedReconstructIndexed/10/0",
                 "BM_MaskedReconstructIndexed/10/1"),
          SPARSE_MIN_10PCT,
          f"{tier} masked path slower than scalar at 10% observed "
          "(gather-crossover regression)")
    check(f"fit row pass @ 10% observed, {tier} vs scalar tier",
          paired("BM_FitRowPass/10/20/0", "BM_FitRowPass/10/20/1"),
          FIT_KERNEL_MIN_SPEEDUP,
          f"{tier} fit kernels lost their dispatch")
    check(f"fold-in solve @ apply-batches shape, {tier} vs scalar tier",
          paired("BM_FoldInSolve/0", "BM_FoldInSolve/1"),
          FOLDIN_MIN_SPEEDUP,
          f"{tier} fold-in solve lost its dispatch")

# Reported, not gated: the row pass at the 7-column width of the paper's
# Lake and Vehicle data, and the Laplacian term's kernel.
for label, name in (("fit row pass @ 7 columns, 90% observed",
                     "BM_FitRowPass/90/7"),
                    ("Laplacian term Tr(UᵀLU)", "BM_LaplacianQuadraticForm")):
    print(f"[INFO] {label}, {tier} vs scalar tier: "
          f"{paired(name + '/0', name + '/1'):.2f}x (not gated)")

check(f"Ω-sparse fit, 90% vs 10% observed ({tier} tier)",
      paired("BM_SmflFit/90/1", "BM_SmflFit/10/1"),
      OMEGA_FIT_MIN_RATIO,
      "fit time no longer falls with |Ω| (Ω-sparse loop regressed)")

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

kernel_flags=(--benchmark_repetitions=3 --benchmark_report_aggregates_only=true
              --benchmark_enable_random_interleaving=true
              --benchmark_out_format=json)
for t in $thread_counts; do
  echo "==> kernel microbench @ $t thread(s), both SIMD tiers"
  SMFL_THREADS="$t" "$build_dir/bench/bench_kernels" \
      "${kernel_flags[@]}" --benchmark_out="$scratch/kernels_t$t.json" \
      >/dev/null
done

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
    fig9[name] = entry

kernels_per_thread = {t: fig9_times(f"{scratch}/kernels_t{t}.json")
                      for t in threads}
kbase = kernels_per_thread[1]
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

# Scalar-vs-SIMD per-kernel ratios at 1 thread, from the /0 (scalar
# pinned) and /1 (dispatched) variants of each tier-argument benchmark in
# the same process, so these are valid on any machine (the dimension the
# thread curves lack on small hosts). Times are in each benchmark's unit.
simd_kernels = {}
for name in sorted(kbase):
    if not name.endswith("/1") or name[:-2] + "/0" not in kbase:
        continue
    scalar_time = kbase[name[:-2] + "/0"]
    simd_kernels[name[:-2]] = {
        "scalar_time": round(scalar_time, 4),
        "simd_time": round(kbase[name], 4),
        "speedup": round(scalar_time / kbase[name], 3),
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
    fused = kbase[f"BM_MaskedReconstructIndexed/{arg}/1"]
    unfused = kbase[f"BM_MaskedReconstructUnfused/{arg}/1"]
    entry = {
        "fused_ms": round(fused, 4), "unfused_ms": round(unfused, 4),
        "speedup": round(unfused / fused, 3),
    }
    if simd_tier != "scalar":
        scalar_indexed = kbase[f"BM_MaskedReconstructIndexed/{arg}/0"]
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
                 "at equal parallelism and are valid on any host; kernel "
                 "names ending /0 pin the scalar tier, /1 the dispatched "
                 "tier"),
    },
    "determinism": "outputs bitwise identical across all thread counts, "
                   "SIMD tiers (scalar pinned or probed), and with "
                   "telemetry on or "
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
        # Both tiers of the whole fit come from the same bench_kernels
        # process (/0 scalar pinned, /1 the probed tier).
        "fit_simd_speedup_1_thread": simd_kernels.get(
            "BM_SmflFit/90", {}).get("speedup"),
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
