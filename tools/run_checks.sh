#!/usr/bin/env bash
# One-command correctness gate for the repo. Runs, in order:
#
#   1. werror-build   configure + build with -DSMFL_WERROR=ON
#                     (-Wall -Wextra -Wconversion -Wshadow promoted to errors)
#   2. tier1-tests    the full ctest suite in that build tree
#   3. smfl-lint      repo-contract static analysis (docs/static-analysis.md)
#   4. lint-graph     the semantic passes: module-layering / include-graph
#                     enforcement (--graph) and the R13 ParallelFor race
#                     detector (--race), with SARIF written to the check
#                     logs for CI upload (docs/static-analysis.md)
#   5. crash-recovery the kill-mid-fit durability harness on its own line:
#                     SIGKILLs real fits between checkpoint writes and
#                     requires --resume to reach the bitwise-identical
#                     model (docs/robustness.md)
#   6. obs-scrape     end-to-end observability: runs a real `smfl fit
#                     --metrics-port=0`, scrapes /metrics, /healthz, and
#                     /statusz over loopback with bash's /dev/tcp (no curl
#                     dependency), and validates the Prometheus exposition
#                     line grammar (docs/observability.md)
#   7. trace-coverage end-to-end span coverage: runs `smfl impute`, `fit`
#                     and `apply` with --trace-out on a generated table and
#                     fails when the child spans of a command's root span
#                     (cli.impute, cli.fit, cli.apply) cover less than
#                     TRACE_COVERAGE_MIN_PCT of it (docs/observability.md)
#   8. perfbench-build the repository benchmark (perfbench/) configured and
#                     built the way perfbench/run.py builds it (Release),
#                     then its self-tests: a library API change that would
#                     break the benchmark fails here
#   9. bench          perf-regression gate (tools/run_bench.sh --gate):
#                     masked-reconstruct fusion, SIMD gemm, fit-kernel,
#                     fold-in solve and Ω-sparse fit speedups must stay
#                     above the committed thresholds; a regression fails
#                     the gate exactly like a lint finding would
#  10. asan           tier-1 suite under AddressSanitizer (+ leak check)
#  11. ubsan          tier-1 suite under UndefinedBehaviorSanitizer
#  12. tsan           threading-sensitive subset under ThreadSanitizer;
#                     auto-skipped (and recorded as such) when the toolchain
#                     lacks TSan support
#
# Every step's outcome lands in CHECKS.json ({"steps": [{name, status,
# seconds, detail}...], "ok": bool}); the script exits nonzero if any step
# fails. Skips are not failures. `--fast` runs only steps 1-8 (the bench
# gate wants an unloaded machine and the sanitizer suites are three extra
# full builds).
#
# Usage: tools/run_checks.sh [--fast] [--out CHECKS.json]

set -uo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out_json="$repo_root/CHECKS.json"
fast=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --fast) fast=1 ;;
    --out)
      shift
      out_json="${1:?--out needs a path}"
      ;;
    *)
      echo "usage: tools/run_checks.sh [--fast] [--out FILE]" >&2
      exit 2
      ;;
  esac
  shift
done

build_dir="$repo_root/build-checks"
log_dir="$build_dir/check-logs"
# Step details name logs relative to the repository root.
log_rel="${log_dir#"$repo_root"/}"
mkdir -p "$log_dir"

step_names=()
step_statuses=()
step_seconds=()
step_details=()
any_failed=0

# run_step NAME DETAIL_ON_PASS COMMAND...
# Runs COMMAND, captures its log, and records pass/fail + duration.
run_step() {
  local name="$1" detail="$2"
  shift 2
  local log="$log_dir/$name.log"
  local start=$SECONDS
  echo "==> $name"
  if "$@" >"$log" 2>&1; then
    local status=pass
    # The tsan runner reports a skipped suite with an explicit marker.
    if [[ "$name" == tsan ]] && grep -q "SKIPPED" "$log"; then
      status=skip
      detail="$(grep -m1 "SKIPPED" "$log")"
    fi
    step_statuses+=("$status")
  else
    step_statuses+=(fail)
    any_failed=1
    detail="failed; see ${log#"$repo_root"/}"
    echo "==> $name: FAILED (log: $log)"
    tail -n 20 "$log"
  fi
  step_names+=("$name")
  step_seconds+=($((SECONDS - start)))
  step_details+=("$detail")
}

configure_and_build() {
  cmake -B "$build_dir" -S "$repo_root" -DSMFL_WERROR=ON \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
    cmake --build "$build_dir" -j "$(nproc)"
}

# The repository benchmark, configured as perfbench/run.py configures it
# (Release, its own tree), with the harness and the CLI built and the
# harness self-tests run; --selftest exits before the harness's
# Release-only guard, so nothing is measured here.
perfbench_build() {
  local dir="$build_dir/perfbench"
  cmake -S "$repo_root/perfbench" -B "$dir" -DCMAKE_BUILD_TYPE=Release &&
    cmake --build "$dir" --target perfbench_harness smfl -j "$(nproc)" &&
    "$dir/perfbench_harness" --selftest
}

# One raw HTTP GET over loopback with bash's /dev/tcp: no curl/netcat in
# the gate image. The server always answers Connection: close, so reading
# to EOF captures the whole response.
http_get() {  # http_get PORT PATH OUTFILE
  (exec 3<>"/dev/tcp/127.0.0.1/$1" &&
     printf 'GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n' "$2" >&3 &&
     cat <&3) > "$3"
}

# End-to-end observability scrape: launch a real fit with --metrics-port=0
# (+ a linger window so the endpoints outlive the fit), scrape all three
# endpoints, and validate the Prometheus text-exposition grammar.
obs_scrape() {
  local dir="$build_dir/obs-scrape"
  rm -rf "$dir" && mkdir -p "$dir" || return 1

  # Deterministic synthetic training CSV: 2 spatial columns, 4 attribute
  # columns, every 11th attribute cell missing.
  awk 'BEGIN {
    print "lat,lon,a,b,c,d";
    for (i = 0; i < 80; i++) {
      lat = 40 + i * 0.01; lon = -70 - i * 0.01;
      line = lat "," lon;
      for (j = 0; j < 4; j++) {
        if ((i * 4 + j) % 11 == 0) line = line ",";
        else line = line "," ((i * 7 + j * 13) % 50 / 50 + j);
      }
      print line;
    }
  }' > "$dir/train.csv" || return 1

  SMFL_METRICS_LINGER_MS=30000 "$build_dir/tools/smfl" fit \
      --in="$dir/train.csv" --model="$dir/model.txt" --rank=4 \
      --metrics-port=0 > "$dir/fit.log" 2>&1 &
  local fit_pid=$!

  local port="" i
  for i in $(seq 1 100); do
    port=$(sed -n 's|.*observability endpoints on http://127\.0\.0\.1:\([0-9]*\).*|\1|p' \
           "$dir/fit.log" 2>/dev/null | head -1)
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  if [[ -z "$port" ]]; then
    echo "obs-scrape: no 'observability endpoints' line in fit.log"
    cat "$dir/fit.log"
    kill "$fit_pid" 2>/dev/null
    return 1
  fi

  # The model write is atomic (temp + rename): existence means the fit is
  # done and the exporter is in its linger window — scrape race-free.
  for i in $(seq 1 600); do
    [[ -f "$dir/model.txt" ]] && break
    sleep 0.05
  done

  local ok=0
  http_get "$port" /metrics "$dir/metrics.http" &&
    http_get "$port" /healthz "$dir/healthz.http" &&
    http_get "$port" /statusz "$dir/statusz.http" || ok=1
  kill -INT "$fit_pid" 2>/dev/null  # end the linger window early
  wait "$fit_pid" || { echo "obs-scrape: fit exited nonzero"; cat "$dir/fit.log"; return 1; }
  [[ $ok -eq 0 ]] || { echo "obs-scrape: scrape failed"; return 1; }

  head -1 "$dir/metrics.http" | grep -q "HTTP/1.1 200" ||
    { echo "obs-scrape: /metrics not 200"; head -1 "$dir/metrics.http"; return 1; }
  grep -q "^ok" "$dir/healthz.http" ||
    { echo "obs-scrape: /healthz body not ok"; return 1; }
  grep -q '"iteration":' "$dir/statusz.http" ||
    { echo "obs-scrape: /statusz missing fit progress"; return 1; }
  # The page must carry the fit, resource, and server self-instruments.
  local metric
  for metric in smfl_fit_iter_count process_rss_bytes obs_http_requests_total; do
    grep -q "^$metric " "$dir/metrics.http" ||
      { echo "obs-scrape: /metrics missing $metric"; return 1; }
  done
  # Exposition line grammar over the body: comments are HELP/TYPE only,
  # samples are <name>[{labels}] <value>.
  awk '
    BEGIN { body = 0; bad = 0 }
    /^\r?$/ { body = 1; next }
    body == 0 { next }
    /^# (HELP|TYPE) / { next }
    /^[A-Za-z_:][A-Za-z0-9_:]*(\{[^{}]*\})? [^ ]+\r?$/ { next }
    { bad++; print "obs-scrape: bad exposition line: " $0 }
    END { exit bad > 0 }
  ' "$dir/metrics.http" || return 1
  echo "obs-scrape: all endpoints healthy on port $port"
}

# Ten runs of the step on a 4-vCPU Xeon (RelWithDebInfo) measured impute
# 99.60-99.86%, fit 99.68-99.89% and apply 97.58-99.04% (apply's root lasts
# 31-83 ms there, ~0.7 ms of it unspanned). Every stage but cli.reconstruct
# and cli.normalize takes more than the margin, so losing its span fails.
TRACE_COVERAGE_MIN_PCT=94

# The share of a root span that its child spans cover: the union of the
# spans on the root's thread that lie inside it, over its duration.
trace_coverage_check() {  # trace_coverage_check ROOT_NAME TRACE_JSON...
  python3 - "$TRACE_COVERAGE_MIN_PCT" "$@" <<'PY'
import json
import sys

threshold = float(sys.argv[1])
failed = False
for arg in sys.argv[2:]:
    root_name, path = arg.split("=", 1)
    with open(path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    roots = [e for e in events if e["name"] == root_name]
    if len(roots) != 1:
        print("trace-coverage: %d '%s' spans in %s, expected one"
              % (len(roots), root_name, path))
        failed = True
        continue
    root = roots[0]
    start, end = root["ts"], root["ts"] + root["dur"]
    spans = sorted((e["ts"], e["ts"] + e["dur"]) for e in events
                   if e is not root and e["tid"] == root["tid"]
                   and start <= e["ts"] and e["ts"] + e["dur"] <= end)
    covered, reach = 0, start
    for s, t in spans:
        s = max(s, reach)
        if t > s:
            covered += t - s
            reach = t
    pct = 100.0 * covered / max(root["dur"], 1)
    print("trace-coverage: %s children cover %.2f%% of %.1f ms (minimum %g%%)"
          % (root_name, pct, root["dur"] / 1e3, threshold))
    failed = failed or pct < threshold
sys.exit(1 if failed else 0)
PY
}

# Runs impute, fit and apply with --trace-out on generated tables (2 spatial
# and 8 smooth attribute columns, ~20% of attribute cells empty: 2000 rows
# to fit, a second draw of 8000 rows to apply, so that apply's root lasts
# long enough for a scheduling hiccup to stay small beside it) and checks
# each command's span coverage.
trace_coverage() {
  local dir="$build_dir/trace-coverage"
  rm -rf "$dir" && mkdir -p "$dir" || return 1
  local seed
  for seed in 3 4; do
    awk -v seed="$seed" -v rows=$((seed == 3 ? 2000 : 8000)) 'BEGIN {
      srand(seed);
      print "lat,lon,a1,a2,a3,a4,a5,a6,a7,a8";
      for (i = 0; i < rows; i++) {
        lat = rand(); lon = rand();
        line = sprintf("%.6f,%.6f", lat, lon);
        for (j = 1; j <= 8; j++) {
          v = 10 * j + 5 * sin(3 * lat * j) + 3 * cos(2 * lon + j);
          if (rand() < 0.2) line = line ",";
          else line = line sprintf(",%.6f", v + 0.1 * rand());
        }
        print line;
      }
    }' > "$dir/table$seed.csv" || return 1
  done
  local smfl="$build_dir/tools/smfl"
  "$smfl" impute --in="$dir/table3.csv" --out="$dir/imputed.csv" \
      --trace-out="$dir/impute.json" &&
    "$smfl" fit --in="$dir/table3.csv" --model="$dir/model.smfl" \
      --trace-out="$dir/fit.json" &&
    "$smfl" apply --in="$dir/table4.csv" --model="$dir/model.smfl" \
      --out="$dir/applied.csv" --trace-out="$dir/apply.json" || return 1
  trace_coverage_check "cli.impute=$dir/impute.json" "cli.fit=$dir/fit.json" \
    "cli.apply=$dir/apply.json"
}

run_step werror-build "warning-clean under -Wconversion -Wshadow -Werror" \
  configure_and_build

if [[ "${step_statuses[0]}" == pass ]]; then
  run_step tier1-tests "full ctest suite" \
    ctest --test-dir "$build_dir" --output-on-failure -j
  run_step smfl-lint "repo contracts clean (see $log_rel/smfl-lint.json)" \
    "$build_dir/tools/smfl_lint" --repo-root "$repo_root" \
    --json "$log_dir/smfl-lint.json" src
  run_step lint-graph "module DAG + R13 race pass clean (SARIF: $log_rel/smfl-lint.sarif)" \
    "$build_dir/tools/smfl_lint" --repo-root "$repo_root" --graph --race \
    --sarif "$log_dir/smfl-lint.sarif" \
    --json "$log_dir/smfl-lint-graph.json" src
  # Already part of tier1-tests, but durability regressions deserve their
  # own line in CHECKS.json: this is the harness that SIGKILLs real fits
  # and proves --resume is bitwise-identical.
  run_step crash-recovery "kill-mid-fit + resume bitwise-identical harness" \
    ctest --test-dir "$build_dir" --output-on-failure \
    -R '^crash_recovery_test$'
  run_step obs-scrape "live /metrics + /healthz + /statusz scrape of a real fit" \
    obs_scrape
  run_step trace-coverage "impute, fit and apply child spans cover >= ${TRACE_COVERAGE_MIN_PCT}% of their root span" \
    trace_coverage
  run_step perfbench-build "perfbench harness + smfl built (Release) and self-tests pass" \
    perfbench_build
else
  echo "==> skipping tests and lint: the gate build failed"
fi

if [[ $fast -eq 0 ]]; then
  if [[ "${step_statuses[0]}" == pass ]]; then
    run_step bench "fusion + SIMD + sparse masked-path + fit-kernel + fold-in solve + Ω-sparse fit thresholds, tiers interleaved in one process (run_bench.sh --gate)" \
      "$repo_root/tools/run_bench.sh" --gate --build-dir="$build_dir"
  else
    echo "==> skipping bench gate: the gate build failed"
  fi
  run_step asan "tier-1 suite under AddressSanitizer" \
    "$repo_root/tools/run_sanitizers.sh" address
  run_step ubsan "tier-1 suite under UndefinedBehaviorSanitizer" \
    "$repo_root/tools/run_sanitizers.sh" undefined
  run_step tsan "threading subset under ThreadSanitizer" \
    "$repo_root/tools/run_sanitizers.sh" thread
fi

# ---------------------------------------------------------------------------
# CHECKS.json

json_escape() {
  local s="$1"
  s="${s//\\/\\\\}"
  s="${s//\"/\\\"}"
  printf '%s' "$s"
}

{
  echo "{"
  echo "  \"steps\": ["
  for i in "${!step_names[@]}"; do
    comma=","
    [[ $i -eq $((${#step_names[@]} - 1)) ]] && comma=""
    printf '    {"name": "%s", "status": "%s", "seconds": %s, "detail": "%s"}%s\n' \
      "${step_names[$i]}" "${step_statuses[$i]}" "${step_seconds[$i]}" \
      "$(json_escape "${step_details[$i]}")" "$comma"
  done
  echo "  ],"
  if [[ $any_failed -eq 0 ]]; then
    echo "  \"ok\": true"
  else
    echo "  \"ok\": false"
  fi
  echo "}"
} > "$out_json"

echo
echo "==> summary ($out_json)"
for i in "${!step_names[@]}"; do
  printf '    %-16s %s (%ss)\n' "${step_names[$i]}" "${step_statuses[$i]}" \
    "${step_seconds[$i]}"
done

exit $any_failed
