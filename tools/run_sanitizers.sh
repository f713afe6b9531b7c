#!/usr/bin/env bash
# Build and run tests under a sanitizer. Each sanitizer gets its own build
# tree so the instrumented objects never pollute the regular build/.
#
#   address    full tier-1 suite under AddressSanitizer (+ leak check)
#   undefined  full tier-1 suite under UndefinedBehaviorSanitizer
#   thread     the threading-sensitive subset (parallel_test, simd_kernel_test,
#              kernel_equivalence_test, smfl_monotonicity_property_test,
#              fold_in_serving_test, telemetry_test, crash_recovery_test,
#              observed_index_test, obs_endpoint_test, smfl_oracle_test)
#              under ThreadSanitizer, with SMFL_THREADS=4 so the pool is
#              actually exercised even on a single-core machine;
#              obs_endpoint_test races the HTTP exporter thread against a
#              live fit, exactly the interleaving TSan exists to check
#
# Usage: tools/run_sanitizers.sh [address|undefined|thread]
# With no argument, address and undefined run in sequence (the tier-1
# gate); thread is opt-in because TSan's runtime overhead is large.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
sanitizers=("${1:-address}" )
if [[ $# -eq 0 ]]; then
  sanitizers=(address undefined)
fi

for san in "${sanitizers[@]}"; do
  case "$san" in
    address|undefined|thread) ;;
    *)
      echo "unknown sanitizer '$san' (want address, undefined, or thread)" >&2
      exit 2
      ;;
  esac

  # Some toolchains ship without TSan runtime support. Probe with a trivial
  # program and skip (exit 0, with an explicit marker line) rather than fail:
  # tools/run_checks.sh greps for "SKIPPED" and records the skip in
  # CHECKS.json so the gate stays honest about what actually ran.
  if [[ "$san" == thread ]]; then
    probe_dir="$(mktemp -d)"
    trap 'rm -rf "$probe_dir"' EXIT
    echo 'int main(){return 0;}' > "$probe_dir/probe.cc"
    if ! "${CXX:-c++}" -fsanitize=thread "$probe_dir/probe.cc" \
         -o "$probe_dir/probe" >/dev/null 2>&1; then
      echo "==> thread: SKIPPED (toolchain lacks ThreadSanitizer support)"
      continue
    fi
  fi

  build_dir="$repo_root/build-$san"
  echo "==> configuring $san sanitizer build in $build_dir"
  cmake -B "$build_dir" -S "$repo_root" -DSMFL_SANITIZE="$san" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  echo "==> building ($san)"
  cmake --build "$build_dir" -j "$(nproc)"
  echo "==> running tests ($san)"
  case "$san" in
    address)
      ASAN_OPTIONS=detect_leaks=1 ctest --test-dir "$build_dir" \
          --output-on-failure -j
      ;;
    undefined)
      UBSAN_OPTIONS=print_stacktrace=1 ctest --test-dir "$build_dir" \
          --output-on-failure -j
      ;;
    thread)
      SMFL_THREADS=4 TSAN_OPTIONS=halt_on_error=1 \
          ctest --test-dir "$build_dir" --output-on-failure \
          -R '^(parallel_test|simd_kernel_test|kernel_equivalence_test|smfl_monotonicity_property_test|fold_in_serving_test|telemetry_test|crash_recovery_test|observed_index_test|obs_endpoint_test|smfl_oracle_test)$'
      ;;
  esac
  echo "==> $san: PASSED"
done

echo "all sanitizer runs passed"
