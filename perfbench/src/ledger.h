// The traced run's per-layer ledger.
//
// A traced request replays the CLI's stage sequence through the library's
// public functions, with the program's telemetry on and a harness span
// around every stage (read -> normalise -> graph -> fit -> reconstruct ->
// write for impute; load -> read -> normalise -> fold-in -> reconstruct ->
// write for apply). Its output must be byte-identical to the CLI
// request's. Per-layer values come from those spans, from deltas of the
// program's own smfl.fit.* spans and parallel.* counters, and from one
// outside call of each fit kernel at the request's shapes.

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/spans.h"
#include "perfbench/src/workload.h"
#include "src/common/status.h"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in report order. A layer a workload does not run
// reads 0 there (the apply request does no fit iterations).
const std::vector<MetricDef>& PerLayerMetrics();

struct ReplayResult {
  smfl::Status status;
  // Values of this request, keyed by PerLayerMetrics() names. Set after
  // the run: cli.trace_coverage_pct and common.telemetry_overhead_pct.
  std::map<std::string, double> layers;
  double wall_ms = 0.0;       // the request span
  int64_t request_span = -1;  // its index in the recorder
};

// Replays one request. `model_path` is used by the apply workload only.
ReplayResult Replay(const WorkloadSpec& spec, const std::string& in_path,
                    const std::string& model_path,
                    const std::string& out_path, SpanRecorder& recorder,
                    int64_t request);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
