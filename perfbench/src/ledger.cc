#include "perfbench/src/ledger.h"

#include <time.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <utility>

#include "perfbench/src/stats.h"
#include "src/common/telemetry.h"
#include "src/core/fold_in.h"
#include "src/core/landmarks.h"
#include "src/core/model_io.h"
#include "src/core/smfl.h"
#include "src/data/csv.h"
#include "src/data/mask.h"
#include "src/data/normalize.h"
#include "src/data/observed_index.h"
#include "src/la/ops.h"
#include "src/spatial/graph.h"

namespace perfbench {

using smfl::Status;
using smfl::la::Matrix;
namespace core = smfl::core;
namespace data = smfl::data;
namespace telemetry = smfl::telemetry;

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"core.fit_ms", "ms"},
      {"core.fit_iterations", "count"},
      {"core.fit_rollbacks", "count"},
      {"core.update_u_ms", "ms"},
      {"core.update_v_ms", "ms"},
      {"core.reconstruct_ms", "ms"},
      {"core.objective_guard_ms", "ms"},
      {"la.matmul_abt_ms", "ms"},
      {"data.masked_reconstruct_ms", "ms"},
      {"data.masked_sq_error_ms", "ms"},
      {"spatial.graph_apply_ms", "ms"},
      {"data.omega_cells", "count"},
      {"la.useful_flop_ratio", "ratio"},
      {"common.parallel_jobs", "count"},
      {"common.parallel_chunks", "count"},
      {"common.parallel_inline_runs", "count"},
      {"common.chunk_us_p50", "us"},
      {"common.parallel_efficiency", "ratio"},
      {"core.fit_caller_wait_ms", "ms"},
      {"core.load_model_ms", "ms"},
      {"core.model_bytes", "bytes"},
      {"data.read_csv_ms", "ms"},
      {"data.write_csv_ms", "ms"},
      {"data.write_csv_wait_ms", "ms"},
      {"core.fold_in_ms", "ms"},
      {"core.fold_in_groups", "count"},
      {"core.fold_in_degraded_rows", "count"},
      {"spatial.graph_build_ms", "ms"},
      {"cluster.landmarks_ms", "ms"},
      {"data.normalize_ms", "ms"},
      {"common.telemetry_overhead_pct", "%"},
      {"cli.trace_coverage_pct", "%"},
  };
  return kMetrics;
}

namespace {

double CpuMs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

// A harness span that closes when it leaves scope, so an early error
// return still ends it.
class Stage {
 public:
  Stage(SpanRecorder& rec, const char* name, int64_t parent, int64_t request)
      : rec_(rec), index_(rec.Begin(name, parent, request)) {}
  ~Stage() {
    if (open_) rec_.End(index_);
  }
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  // Ends the span; returns its duration in ms.
  double Close() {
    if (open_) rec_.End(index_);
    open_ = false;
    return rec_.spans()[static_cast<size_t>(index_)].duration_us() / 1e3;
  }
  int64_t index() const { return index_; }

 private:
  SpanRecorder& rec_;
  int64_t index_;
  bool open_ = true;
};

// Deltas of the program's registry over one request.
class RegistryDelta {
 public:
  using Snapshot = telemetry::MetricsRegistry::MetricsSnapshot;
  RegistryDelta(Snapshot before, Snapshot after)
      : before_(std::move(before)), after_(std::move(after)) {}

  double Counter(const std::string& name) const {
    return static_cast<double>(Find(after_.counters, name) -
                               Find(before_.counters, name));
  }
  // Summed span time of a histogram fed by a ScopedSpan, in ms.
  double SpanMs(const std::string& name) const {
    return (Hist(after_, name).sum - Hist(before_, name).sum) / 1e3;
  }
  // Median of the samples recorded in between, interpolated inside the
  // power-of-two bucket holding it; 0 without samples.
  double HistP50(const std::string& name) const {
    const auto a = Hist(after_, name), b = Hist(before_, name);
    const int64_t count = a.count - b.count;
    if (count <= 0) return 0.0;
    const double rank = 0.5 * static_cast<double>(count);
    int64_t seen = 0;
    for (int i = 0; i < telemetry::Histogram::kNumBuckets; ++i) {
      const int64_t in_bucket = a.bucket_counts[static_cast<size_t>(i)] -
                                b.bucket_counts[static_cast<size_t>(i)];
      if (in_bucket <= 0) continue;
      if (static_cast<double>(seen + in_bucket) >= rank) {
        const double lo = telemetry::Histogram::BucketLowerBound(i);
        const double hi = i + 1 < telemetry::Histogram::kNumBuckets
                              ? telemetry::Histogram::BucketLowerBound(i + 1)
                              : lo * 2.0;
        return lo + (hi - lo) * (rank - static_cast<double>(seen)) /
                        static_cast<double>(in_bucket);
      }
      seen += in_bucket;
    }
    return 0.0;
  }

 private:
  template <typename V>
  static V Find(const std::vector<std::pair<std::string, V>>& items,
                const std::string& name) {
    for (const auto& [n, v] : items) {
      if (n == name) return v;
    }
    return V{};
  }
  static telemetry::Histogram::Snapshot Hist(const Snapshot& s,
                                             const std::string& name) {
    return Find(s.histograms, name);
  }

  Snapshot before_;
  Snapshot after_;
};

// Median wall time of `reps` calls of fn, in ms.
template <typename Fn>
double TimeCallMs(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const double t0 = TraceNowUs();
    fn();
    ms.push_back((TraceNowUs() - t0) / 1e3);
  }
  return Median(ms);
}

constexpr int kKernelReps = 3;

// Kernel results land here so no call can be optimized away.
volatile double g_sink = 0.0;

// What the impute replay leaves for the outside kernel calls.
struct FitShapes {
  Matrix x;  // normalized input, unobserved cells zero
  data::Mask observed;
  Matrix si;
  core::SmflModel model;
  smfl::spatial::NeighborGraph graph;
  core::SmflOptions options;
};

Status ImputeStages(const WorkloadSpec& spec, const std::string& in_path,
                    const std::string& out_path, SpanRecorder& rec,
                    int64_t req, int64_t request,
                    std::map<std::string, double>& m, FitShapes& shapes) {
  data::CsvTable csv;
  {
    Stage s(rec, "data.read_csv", req, request);
    data::CsvReadOptions read_options;
    read_options.spatial_cols = 2;
    ASSIGN_OR_RETURN(csv, data::ReadCsv(in_path, read_options));
    m["data.read_csv_ms"] = s.Close();
  }
  const Matrix& values = csv.table.values();
  const data::Mask& observed = csv.observed;
  const smfl::la::Index n = values.rows(), cols = values.cols();
  data::MinMaxNormalizer normalizer;
  Matrix normalized;
  {
    Stage s(rec, "data.normalize", req, request);
    ASSIGN_OR_RETURN(normalizer, data::MinMaxNormalizer::Fit(values, observed));
    normalized = data::ApplyMask(normalizer.Transform(values), observed);
    m["data.normalize_ms"] = s.Close();
  }
  // The SMFL imputer's options as `smfl impute --threads=N` sets them.
  core::SmflOptions options;
  options.threads = spec.threads;
  options.use_landmarks = true;
  const smfl::la::Index spatial = csv.table.SpatialCols();
  {
    Stage s(rec, "spatial.graph_build", req, request);
    // FitSmfl's graph. Every generated row has both coordinates, so every
    // row is complete and none needs FitSmfl's partial-coordinate edges.
    const std::vector<bool> complete(static_cast<size_t>(n), true);
    shapes.si = normalized.Block(0, 0, n, spatial);
    const smfl::la::Index p =
        std::min(options.num_neighbors, std::max<smfl::la::Index>(1, n - 1));
    ASSIGN_OR_RETURN(shapes.graph, smfl::spatial::NeighborGraph::Build(
                                       shapes.si, p, complete));
    m["spatial.graph_build_ms"] = s.Close();
  }
  {
    Stage s(rec, "core.fit", req, request);
    const double caller_cpu0 = CpuMs(CLOCK_THREAD_CPUTIME_ID);
    ASSIGN_OR_RETURN(shapes.model,
                     core::FitSmflWithGraph(normalized, observed, spatial,
                                            shapes.graph, options));
    const double caller_cpu = CpuMs(CLOCK_THREAD_CPUTIME_ID) - caller_cpu0;
    m["core.fit_ms"] = s.Close();
    m["core.fit_caller_wait_ms"] = m["core.fit_ms"] - caller_cpu;
  }
  Matrix restored;
  {
    Stage s(rec, "core.reconstruct", req, request);
    Matrix completed = data::CombineByMask(
        normalized, shapes.model.Reconstruct(), observed);
    restored = data::CombineByMask(
        values, normalizer.InverseTransform(completed), observed);
    s.Close();
  }
  {
    Stage s(rec, "data.write_csv", req, request);
    const double cpu0 = CpuMs(CLOCK_THREAD_CPUTIME_ID);
    ASSIGN_OR_RETURN(data::Table out_table,
                     data::Table::Create(csv.table.column_names(),
                                         std::move(restored), spatial));
    RETURN_NOT_OK(data::WriteCsv(out_path, out_table));
    const double cpu = CpuMs(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    m["data.write_csv_ms"] = s.Close();
    m["data.write_csv_wait_ms"] = m["data.write_csv_ms"] - cpu;
  }
  const double omega = static_cast<double>(observed.Count());
  m["data.omega_cells"] = omega;
  m["la.useful_flop_ratio"] =
      omega / static_cast<double>(n * cols);
  m["core.fit_iterations"] = shapes.model.report.iterations;
  m["core.fit_rollbacks"] = shapes.model.report.rollbacks;
  shapes.x = std::move(normalized);
  shapes.observed = observed;
  shapes.options = options;
  return Status::OK();
}

// One outside call of each fit kernel at the request's shapes (median of
// kKernelReps), times its calls per fit: per iteration the U update runs
// two MatMulABt and MultiplyD + MultiplyW, the V update and the
// reconstruction one MaskedReconstruct each, and the objective one
// MaskedSquaredError and one LaplacianQuadraticForm; the fit adds one
// reconstruction and one objective before the first iteration.
void MeasureFitKernels(const FitShapes& s, std::map<std::string, double>& m) {
  const double iters = s.model.report.iterations;
  const data::ObservedIndex omega =
      data::ObservedIndex::FromMask(s.observed, s.x);
  double sink = 0.0;
  const double abt = TimeCallMs(kKernelReps, [&] {
    sink += smfl::la::MatMulABt(s.x, s.model.v)(0, 0);
  });
  Matrix uv;
  const double recon = TimeCallMs(kKernelReps, [&] {
    uv = data::MaskedReconstruct(s.model.u, s.model.v, omega);
  });
  const double sq = TimeCallMs(kKernelReps, [&] {
    sink += data::MaskedSquaredError(s.x, omega, uv);
  });
  const double dw = TimeCallMs(kKernelReps, [&] {
    sink += s.graph.MultiplyD(s.model.u)(0, 0);
    sink += s.graph.MultiplyW(s.model.u)(0, 0);
  });
  const double lqf = TimeCallMs(kKernelReps, [&] {
    sink += s.graph.LaplacianQuadraticForm(s.model.u);
  });
  core::LandmarkOptions lm;
  lm.kmeans_max_iterations = s.options.kmeans_max_iterations;
  lm.seed = s.options.seed;
  const double landmarks = TimeCallMs(kKernelReps, [&] {
    auto c = core::GenerateLandmarks(s.si, s.options.rank, lm);
    if (c.ok()) sink += (*c)(0, 0);
  });
  m["la.matmul_abt_ms"] = abt * 2.0 * iters;
  m["data.masked_reconstruct_ms"] = recon * (2.0 * iters + 1.0);
  m["data.masked_sq_error_ms"] = sq * (iters + 1.0);
  m["spatial.graph_apply_ms"] = dw * iters + lqf * (iters + 1.0);
  m["cluster.landmarks_ms"] = landmarks;
  g_sink = sink;
}

// Distinct observed-column patterns among rows fold-in can solve: the
// groups FoldIn shares one gemm across.
double ObservedPatterns(const data::Mask& observed) {
  std::set<std::vector<bool>> patterns;
  for (smfl::la::Index i = 0; i < observed.rows(); ++i) {
    std::vector<bool> row(static_cast<size_t>(observed.cols()));
    bool any = false;
    for (smfl::la::Index j = 0; j < observed.cols(); ++j) {
      row[static_cast<size_t>(j)] = observed.Contains(i, j);
      any = any || row[static_cast<size_t>(j)];
    }
    if (any) patterns.insert(std::move(row));
  }
  return static_cast<double>(patterns.size());
}

Status ApplyStages(const std::string& in_path, const std::string& model_path,
                   const std::string& out_path, SpanRecorder& rec,
                   int64_t req, int64_t request,
                   std::map<std::string, double>& m) {
  core::SmflModel model;
  {
    Stage s(rec, "core.load_model", req, request);
    ASSIGN_OR_RETURN(model, core::LoadModel(model_path));
    m["core.load_model_ms"] = s.Close();
  }
  std::error_code ec;
  m["core.model_bytes"] =
      static_cast<double>(std::filesystem::file_size(model_path, ec));
  if (!model.normalizer.has_value()) {
    return Status::FailedPrecondition("serving model has no normalizer");
  }
  data::CsvTable csv;
  {
    Stage s(rec, "data.read_csv", req, request);
    data::CsvReadOptions read_options;
    read_options.spatial_cols = model.spatial_cols;
    ASSIGN_OR_RETURN(csv, data::ReadCsv(in_path, read_options));
    m["data.read_csv_ms"] = s.Close();
  }
  const data::Mask& observed = csv.observed;
  Matrix normalized;
  {
    Stage s(rec, "data.normalize", req, request);
    // `smfl apply`: training ranges, observed cells clamped into [0, 1].
    normalized = model.normalizer->Transform(csv.table.values());
    for (smfl::la::Index i = 0; i < normalized.rows(); ++i) {
      for (smfl::la::Index j = 0; j < normalized.cols(); ++j) {
        if (!observed.Contains(i, j)) continue;
        normalized(i, j) = std::clamp(normalized(i, j), 0.0, 1.0);
      }
    }
    normalized = data::ApplyMask(normalized, observed);
    m["data.normalize_ms"] = s.Close();
  }
  Matrix folded;
  core::FoldInReport report;
  {
    Stage s(rec, "core.fold_in", req, request);
    ASSIGN_OR_RETURN(folded, core::FoldIn(model, normalized, observed,
                                          core::FoldInOptions{}, &report));
    m["core.fold_in_ms"] = s.Close();
  }
  m["core.fold_in_degraded_rows"] = static_cast<double>(report.DegradedCount());
  m["core.fold_in_groups"] = ObservedPatterns(observed);
  Matrix restored;
  {
    Stage s(rec, "core.reconstruct", req, request);
    restored = data::CombineByMask(csv.table.values(),
                                   model.normalizer->InverseTransform(folded),
                                   observed);
    s.Close();
  }
  {
    Stage s(rec, "data.write_csv", req, request);
    const double cpu0 = CpuMs(CLOCK_THREAD_CPUTIME_ID);
    ASSIGN_OR_RETURN(data::Table out_table,
                     data::Table::Create(csv.table.column_names(),
                                         std::move(restored),
                                         csv.table.SpatialCols()));
    RETURN_NOT_OK(data::WriteCsv(out_path, out_table));
    const double cpu = CpuMs(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    m["data.write_csv_ms"] = s.Close();
    m["data.write_csv_wait_ms"] = m["data.write_csv_ms"] - cpu;
  }
  const double omega = static_cast<double>(observed.Count());
  m["data.omega_cells"] = omega;
  m["la.useful_flop_ratio"] =
      omega / static_cast<double>(observed.rows() * observed.cols());
  return Status::OK();
}

}  // namespace

ReplayResult Replay(const WorkloadSpec& spec, const std::string& in_path,
                    const std::string& model_path,
                    const std::string& out_path, SpanRecorder& rec,
                    int64_t request) {
  ReplayResult r;
  for (const MetricDef& def : PerLayerMetrics()) r.layers[def.name] = 0.0;
  auto& registry = telemetry::MetricsRegistry::Global();
  telemetry::SetEnabled(true);
  auto before = registry.SnapshotAll();
  const double cpu0 = CpuMs(CLOCK_PROCESS_CPUTIME_ID);
  FitShapes shapes;
  {
    Stage req(rec, "perfbench.request", -1, request);
    r.request_span = req.index();
    r.status = spec.apply ? ApplyStages(in_path, model_path, out_path, rec,
                                        req.index(), request, r.layers)
                          : ImputeStages(spec, in_path, out_path, rec,
                                         req.index(), request, r.layers,
                                         shapes);
    r.wall_ms = req.Close();
  }
  const double cpu = CpuMs(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  telemetry::SetEnabled(false);
  const RegistryDelta delta(std::move(before), registry.SnapshotAll());
  if (!r.status.ok()) return r;
  auto& m = r.layers;
  m["core.update_u_ms"] = delta.SpanMs("smfl.fit.update_u");
  m["core.update_v_ms"] = delta.SpanMs("smfl.fit.update_v");
  m["core.reconstruct_ms"] = delta.SpanMs("smfl.fit.reconstruct");
  // Self time of the iteration span: its three child spans run one after
  // another inside it, on the calling thread.
  m["core.objective_guard_ms"] =
      delta.SpanMs("smfl.fit.iter") - m["core.update_u_ms"] -
      m["core.update_v_ms"] - m["core.reconstruct_ms"];
  m["common.parallel_jobs"] = delta.Counter("parallel.jobs");
  m["common.parallel_chunks"] = delta.Counter("parallel.chunks");
  m["common.parallel_inline_runs"] = delta.Counter("parallel.inline_runs");
  m["common.chunk_us_p50"] = delta.HistP50("parallel.chunk_us");
  m["common.parallel_efficiency"] =
      cpu / (static_cast<double>(spec.threads) * r.wall_ms);
  if (!spec.apply) MeasureFitKernels(shapes, m);
  return r;
}

}  // namespace perfbench
