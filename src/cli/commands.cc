#include "src/cli/commands.h"

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <thread>

#include "src/core/checkpoint.h"
#include "src/core/fold_in.h"
#include "src/core/model_io.h"
#include "src/core/model_selection.h"

#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/common/shutdown.h"
#include "src/common/strings.h"
#include "src/common/telemetry.h"
#include "src/obs/exporter.h"
#include "src/data/csv.h"
#include "src/data/normalize.h"
#include "src/data/quantile_normalize.h"
#include "src/data/stats.h"
#include "src/impute/fallback.h"
#include "src/impute/mf_imputers.h"
#include "src/impute/registry.h"
#include "src/repair/detector.h"
#include "src/repair/fallback.h"
#include "src/repair/repairer.h"

namespace smfl::cli {

namespace {

using data::Mask;
using la::Index;
using la::Matrix;

std::string MethodList(const std::vector<std::string>& names) {
  return Join(names, ", ");
}

struct LoadedCsv {
  data::Table table;
  Mask observed;
  Index spatial_cols = 0;
};

// Shared --in / --spatial / --lenient handling. With --lenient, malformed
// rows are quarantined instead of failing the file; the quarantine summary
// is appended to *output. `default_spatial` is used when --spatial is
// absent (`apply` passes the loaded model's spatial column count).
Result<LoadedCsv> LoadInput(const Flags& flags, std::string* output,
                            int64_t default_spatial = 2) {
  const std::string in_path = flags.GetString("in", "");
  if (in_path.empty()) {
    return Status::InvalidArgument("--in=<file.csv> is required");
  }
  ASSIGN_OR_RETURN(int64_t spatial, flags.GetInt("spatial", default_spatial));
  if (spatial < 1) {
    return Status::InvalidArgument("--spatial must be >= 1");
  }
  ASSIGN_OR_RETURN(bool lenient, flags.GetBool("lenient", false));
  data::CsvReadOptions read_options;
  read_options.spatial_cols = static_cast<Index>(spatial);
  read_options.mode =
      lenient ? data::CsvMode::kLenient : data::CsvMode::kStrict;
  ASSIGN_OR_RETURN(data::CsvTable csv, data::ReadCsv(in_path, read_options));
  if (!csv.row_errors.empty()) {
    *output += StrFormat("quarantined %zu malformed row(s) of '%s':\n",
                         csv.row_errors.size(), in_path.c_str());
    *output += data::FormatRowErrors(csv.row_errors);
  }
  if (csv.table.NumCols() <= read_options.spatial_cols) {
    return Status::InvalidArgument(
        "--spatial leaves no attribute columns in '" + in_path + "'");
  }
  return LoadedCsv{std::move(csv.table), std::move(csv.observed),
                   read_options.spatial_cols};
}

// A column without a single observed cell gives a fit nothing to learn it
// from: its "imputed" values would be fabricated (zeros after min-max
// normalization). impute, fit and select refuse such input by name; apply
// does not, because there the model supplies what a fresh batch lacks.
Status RequireObservedCellInEveryColumn(const LoadedCsv& input) {
  const std::vector<std::string>& names = input.table.column_names();
  for (Index j = 0; j < input.table.NumCols(); ++j) {
    bool observed = false;
    for (Index i = 0; i < input.table.NumRows() && !observed; ++i) {
      observed = input.observed.Contains(i, j);
    }
    if (!observed) {
      return Status::DataError(StrFormat(
          "column '%s' has no observed cells; nothing can be learned for it "
          "(drop the column or supply values)",
          names[static_cast<size_t>(j)].c_str()));
    }
  }
  return Status::OK();
}

// Normalizes the input from its observed cells, imputes, and maps the
// completed matrix back to the input's units, the observed cells keeping
// their exact original values — the cli.normalize and cli.reconstruct
// trace stages around the imputer's own.
template <typename Normalizer, typename Impute>
Result<Matrix> NormalizeImputeRestore(const LoadedCsv& input,
                                      const Impute& impute) {
  std::optional<Normalizer> normalizer;
  Matrix normalized;
  {
    SMFL_TRACE_SPAN("cli.normalize");
    ASSIGN_OR_RETURN(normalizer, Normalizer::Fit(input.table.values(),
                                                 input.observed));
    normalized = data::ApplyMask(normalizer->Transform(input.table.values()),
                                 input.observed);
  }
  ASSIGN_OR_RETURN(Matrix completed, impute(normalized));
  SMFL_TRACE_SPAN("cli.reconstruct");
  return data::CombineByMask(input.table.values(),
                             normalizer->InverseTransform(completed),
                             input.observed);
}

// Parses --fallback=a,b,c into a degradation chain (empty flag = absent).
std::vector<std::string> FallbackChainFromFlags(const Flags& flags,
                                                std::vector<std::string> dflt) {
  const std::string spec = flags.GetString("fallback", "");
  if (spec.empty()) return dflt;
  std::vector<std::string> chain;
  for (const std::string& tier : Split(spec, ',')) {
    std::string trimmed(Trim(tier));
    if (!trimmed.empty()) chain.push_back(std::move(trimmed));
  }
  return chain;
}

// Appends the degradation-chain outcome to the report.
void AppendDegradation(const mf::DegradationReport& report,
                       std::string* output) {
  if (report.attempts.empty()) return;
  *output += StrFormat("degradation chain: %s\n", report.ToString().c_str());
  if (report.degraded()) {
    *output += StrFormat(
        "WARNING: primary method failed; result served by fallback tier "
        "'%s'\n",
        report.served_by.c_str());
  }
}

// Applies the SMFL-family tuning flags to an imputer choice. Non-SMFL
// methods ignore them (they are registry defaults).
Result<std::unique_ptr<impute::Imputer>> MakeTunedImputer(
    const Flags& flags) {
  const std::string method = flags.GetString("method", "SMFL");
  const std::string key = ToLower(method);
  if (key == "fallback" || flags.Has("fallback")) {
    return std::unique_ptr<impute::Imputer>(new impute::FallbackImputer(
        FallbackChainFromFlags(flags, impute::DefaultFallbackChain())));
  }
  if (key == "smfl" || key == "smf") {
    core::SmflOptions options;
    ASSIGN_OR_RETURN(int64_t rank, flags.GetInt("rank", options.rank));
    ASSIGN_OR_RETURN(double lambda,
                     flags.GetDouble("lambda", options.lambda));
    ASSIGN_OR_RETURN(int64_t neighbors,
                     flags.GetInt("neighbors", options.num_neighbors));
    options.rank = static_cast<Index>(rank);
    options.lambda = lambda;
    options.num_neighbors = static_cast<Index>(neighbors);
    if (key == "smf") {
      return std::unique_ptr<impute::Imputer>(
          new impute::SmfImputer(options));
    }
    return std::unique_ptr<impute::Imputer>(
        new impute::SmflImputer(options));
  }
  return impute::MakeImputer(method);
}

}  // namespace

std::string UsageText() {
  return
      "usage: smfl <command> [flags]\n"
      "\n"
      "commands:\n"
      "  impute  --in=data.csv --out=completed.csv [--method=SMFL]\n"
      "          [--spatial=2] [--rank=10] [--lambda=0.5] [--neighbors=3]\n"
      "          [--normalizer=minmax|quantile]\n"
      "          [--fallback=SMFL,SMF,NMF,Mean]\n"
      "          fill the empty cells of a CSV\n"
      "  repair  --in=data.csv --out=repaired.csv [--method=SMFL]\n"
      "          [--spatial=2] [--fallback=SMFL,SMF,NMF,HoloClean]\n"
      "          detect suspicious cells statistically and repair them\n"
      "  stats   --in=data.csv [--spatial=2]\n"
      "          print column statistics and missing-data summary\n"
      "  fit     --in=train.csv --model=model.txt [--spatial=2] [--rank=10]\n"
      "          [--lambda=0.5] [--neighbors=3] [--seed=23]\n"
      "          [--checkpoint-dir=ckpt/]\n"
      "          [--checkpoint-every=10] [--checkpoint-keep=3] [--resume]\n"
      "          train an SMFL model and save it; with --checkpoint-dir the\n"
      "          fit durably snapshots its full state every N iterations,\n"
      "          and --resume continues a killed fit to the bitwise-\n"
      "          identical final model (corrupt checkpoints are detected\n"
      "          by CRC and fall back to the previous generation)\n"
      "  apply   --in=fresh.csv --model=model.txt --out=completed.csv\n"
      "          impute fresh rows against a saved model (batched fold-in\n"
      "          in the model's training normalization space, with a\n"
      "          per-row serving-tier report)\n"
      "  select  --in=data.csv [--spatial=2]\n"
      "          grid-search lambda/K on a validation holdout and print\n"
      "          the recommended flags\n"
      "\n"
      "shared flags (a flag the command does not read is refused):\n"
      "  --threads=N worker threads for the numeric kernels (default:\n"
      "              SMFL_THREADS env, else hardware concurrency).\n"
      "              Results are bitwise identical at any setting\n"
      "  --lenient   quarantine malformed CSV rows instead of failing the\n"
      "              file; the quarantine report is printed per row\n"
      "  --fallback=a,b,c   impute and repair: graceful degradation, try\n"
      "              each method in order until one serves, and report the\n"
      "              serving tier\n"
      "  --log-level=debug|info|warning|error   log threshold (default:\n"
      "              info)\n"
      "  --trace-out=trace.json   write a Chrome trace-event file (open in\n"
      "              chrome://tracing or https://ui.perfetto.dev) with the\n"
      "              run's spans; implies telemetry collection\n"
      "  --metrics-out=metrics.jsonl   write the metrics snapshot (one JSON\n"
      "              object per line); implies telemetry collection\n"
      "  --metrics-port=N   serve live observability over HTTP while the\n"
      "              command runs (0 picks an ephemeral port, logged at\n"
      "              startup): /metrics is Prometheus text exposition,\n"
      "              /healthz liveness, and /statusz live fit progress JSON\n"
      "              (iteration, objective, convergence delta, checkpoint\n"
      "              generation, ETA). Implies telemetry collection; see\n"
      "              docs/observability.md.\n"
      "              SMFL_METRICS_LINGER_MS=N keeps the endpoints up that\n"
      "              long after the command finishes (scrape race buffer)\n"
      "\n"
      "imputation methods: " +
      MethodList(impute::RegisteredImputers()) +
      "\n"
      "repair methods:     " +
      MethodList(repair::RegisteredRepairers()) + "\n";
}

// Trace stages of `smfl impute` (docs/observability.md): under the root
// cli.impute, data.read_csv, cli.normalize, the fit's smfl.graph,
// smfl.fit (with smfl.fit.init and the iterations) and smfl.reconstruct,
// then cli.reconstruct and data.write_csv.
Status RunImputeCommand(const Flags& flags, std::string* output) {
  SMFL_TRACE_SPAN("cli.impute");
  ASSIGN_OR_RETURN(LoadedCsv input, LoadInput(flags, output));
  RETURN_NOT_OK(RequireObservedCellInEveryColumn(input));
  const std::string out_path = flags.GetString("out", "");
  if (out_path.empty()) {
    return Status::InvalidArgument("--out=<file.csv> is required");
  }
  const Index missing = input.observed.Complement().Count();
  if (missing == 0) {
    *output += "input has no missing cells; writing it back unchanged\n";
    return data::WriteCompletedCsv(out_path, input.table, input.observed);
  }
  ASSIGN_OR_RETURN(auto imputer, MakeTunedImputer(flags));
  // Degradation chains report which tier actually served the result.
  mf::DegradationReport degradation;
  const auto* fallback =
      dynamic_cast<const impute::FallbackImputer*>(imputer.get());
  const auto run_imputer = [&](const Matrix& normalized) {
    return fallback ? fallback->ImputeWithReport(normalized, input.observed,
                                                 input.spatial_cols,
                                                 &degradation)
                    : imputer->Impute(normalized, input.observed,
                                      input.spatial_cols);
  };

  // Normalize from observed cells, impute, restore units. The quantile
  // normalizer is the robust choice when columns carry outliers.
  const std::string normalizer_name =
      ToLower(flags.GetString("normalizer", "minmax"));
  Result<Matrix> restored = Status::InvalidArgument(
      "--normalizer must be 'minmax' or 'quantile'");
  if (normalizer_name == "quantile") {
    restored =
        NormalizeImputeRestore<data::QuantileNormalizer>(input, run_imputer);
  } else if (normalizer_name == "minmax") {
    restored =
        NormalizeImputeRestore<data::MinMaxNormalizer>(input, run_imputer);
  }
  if (!restored.ok()) return restored.status();
  ASSIGN_OR_RETURN(
      data::Table out_table,
      data::Table::Create(input.table.column_names(),
                          std::move(restored).value(), input.spatial_cols));
  RETURN_NOT_OK(data::WriteCompletedCsv(out_path, out_table, input.observed));
  AppendDegradation(degradation, output);
  *output += StrFormat("imputed %lld cells with %s -> %s\n",
                       static_cast<long long>(missing),
                       imputer->name().c_str(), out_path.c_str());
  return Status::OK();
}

Status RunRepairCommand(const Flags& flags, std::string* output) {
  SMFL_TRACE_SPAN("cli.repair");
  ASSIGN_OR_RETURN(LoadedCsv input, LoadInput(flags, output));
  const std::string out_path = flags.GetString("out", "");
  if (out_path.empty()) {
    return Status::InvalidArgument("--out=<file.csv> is required");
  }
  if (input.observed.Complement().Count() != 0) {
    return Status::FailedPrecondition(
        "repair expects a complete CSV (run `smfl impute` first)");
  }
  std::string method = flags.GetString("method", "SMFL");
  if (flags.Has("fallback")) method = "Fallback";
  std::unique_ptr<repair::Repairer> repairer;
  if (ToLower(method) == "fallback") {
    repairer = std::make_unique<repair::FallbackRepairer>(
        FallbackChainFromFlags(flags, repair::DefaultRepairFallbackChain()));
  } else {
    ASSIGN_OR_RETURN(repairer, repair::MakeRepairer(method));
  }

  data::MinMaxNormalizer normalizer;
  Matrix normalized;
  {
    SMFL_TRACE_SPAN("cli.normalize");
    ASSIGN_OR_RETURN(normalizer,
                     data::MinMaxNormalizer::Fit(input.table.values()));
    normalized = normalizer.Transform(input.table.values());
  }
  ASSIGN_OR_RETURN(repair::DetectionResult detection,
                   repair::DetectErrors(normalized, input.spatial_cols));
  if (detection.flagged.Count() == 0) {
    *output += "no suspicious cells detected; writing input unchanged\n";
    return data::WriteCompletedCsv(out_path, input.table, input.observed);
  }
  mf::DegradationReport degradation;
  const auto* fallback =
      dynamic_cast<const repair::FallbackRepairer*>(repairer.get());
  Matrix repaired;
  if (fallback) {
    ASSIGN_OR_RETURN(repaired, fallback->RepairWithReport(
                                   normalized, detection.flagged,
                                   input.spatial_cols, &degradation));
  } else {
    ASSIGN_OR_RETURN(repaired,
                     repairer->Repair(normalized, detection.flagged,
                                      input.spatial_cols));
  }
  AppendDegradation(degradation, output);
  // Clean cells keep their exact original values.
  const Mask clean = detection.flagged.Complement();
  Matrix restored;
  {
    SMFL_TRACE_SPAN("cli.reconstruct");
    restored = data::CombineByMask(input.table.values(),
                                   normalizer.InverseTransform(repaired),
                                   clean);
  }
  ASSIGN_OR_RETURN(
      data::Table out_table,
      data::Table::Create(input.table.column_names(), std::move(restored),
                          input.spatial_cols));
  RETURN_NOT_OK(data::WriteCompletedCsv(out_path, out_table, clean));
  *output += StrFormat(
      "flagged %lld suspicious cells (outlier %lld / cross-column %lld / "
      "spatial %lld signals); repaired with %s -> %s\n",
      static_cast<long long>(detection.flagged.Count()),
      static_cast<long long>(detection.outlier_flags),
      static_cast<long long>(detection.surprise_flags),
      static_cast<long long>(detection.spatial_flags),
      repairer->name().c_str(), out_path.c_str());
  return Status::OK();
}

Status RunStatsCommand(const Flags& flags, std::string* output) {
  SMFL_TRACE_SPAN("cli.stats");
  ASSIGN_OR_RETURN(LoadedCsv input, LoadInput(flags, output));
  const Index total = input.table.NumRows() * input.table.NumCols();
  *output += StrFormat(
      "%lld rows x %lld columns (%lld spatial); %lld of %lld cells "
      "observed\n\n",
      static_cast<long long>(input.table.NumRows()),
      static_cast<long long>(input.table.NumCols()),
      static_cast<long long>(input.spatial_cols),
      static_cast<long long>(input.observed.Count()),
      static_cast<long long>(total));
  ASSIGN_OR_RETURN(
      auto stats,
      data::ComputeAllColumnStats(input.table.values(), input.observed));
  *output += data::FormatStatsTable(input.table.column_names(), stats);
  return Status::OK();
}

Status RunFitCommand(const Flags& flags, std::string* output) {
  SMFL_TRACE_SPAN("cli.fit");
  ASSIGN_OR_RETURN(LoadedCsv input, LoadInput(flags, output));
  RETURN_NOT_OK(RequireObservedCellInEveryColumn(input));
  const std::string model_path = flags.GetString("model", "");
  if (model_path.empty()) {
    return Status::InvalidArgument("--model=<file> is required");
  }
  core::SmflOptions options;
  ASSIGN_OR_RETURN(int64_t rank, flags.GetInt("rank", options.rank));
  ASSIGN_OR_RETURN(double lambda, flags.GetDouble("lambda", options.lambda));
  ASSIGN_OR_RETURN(int64_t neighbors,
                   flags.GetInt("neighbors", options.num_neighbors));
  ASSIGN_OR_RETURN(int64_t seed,
                   flags.GetInt("seed", static_cast<int64_t>(options.seed)));
  if (seed < 0) {
    return Status::InvalidArgument("--seed must be >= 0");
  }
  options.rank = static_cast<Index>(rank);
  options.lambda = lambda;
  options.num_neighbors = static_cast<Index>(neighbors);
  options.seed = static_cast<uint64_t>(seed);

  // Crash-safe checkpointing (docs/robustness.md).
  const std::string checkpoint_dir = flags.GetString("checkpoint-dir", "");
  ASSIGN_OR_RETURN(int64_t checkpoint_every,
                   flags.GetInt("checkpoint-every", 10));
  ASSIGN_OR_RETURN(int64_t checkpoint_keep, flags.GetInt("checkpoint-keep", 3));
  ASSIGN_OR_RETURN(bool resume, flags.GetBool("resume", false));
  if (resume && checkpoint_dir.empty()) {
    return Status::InvalidArgument("--resume requires --checkpoint-dir=<dir>");
  }
  if (!checkpoint_dir.empty() &&
      (checkpoint_every < 1 || checkpoint_keep < 1)) {
    return Status::InvalidArgument(
        "--checkpoint-every and --checkpoint-keep must be >= 1");
  }

  // The saved model operates in normalized [0, 1] space. The fitted
  // normalizer is persisted inside the model (format v2+) so `apply`
  // transforms fresh rows with the TRAINING ranges — re-fitting the
  // ranges on a fresh batch would silently shift every reconstruction.
  data::MinMaxNormalizer normalizer;
  {
    SMFL_TRACE_SPAN("cli.normalize");
    ASSIGN_OR_RETURN(normalizer, data::MinMaxNormalizer::Fit(
                                     input.table.values(), input.observed));
  }

  std::optional<core::CheckpointManager> manager;
  std::optional<core::FitCheckpoint> resume_state;
  if (!checkpoint_dir.empty()) {
    core::CheckpointConfig config;
    config.dir = checkpoint_dir;
    config.every = static_cast<int>(checkpoint_every);
    config.keep = static_cast<int>(checkpoint_keep);
    // Flush the telemetry sinks at every checkpoint so the trace/metrics
    // observed so far survive the same crashes the model state does.
    config.trace_flush_path = flags.GetString("trace-out", "");
    config.metrics_flush_path = flags.GetString("metrics-out", "");
    manager.emplace(std::move(config));
    manager->SetNormalizer(&normalizer);
    // Deterministic crash hook for the kill-mid-fit harness
    // (tests/crash_recovery_test.cc): SMFL_CRASH_AFTER_CHECKPOINTS=N
    // SIGKILLs the process right after the N-th durable checkpoint write.
    if (const char* crash_after =
            std::getenv("SMFL_CRASH_AFTER_CHECKPOINTS")) {
      const int crash_count = std::atoi(crash_after);
      if (crash_count > 0) {
        manager->SetPostWriteHook([crash_count](int writes) {
          if (writes >= crash_count) std::raise(SIGKILL);
        });
      }
    }
    options.checkpoint = &*manager;
    if (resume) {
      auto latest = manager->LoadLatest();
      if (latest.ok()) {
        resume_state = std::move(latest).value();
        // The checkpointed normalizer is the TRAINING one; the resumed
        // fit must keep normalizing into that exact space.
        if (resume_state->normalizer.has_value()) {
          normalizer = *resume_state->normalizer;
        }
        options.resume_from = &*resume_state;
        *output += StrFormat(
            "resuming from checkpoint in '%s' (attempt %d, iteration %d)\n",
            checkpoint_dir.c_str(), resume_state->attempt,
            resume_state->iteration);
      } else if (latest.status().code() == StatusCode::kNotFound) {
        *output += StrFormat(
            "--resume: no checkpoint found in '%s'; starting fresh\n",
            checkpoint_dir.c_str());
      } else {
        // Every retained generation is corrupt/unreadable — surface it
        // rather than silently refitting from scratch.
        return latest.status();
      }
    }
  }

  Matrix normalized;
  {
    SMFL_TRACE_SPAN("cli.normalize");
    normalized = data::ApplyMask(normalizer.Transform(input.table.values()),
                                 input.observed);
  }
  ASSIGN_OR_RETURN(core::SmflModel model,
                   core::FitSmfl(normalized, input.observed,
                                 input.spatial_cols, options));
  model.normalizer = std::move(normalizer);
  model.column_names = input.table.column_names();
  RETURN_NOT_OK(core::SaveModel(model, model_path));
  *output += StrFormat(
      "fit SMFL (K=%lld, lambda=%g, p=%lld) on %lld rows in %d iterations; "
      "model -> %s\n",
      static_cast<long long>(options.rank), options.lambda,
      static_cast<long long>(options.num_neighbors),
      static_cast<long long>(input.table.NumRows()),
      model.report.iterations, model_path.c_str());
  return Status::OK();
}

// Trace stages of `smfl apply` (docs/observability.md): under the root
// cli.apply, core.load_model, data.read_csv, cli.normalize (the training
// ranges and the clamp), foldin.batch, cli.reconstruct and data.write_csv.
Status RunApplyCommand(const Flags& flags, std::string* output) {
  SMFL_TRACE_SPAN("cli.apply");
  const std::string model_path = flags.GetString("model", "");
  const std::string out_path = flags.GetString("out", "");
  if (model_path.empty() || out_path.empty()) {
    return Status::InvalidArgument(
        "--model=<file> and --out=<file.csv> are required");
  }
  // The model is loaded FIRST: it fixes both the spatial column count and
  // the normalization space the fresh rows must be transformed into.
  ASSIGN_OR_RETURN(core::SmflModel model, core::LoadModel(model_path));
  if (flags.Has("spatial")) {
    ASSIGN_OR_RETURN(int64_t spatial_flag, flags.GetInt("spatial", 2));
    if (spatial_flag != static_cast<int64_t>(model.spatial_cols)) {
      return Status::InvalidArgument(StrFormat(
          "--spatial=%lld contradicts the model's %lld spatial column(s); "
          "the model fixes which columns are coordinates — drop the flag "
          "or pass --spatial=%lld",
          static_cast<long long>(spatial_flag),
          static_cast<long long>(model.spatial_cols),
          static_cast<long long>(model.spatial_cols)));
    }
  }
  ASSIGN_OR_RETURN(
      LoadedCsv input,
      LoadInput(flags, output, static_cast<int64_t>(model.spatial_cols)));
  if (model.v.cols() != input.table.NumCols()) {
    return Status::InvalidArgument(StrFormat(
        "model has %lld columns but '%s' has %lld",
        static_cast<long long>(model.v.cols()),
        flags.GetString("in", "").c_str(),
        static_cast<long long>(input.table.NumCols())));
  }
  // Columns are matched by position: a batch whose columns arrive in
  // another order would be normalized with the wrong training ranges and
  // folded against the wrong columns of V. Models that carry the training
  // header (written by `smfl fit` since format v4) refuse it.
  for (size_t j = 0; j < model.column_names.size(); ++j) {
    const std::string& trained = model.column_names[j];
    const std::string& fresh = input.table.column_names()[j];
    if (trained != fresh) {
      return Status::InvalidArgument(StrFormat(
          "column %zu of '%s' is '%s' but the model was trained with '%s' "
          "there; columns must arrive in the training order",
          j + 1, flags.GetString("in", "").c_str(), fresh.c_str(),
          trained.c_str()));
    }
  }

  // Transform fresh rows into the model's normalization space: the
  // TRAINING ranges; observed values outside them are clamped into [0, 1]
  // (fold-in would otherwise reject the negatives a shifted batch
  // produces). A model saved without ranges (fit in process on
  // pre-normalized data) falls back to a per-batch re-fit with a loud
  // warning.
  data::MinMaxNormalizer normalizer;
  Matrix normalized;
  {
    SMFL_TRACE_SPAN("cli.normalize");
    if (model.normalizer.has_value()) {
      normalizer = *model.normalizer;
    } else {
      *output +=
          "WARNING: model file stores no normalizer; re-fitting "
          "normalization ranges on this batch. Reconstructions are only "
          "correct when the batch spans the training ranges — refit the "
          "model with `smfl fit` to fix this.\n";
      ASSIGN_OR_RETURN(
          normalizer,
          data::MinMaxNormalizer::Fit(input.table.values(), input.observed));
    }
    normalized = normalizer.Transform(input.table.values());
    long long clamped = 0;
    for (Index i = 0; i < normalized.rows(); ++i) {
      for (Index j = 0; j < normalized.cols(); ++j) {
        if (!input.observed.Contains(i, j)) continue;
        double& v = normalized(i, j);
        if (v < 0.0) {
          v = 0.0;
          ++clamped;
        } else if (v > 1.0) {
          v = 1.0;
          ++clamped;
        }
      }
    }
    if (clamped > 0) {
      SMFL_COUNTER_ADD("serving.clamped_cells", clamped);
      *output += StrFormat(
          "clamped %lld observed cell(s) outside the training ranges into "
          "[0, 1]\n",
          clamped);
    }
    normalized = data::ApplyMask(normalized, input.observed);
  }

  const core::FoldInOptions fold_options;
  core::FoldInReport report;
  ASSIGN_OR_RETURN(Matrix folded,
                   core::FoldIn(model, normalized, input.observed,
                                fold_options, &report));
  Matrix restored;
  {
    SMFL_TRACE_SPAN("cli.reconstruct");
    // Observed cells keep their exact original values.
    restored = data::CombineByMask(input.table.values(),
                                   normalizer.InverseTransform(folded),
                                   input.observed);
  }
  ASSIGN_OR_RETURN(
      data::Table out_table,
      data::Table::Create(input.table.column_names(), std::move(restored),
                          input.spatial_cols));
  RETURN_NOT_OK(data::WriteCompletedCsv(out_path, out_table, input.observed));
  // The tier report walks every row's outcome.
  SMFL_TRACE_SPAN("cli.report");
  *output += StrFormat("folded %lld rows against %s -> %s\n",
                       static_cast<long long>(input.table.NumRows()),
                       model_path.c_str(), out_path.c_str());
  *output += StrFormat(
      "serving tiers: %s; %lld solved row(s) ran the %d-iteration cap\n",
      report.ToString().c_str(),
      static_cast<long long>(report.CountAtCap(fold_options.max_iterations)),
      fold_options.max_iterations);
  constexpr Index kMaxDegradedLines = 8;
  Index printed = 0;
  for (const core::FoldInRowOutcome& outcome : report.rows) {
    if (outcome.status.ok()) continue;
    if (printed++ >= kMaxDegradedLines) continue;
    *output += StrFormat("  row %lld: %s (served by %s)\n",
                         static_cast<long long>(outcome.row),
                         outcome.status.message().c_str(),
                         core::FoldInTierName(outcome.served_by));
  }
  if (printed > kMaxDegradedLines) {
    *output += StrFormat("  ... and %lld more degraded row(s)\n",
                         static_cast<long long>(printed - kMaxDegradedLines));
  }
  return Status::OK();
}

Status RunSelectCommand(const Flags& flags, std::string* output) {
  SMFL_TRACE_SPAN("cli.select");
  ASSIGN_OR_RETURN(LoadedCsv input, LoadInput(flags, output));
  RETURN_NOT_OK(RequireObservedCellInEveryColumn(input));
  Matrix normalized;
  {
    SMFL_TRACE_SPAN("cli.normalize");
    ASSIGN_OR_RETURN(
        data::MinMaxNormalizer normalizer,
        data::MinMaxNormalizer::Fit(input.table.values(), input.observed));
    normalized = data::ApplyMask(normalizer.Transform(input.table.values()),
                                 input.observed);
  }
  core::SelectionGrid grid;
  auto selection = core::SelectSmflOptions(normalized, input.observed,
                                           input.spatial_cols, grid);
  if (!selection.ok()) return selection.status();
  *output += StrFormat("%-28s %s\n", "candidate", "validation RMS");
  for (const auto& c : selection->candidates) {
    *output += StrFormat("lambda=%-6g K=%-4lld p=%-3lld %10.4f%s\n",
                         c.lambda, static_cast<long long>(c.rank),
                         static_cast<long long>(c.num_neighbors),
                         c.validation_rms,
                         c.validation_rms == selection->best_validation_rms
                             ? "  <- best"
                             : "");
  }
  *output += StrFormat(
      "\nrecommended: --rank=%lld --lambda=%g --neighbors=%lld\n",
      static_cast<long long>(selection->best.rank), selection->best.lambda,
      static_cast<long long>(selection->best.num_neighbors));
  return Status::OK();
}

namespace {

// The subcommands, each with the flags it reads besides Run's shared ones.
// Run refuses any other flag by name before any work starts, so a
// misspelt or retired flag cannot silently run a default.
constexpr char kSharedFlags[] =
    "threads log-level trace-out metrics-out metrics-port";
constexpr struct Command {
  std::string_view name;
  Status (*run)(const Flags& flags, std::string* output);
  const char* flags;  // space-separated
} kCommands[] = {
    {"impute", RunImputeCommand,
     "in spatial lenient out method fallback normalizer rank lambda "
     "neighbors"},
    {"repair", RunRepairCommand, "in spatial lenient out method fallback"},
    {"stats", RunStatsCommand, "in spatial lenient"},
    {"fit", RunFitCommand,
     "in spatial lenient model rank lambda neighbors seed checkpoint-dir "
     "checkpoint-every checkpoint-keep resume"},
    {"apply", RunApplyCommand, "in spatial lenient model out"},
    {"select", RunSelectCommand, "in spatial lenient"},
};

}  // namespace

Status Run(const Flags& flags, std::string* output) {
  if (flags.positional().empty()) {
    return Status::InvalidArgument(UsageText());
  }
  const std::string& name = flags.positional().front();
  const Command* command = nullptr;
  for (const Command& candidate : kCommands) {
    if (candidate.name == name) command = &candidate;
  }
  if (command == nullptr) {
    return Status::InvalidArgument("unknown command '" + name + "'\n" +
                                   UsageText());
  }
  const std::string known = StrFormat(" %s %s ", kSharedFlags, command->flags);
  for (const std::string& flag : flags.FlagNames()) {
    if (flag.find(' ') != std::string::npos ||
        known.find(" " + flag + " ") == std::string::npos) {
      return Status::InvalidArgument(StrFormat(
          "unknown flag --%s for 'smfl %s'", flag.c_str(), name.c_str()));
    }
  }
  const std::string log_level = flags.GetString("log-level", "");
  if (!log_level.empty()) {
    LogLevel level;
    if (!ParseLogLevel(log_level, &level)) {
      return Status::InvalidArgument(
          "--log-level must be debug, info, warning, or error");
    }
    SetLogLevel(level);
  }
  // Telemetry sinks. Asking for either file turns collection on.
  const std::string trace_out = flags.GetString("trace-out", "");
  const std::string metrics_out = flags.GetString("metrics-out", "");
  if (!trace_out.empty() || !metrics_out.empty()) {
    telemetry::SetEnabled(true);
  }
  // Global thread count for every parallel kernel this invocation runs.
  // SMFL_THREADS (read by the parallel layer) supplies the default; the
  // flag wins when both are present.
  ASSIGN_OR_RETURN(int64_t threads, flags.GetInt("threads", 0));
  if (threads < 0) {
    return Status::InvalidArgument("--threads must be >= 1 (or 0 for auto)");
  }
  if (threads > 0) parallel::SetParallelism(static_cast<int>(threads));
  // Live observability endpoints (docs/observability.md). Port 0 asks the
  // kernel for an ephemeral port, logged below so a wrapper script can
  // scrape it.
  obs::MetricsExporter exporter;
  if (flags.Has("metrics-port")) {
    ASSIGN_OR_RETURN(int64_t metrics_port, flags.GetInt("metrics-port", 0));
    if (metrics_port < 0 || metrics_port > 65535) {
      return Status::InvalidArgument("--metrics-port must be in [0, 65535]");
    }
    // The live endpoints only carry data while instruments record, so a
    // port implies collection.
    telemetry::SetEnabled(true);
    obs::MetricsExporter::Options exporter_options;
    exporter_options.port = static_cast<int>(metrics_port);
    RETURN_NOT_OK(exporter.Start(exporter_options));
    SMFL_LOG(Info) << "observability endpoints on http://127.0.0.1:"
                   << exporter.port()
                   << " (/metrics /healthz /statusz)";
  }
  Status status = command->run(flags, output);
  // Export runs even when the command failed — a trace of a failed run is
  // exactly what post-mortems want. The command's status still wins over
  // an export error.
  if (!trace_out.empty()) {
    auto& recorder = telemetry::TraceRecorder::Global();
    Status write = recorder.WriteChromeTrace(trace_out);
    if (!write.ok()) return status.ok() ? write : status;
    *output += StrFormat("trace (%zu events) -> %s\n", recorder.size(),
                         trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    Status write =
        telemetry::MetricsRegistry::Global().WriteMetricsJsonl(metrics_out);
    if (!write.ok()) return status.ok() ? write : status;
    *output += StrFormat("metrics -> %s\n", metrics_out.c_str());
  }
  if (exporter.running()) {
    // Optionally keep the endpoints up after the command finishes so a
    // wrapper scraping concurrently (tools/run_checks.sh obs-scrape) never
    // races process exit. A shutdown signal cuts the linger short.
    long long linger_ms = 0;
    if (const char* env = std::getenv("SMFL_METRICS_LINGER_MS")) {
      linger_ms = std::atoll(env);
    }
    const int64_t linger_deadline_us =
        telemetry::NowMicros() + linger_ms * 1000;
    while (linger_ms > 0 && telemetry::NowMicros() < linger_deadline_us &&
           !ShutdownRequested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    exporter.Stop();
  }
  return status;
}

}  // namespace smfl::cli
