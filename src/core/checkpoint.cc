#include "src/core/checkpoint.h"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <sstream>

#include "src/common/durable_io.h"
#include "src/common/fit_progress.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/common/telemetry.h"

namespace smfl::core {

uint64_t Fnv1a64(std::string_view bytes, uint64_t h) {
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

constexpr const char* kCheckpointMagic = "smfl-checkpoint";
// v2 adds best_u: the best-so-far model's U, which model files no longer
// carry. v1 checkpoints are refused (their best model was a v3 file).
constexpr int kCheckpointVersion = 2;

// Same hostile-header bounds as model_io: reject implausible dimensions
// before any allocation.
constexpr long long kMaxDim = 1LL << 24;
constexpr long long kMaxElems = 1LL << 27;
constexpr long long kMaxTraceLen = 1LL << 24;

// Section order of the checkpoint container.
constexpr const char* kSectionOrder[] = {
    "meta",    "u",       "v",          "landmarks",  "trace",  "guard",
    "guard_u", "guard_v", "normalizer", "best_model", "best_u"};
constexpr size_t kNumSections = sizeof(kSectionOrder) / sizeof(kSectionOrder[0]);

// Doubles travel as the hex of their IEEE-754 bit pattern: exact by
// construction (no decimal round-trip), fixed width, text-diffable.
std::string HexU64(uint64_t v) {
  return StrFormat("%016llx", static_cast<unsigned long long>(v));
}

bool ParseHexU64(std::istream& is, uint64_t* out) {
  std::string tok;
  if (!(is >> tok) || tok.empty() || tok.size() > 16) return false;
  uint64_t v = 0;
  for (char c : tok) {
    int d = 0;
    if (c >= '0' && c <= '9') {
      d = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      d = c - 'a' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<uint64_t>(d);
  }
  *out = v;
  return true;
}

std::string HexDouble(double v) { return HexU64(std::bit_cast<uint64_t>(v)); }

bool ParseHexDouble(std::istream& is, double* out) {
  uint64_t bits = 0;
  if (!ParseHexU64(is, &bits)) return false;
  *out = std::bit_cast<double>(bits);
  return true;
}

// Reads "tag" and verifies it matches.
bool ExpectTag(std::istream& is, const char* tag) {
  std::string tok;
  return (is >> tok) && tok == tag;
}

std::string EncodeMatrix(const la::Matrix& m) {
  std::string out = StrFormat("%lld %lld\n", static_cast<long long>(m.rows()),
                              static_cast<long long>(m.cols()));
  for (la::Index i = 0; i < m.rows(); ++i) {
    auto row = m.Row(i);
    for (la::Index j = 0; j < m.cols(); ++j) {
      out += HexDouble(row[static_cast<size_t>(j)]);
      out += (j + 1 < m.cols()) ? ' ' : '\n';
    }
  }
  return out;
}

Result<la::Matrix> DecodeMatrix(const std::string& payload, const char* name) {
  std::istringstream is(payload);
  long long rows = -1, cols = -1;
  if (!(is >> rows >> cols) || rows < 0 || cols < 0) {
    return Status::DataError(
        StrFormat("checkpoint: bad dimension header for '%s'", name));
  }
  if (rows > kMaxDim || cols > kMaxDim ||
      (rows > 0 && cols > kMaxElems / rows)) {
    return Status::DataError(StrFormat(
        "checkpoint: implausible dimensions %lldx%lld for '%s'", rows, cols,
        name));
  }
  la::Matrix m(static_cast<la::Index>(rows), static_cast<la::Index>(cols));
  for (la::Index i = 0; i < m.size(); ++i) {
    if (!ParseHexDouble(is, &m.data()[i])) {
      return Status::DataError(
          StrFormat("checkpoint: truncated matrix '%s'", name));
    }
  }
  return m;
}

std::string EncodeMeta(const FitCheckpoint& cp) {
  std::string out = StrFormat("%s %d\n", kCheckpointMagic, kCheckpointVersion);
  out += "seed " + HexU64(cp.seed) + "\n";
  out += "input_fingerprint " + HexU64(cp.input_fingerprint) + "\n";
  out += "options_fingerprint " + HexU64(cp.options_fingerprint) + "\n";
  out += "restart 0\n";
  out += StrFormat("attempt %d\n", cp.attempt);
  out += StrFormat("retries_used %d\n", cp.attempt);
  out += StrFormat("iteration %d\n", cp.iteration);
  out += "div_eps " + HexDouble(cp.div_eps) + "\n";
  out += StrFormat("spatial_cols %lld\n",
                   static_cast<long long>(cp.spatial_cols));
  return out;
}

Status DecodeMeta(const std::string& payload, FitCheckpoint* cp) {
  std::istringstream is(payload);
  std::string magic;
  int version = -1;
  if (!(is >> magic >> version) || magic != kCheckpointMagic) {
    return Status::DataError("checkpoint: bad magic");
  }
  if (version != kCheckpointVersion) {
    return Status::DataError(
        StrFormat("checkpoint: unsupported version %d", version));
  }
  long long spatial_cols = -1;
  int restart = -1, retries_used = -1;
  if (!ExpectTag(is, "seed") || !ParseHexU64(is, &cp->seed) ||
      !ExpectTag(is, "input_fingerprint") ||
      !ParseHexU64(is, &cp->input_fingerprint) ||
      !ExpectTag(is, "options_fingerprint") ||
      !ParseHexU64(is, &cp->options_fingerprint) ||
      !ExpectTag(is, "restart") || !(is >> restart) ||
      !ExpectTag(is, "attempt") || !(is >> cp->attempt) ||
      !ExpectTag(is, "retries_used") || !(is >> retries_used) ||
      !ExpectTag(is, "iteration") || !(is >> cp->iteration) ||
      !ExpectTag(is, "div_eps") || !ParseHexDouble(is, &cp->div_eps) ||
      !ExpectTag(is, "spatial_cols") || !(is >> spatial_cols)) {
    return Status::DataError("checkpoint: malformed meta section");
  }
  if (cp->attempt < 0 || cp->iteration < 0 || spatial_cols < 0 ||
      spatial_cols > kMaxDim) {
    return Status::DataError("checkpoint: meta fields out of range");
  }
  if (restart != 0 || retries_used != cp->attempt) {
    return Status::DataError(StrFormat(
        "checkpoint: position (restart %d, retries_used %d, attempt %d) "
        "was written by a multi-restart fit",
        restart, retries_used, cp->attempt));
  }
  cp->spatial_cols = static_cast<la::Index>(spatial_cols);
  return Status::OK();
}

std::string EncodeTrace(const std::vector<double>& trace) {
  std::string out = StrFormat("%zu\n", trace.size());
  for (double v : trace) {
    out += HexDouble(v);
    out += '\n';
  }
  return out;
}

Status DecodeTrace(const std::string& payload, std::vector<double>* trace) {
  std::istringstream is(payload);
  long long n = -1;
  if (!(is >> n) || n < 0 || n > kMaxTraceLen) {
    return Status::DataError("checkpoint: bad trace header");
  }
  trace->resize(static_cast<size_t>(n));
  for (double& v : *trace) {
    if (!ParseHexDouble(is, &v)) {
      return Status::DataError("checkpoint: truncated trace");
    }
  }
  return Status::OK();
}

// Guard scalars; the guard's snapshot matrices ride in their own
// sections (guard_u / guard_v).
std::string EncodeGuard(const TrainingGuard::State& g) {
  std::string out;
  out += "div_eps " + HexDouble(g.div_eps) + "\n";
  out += "prev_objective " + HexDouble(g.prev_objective) + "\n";
  out += "checkpoint_objective " + HexDouble(g.checkpoint_objective) + "\n";
  out += StrFormat("checkpoint_iteration %d\n", g.checkpoint_iteration);
  out += StrFormat("flags %d %d %d %d\n", g.have_checkpoint ? 1 : 0,
                   g.rebaseline ? 1 : 0, g.rollbacks, g.recovery_attempts);
  out += "rng " + HexU64(g.rng.s[0]) + " " + HexU64(g.rng.s[1]) + " " +
         HexU64(g.rng.s[2]) + " " + HexU64(g.rng.s[3]) +
         StrFormat(" %d ", g.rng.have_cached_normal ? 1 : 0) +
         HexU64(g.rng.cached_normal_bits) + "\n";
  return out;
}

Status DecodeGuard(const std::string& payload, TrainingGuard::State* g) {
  std::istringstream is(payload);
  int have_checkpoint = 0, rebaseline = 0, have_cached = 0;
  if (!ExpectTag(is, "div_eps") || !ParseHexDouble(is, &g->div_eps) ||
      !ExpectTag(is, "prev_objective") ||
      !ParseHexDouble(is, &g->prev_objective) ||
      !ExpectTag(is, "checkpoint_objective") ||
      !ParseHexDouble(is, &g->checkpoint_objective) ||
      !ExpectTag(is, "checkpoint_iteration") ||
      !(is >> g->checkpoint_iteration) || !ExpectTag(is, "flags") ||
      !(is >> have_checkpoint >> rebaseline >> g->rollbacks >>
        g->recovery_attempts) ||
      !ExpectTag(is, "rng") || !ParseHexU64(is, &g->rng.s[0]) ||
      !ParseHexU64(is, &g->rng.s[1]) || !ParseHexU64(is, &g->rng.s[2]) ||
      !ParseHexU64(is, &g->rng.s[3]) || !(is >> have_cached) ||
      !ParseHexU64(is, &g->rng.cached_normal_bits)) {
    return Status::DataError("checkpoint: malformed guard section");
  }
  g->have_checkpoint = have_checkpoint != 0;
  g->rebaseline = rebaseline != 0;
  g->rng.have_cached_normal = have_cached != 0;
  return Status::OK();
}

std::string EncodeNormalizer(
    const std::optional<data::MinMaxNormalizer>& normalizer) {
  if (!normalizer.has_value()) return "cols 0\n";
  std::string out = StrFormat(
      "cols %lld\n", static_cast<long long>(normalizer->NumCols()));
  for (la::Index j = 0; j < normalizer->NumCols(); ++j) {
    out += HexDouble(normalizer->ColMin(j)) + " " +
           HexDouble(normalizer->ColMax(j)) + "\n";
  }
  return out;
}

Status DecodeNormalizer(const std::string& payload,
                        std::optional<data::MinMaxNormalizer>* normalizer) {
  std::istringstream is(payload);
  long long cols = -1;
  if (!ExpectTag(is, "cols") || !(is >> cols) || cols < 0 || cols > kMaxDim) {
    return Status::DataError("checkpoint: bad normalizer header");
  }
  if (cols == 0) {
    normalizer->reset();
    return Status::OK();
  }
  std::vector<double> mins(static_cast<size_t>(cols));
  std::vector<double> maxs(static_cast<size_t>(cols));
  for (long long j = 0; j < cols; ++j) {
    if (!ParseHexDouble(is, &mins[static_cast<size_t>(j)]) ||
        !ParseHexDouble(is, &maxs[static_cast<size_t>(j)])) {
      return Status::DataError("checkpoint: truncated normalizer bounds");
    }
  }
  auto fitted =
      data::MinMaxNormalizer::FromBounds(std::move(mins), std::move(maxs));
  if (!fitted.ok()) {
    Status st = fitted.status();
    return st.WithContext("checkpoint normalizer");
  }
  *normalizer = std::move(fitted).value();
  return Status::OK();
}

}  // namespace

std::string SerializeCheckpoint(const FitCheckpoint& checkpoint) {
  SectionWriter writer;
  writer.Add("meta", EncodeMeta(checkpoint));
  writer.Add("u", EncodeMatrix(checkpoint.u));
  writer.Add("v", EncodeMatrix(checkpoint.v));
  writer.Add("landmarks", EncodeMatrix(checkpoint.landmarks));
  writer.Add("trace", EncodeTrace(checkpoint.objective_trace));
  writer.Add("guard", EncodeGuard(checkpoint.guard));
  writer.Add("guard_u", EncodeMatrix(checkpoint.guard.checkpoint_u));
  writer.Add("guard_v", EncodeMatrix(checkpoint.guard.checkpoint_v));
  writer.Add("normalizer", EncodeNormalizer(checkpoint.normalizer));
  writer.Add("best_model", "");
  writer.Add("best_u", EncodeMatrix(la::Matrix()));
  return writer.Finish();
}

Result<FitCheckpoint> DeserializeCheckpoint(const std::string& content) {
  ASSIGN_OR_RETURN(std::vector<Section> sections, ParseSections(content));
  if (sections.size() != kNumSections) {
    return Status::DataError(StrFormat(
        "checkpoint: expected %zu sections, found %zu", kNumSections,
        sections.size()));
  }
  for (size_t i = 0; i < kNumSections; ++i) {
    if (sections[i].name != kSectionOrder[i]) {
      return Status::DataError(StrFormat(
          "checkpoint: expected section '%s' at position %zu, found '%s'",
          kSectionOrder[i], i, sections[i].name.c_str()));
    }
  }
  FitCheckpoint cp;
  RETURN_NOT_OK(DecodeMeta(sections[0].payload, &cp));
  ASSIGN_OR_RETURN(cp.u, DecodeMatrix(sections[1].payload, "u"));
  ASSIGN_OR_RETURN(cp.v, DecodeMatrix(sections[2].payload, "v"));
  ASSIGN_OR_RETURN(cp.landmarks,
                   DecodeMatrix(sections[3].payload, "landmarks"));
  RETURN_NOT_OK(DecodeTrace(sections[4].payload, &cp.objective_trace));
  RETURN_NOT_OK(DecodeGuard(sections[5].payload, &cp.guard));
  ASSIGN_OR_RETURN(cp.guard.checkpoint_u,
                   DecodeMatrix(sections[6].payload, "guard_u"));
  ASSIGN_OR_RETURN(cp.guard.checkpoint_v,
                   DecodeMatrix(sections[7].payload, "guard_v"));
  RETURN_NOT_OK(DecodeNormalizer(sections[8].payload, &cp.normalizer));
  if (!sections[9].payload.empty() ||
      sections[10].payload != EncodeMatrix(la::Matrix())) {
    return Status::DataError(
        "checkpoint: a best-so-far model was written by a multi-restart fit");
  }
  // Structural consistency (the CRCs already vouch for integrity; these
  // catch a logically inconsistent writer).
  if (cp.u.cols() != cp.v.rows()) {
    return Status::DataError("checkpoint: U/V rank mismatch");
  }
  if (cp.spatial_cols > cp.v.cols()) {
    return Status::DataError("checkpoint: spatial_cols exceeds columns");
  }
  if (cp.objective_trace.empty()) {
    return Status::DataError("checkpoint: empty objective trace");
  }
  return cp;
}

// ---------------------------------------------------------------------------
// CheckpointManager

namespace {

std::string GenerationPath(const std::string& dir, long long generation) {
  return StrFormat("%s/checkpoint-%08lld.smfl", dir.c_str(), generation);
}

// Generation numbers present in `dir`, sorted ascending. A missing or
// unreadable directory is just "no generations".
std::vector<long long> ListGenerations(const std::string& dir) {
  std::vector<long long> generations;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return generations;
  constexpr std::string_view kPrefix = "checkpoint-";
  constexpr std::string_view kSuffix = ".smfl";
  while (dirent* entry = ::readdir(d)) {
    std::string_view name = entry->d_name;
    if (name.size() <= kPrefix.size() + kSuffix.size()) continue;
    if (name.substr(0, kPrefix.size()) != kPrefix) continue;
    if (name.substr(name.size() - kSuffix.size()) != kSuffix) continue;
    std::string_view digits = name.substr(
        kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size());
    long long generation = 0;
    bool numeric = !digits.empty();
    for (char c : digits) {
      if (c < '0' || c > '9' || generation > kMaxDim) {
        numeric = false;
        break;
      }
      generation = generation * 10 + (c - '0');
    }
    if (numeric) generations.push_back(generation);
  }
  ::closedir(d);
  std::sort(generations.begin(), generations.end());
  return generations;
}

// mkdir -p: creates every missing component of `dir`.
Status EnsureDirExists(const std::string& dir) {
  if (dir.empty()) {
    return Status::InvalidArgument("checkpoint directory is empty");
  }
  for (size_t pos = 1; pos <= dir.size(); ++pos) {
    if (pos != dir.size() && dir[pos] != '/') continue;
    const std::string prefix = dir.substr(0, pos);
    if (::mkdir(prefix.c_str(), 0777) != 0 && errno != EEXIST) {
      return Status::IoError(StrFormat("mkdir('%s'): %s", prefix.c_str(),
                                       std::strerror(errno)));
    }
  }
  return Status::OK();
}

}  // namespace

CheckpointManager::CheckpointManager(CheckpointConfig config)
    : config_(std::move(config)) {}

Status CheckpointManager::Save(const FitCheckpoint& checkpoint) {
  SMFL_TRACE_SPAN("checkpoint.write");
  const int64_t start_us = telemetry::NowMicros();
  if (next_generation_ < 0) {
    RETURN_NOT_OK(EnsureDirExists(config_.dir));
    const auto generations = ListGenerations(config_.dir);
    next_generation_ = generations.empty() ? 0 : generations.back() + 1;
  }
  // Stamp the training normalizer in unless the caller carried its own.
  const FitCheckpoint* to_write = &checkpoint;
  FitCheckpoint stamped;
  if (normalizer_ != nullptr && !checkpoint.normalizer.has_value()) {
    stamped = checkpoint;
    stamped.normalizer = *normalizer_;
    to_write = &stamped;
  }
  const std::string bytes = SerializeCheckpoint(*to_write);
  const long long generation = next_generation_;
  Status st = WriteFileDurable(GenerationPath(config_.dir, generation), bytes);
  if (!st.ok()) {
    SMFL_COUNTER_INC("smfl.checkpoint.failures");
    return st;
  }
  ++next_generation_;
  ++writes_;
  // /statusz reports the generation a --resume would restart from.
  GlobalFitProgress().checkpoint_generation.store(generation,
                                                  std::memory_order_relaxed);
  SMFL_COUNTER_INC("smfl.checkpoint.writes");
  SMFL_HISTOGRAM_RECORD("smfl.checkpoint.bytes",
                        static_cast<double>(bytes.size()));
  SMFL_HISTOGRAM_RECORD(
      "smfl.checkpoint.write_us",
      static_cast<double>(telemetry::NowMicros() - start_us));
  if (config_.keep > 0) {
    for (long long old : ListGenerations(config_.dir)) {
      if (old > generation - config_.keep) continue;
      const std::string path = GenerationPath(config_.dir, old);
      if (::unlink(path.c_str()) != 0) {
        SMFL_LOG(Warning) << "checkpoint rotation: cannot remove '" << path
                          << "': " << std::strerror(errno);
      }
    }
  }
  // Periodic telemetry flush: the trace and metrics observed so far
  // survive the same crash the checkpoint protects against.
  if (telemetry::Enabled()) {
    if (!config_.trace_flush_path.empty()) {
      Status flush = telemetry::TraceRecorder::Global().WriteChromeTrace(
          config_.trace_flush_path);
      if (!flush.ok()) {
        SMFL_LOG(Warning) << "checkpoint trace flush: " << flush.ToString();
      }
    }
    if (!config_.metrics_flush_path.empty()) {
      Status flush = telemetry::MetricsRegistry::Global().WriteMetricsJsonl(
          config_.metrics_flush_path);
      if (!flush.ok()) {
        SMFL_LOG(Warning) << "checkpoint metrics flush: " << flush.ToString();
      }
    }
  }
  if (post_write_hook_) post_write_hook_(writes_);
  return Status::OK();
}

Result<FitCheckpoint> CheckpointManager::LoadLatest() {
  SMFL_TRACE_SPAN("checkpoint.restore");
  const auto generations = ListGenerations(config_.dir);
  if (generations.empty()) {
    return Status::NotFound("no checkpoints in '" + config_.dir + "'");
  }
  Status last_error = Status::OK();
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    const std::string path = GenerationPath(config_.dir, *it);
    Result<FitCheckpoint> cp = Status::Internal("unread");
    auto content = ReadFileToString(path);
    cp = content.ok() ? DeserializeCheckpoint(content.value())
                      : Result<FitCheckpoint>(content.status());
    if (cp.ok()) {
      next_generation_ = *it + 1;
      SMFL_COUNTER_INC("smfl.checkpoint.restores");
      return cp;
    }
    SMFL_COUNTER_INC("smfl.checkpoint.corrupt_skipped");
    SMFL_LOG(Warning) << "skipping unreadable checkpoint '" << path
                      << "': " << cp.status().ToString();
    last_error = cp.status();
  }
  Status st = last_error;
  st.WithContext(StrFormat("all %zu checkpoint generation(s) in '%s' are "
                           "unreadable",
                           generations.size(), config_.dir.c_str()));
  return st;
}

}  // namespace smfl::core
