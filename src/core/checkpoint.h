// Crash-safe training checkpoints with bitwise-identical resume.
//
// A long fit killed at iteration 400 of 500 used to mean starting over.
// The fit loop can instead hand a CheckpointManager a FitCheckpoint every
// `every` iterations: the COMPLETE solver state — factors, landmarks,
// objective trace, the TrainingGuard's internal state (including its Rng
// stream), the escalated denominator floor, and the RetryPolicy attempt —
// plus fingerprints of the input and options.
// Restoring that state replays the exact trajectory the uninterrupted run
// would have taken: `smfl fit --resume` produces a model file that is
// byte-for-byte identical to the never-killed run at any thread count
// (tests/crash_recovery_test.cc SIGKILLs real fits to prove it).
//
// Durability comes from src/common/durable_io.h: every checkpoint is one
// CRC32-section-framed container written with the atomic temp-file +
// fsync + rename protocol, so a crash mid-write can never destroy the
// previous generation, and a corrupted generation is detected at load and
// skipped in favor of the one before it (rotation keeps `keep`
// generations). Doubles travel as hex-encoded IEEE-754 bit patterns —
// exact by construction, no decimal round-trip involved.
//
// Format v2 still carries the fields of the restart loop the fit once had.
// The writer fixes them (restart 0, retries_used = attempt, an empty best
// model and a 0x0 best U), so checkpoints resume under builds from either
// side of that change; the reader refuses any other values.
//
// Telemetry (docs/observability.md): spans `checkpoint.write` /
// `checkpoint.restore`; histograms `smfl.checkpoint.bytes`,
// `smfl.checkpoint.write_us`; counters `smfl.checkpoint.writes`,
// `.failures`, `.restores`, `.corrupt_skipped`. When the config carries
// flush paths, the in-memory Chrome trace and metrics snapshot are also
// durably rewritten at every checkpoint, so telemetry survives the same
// crashes the model state does.

#ifndef SMFL_CORE_CHECKPOINT_H_
#define SMFL_CORE_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/core/training_guard.h"
#include "src/data/normalize.h"
#include "src/la/matrix.h"

namespace smfl::core {

// FNV-1a 64-bit over raw bytes; the building block of the input/options
// fingerprints below. Chain by passing the previous hash as `h`.
uint64_t Fnv1a64(std::string_view bytes,
                 uint64_t h = 0xcbf29ce484222325ULL);

// One resumable fit state, as captured at the end of an accepted
// iteration. Everything the trajectory depends on is here; nothing is
// recomputed on resume except R_Ω(UV), which is a pure deterministic
// function of (U, V, mask).
struct FitCheckpoint {
  // -- identity / validation ------------------------------------------
  // The OUTER FitSmfl seed (not the derived per-attempt seed).
  uint64_t seed = 0;
  // FNV-1a over the normalized input bytes + mask + spatial_cols, and
  // over the trajectory-relevant SmflOptions fields. Resume refuses a
  // checkpoint whose fingerprints do not match the live call — resuming
  // against different data or options would silently produce a model
  // that matches neither run.
  uint64_t input_fingerprint = 0;
  uint64_t options_fingerprint = 0;

  // -- position in the retry / iteration nest -------------------------
  int attempt = 0;    // RetryPolicy attempt (0-based)
  int iteration = 0;  // last ACCEPTED iteration; resume runs iteration+1

  // -- solver state ----------------------------------------------------
  double div_eps = 0.0;  // fit-loop denominator floor (guard-escalated)
  la::Matrix u;
  la::Matrix v;
  la::Matrix landmarks;
  la::Index spatial_cols = 0;
  std::vector<double> objective_trace;  // accepted trajectory incl. initial
  TrainingGuard::State guard;

  // Training normalizer, stamped in by CheckpointManager::SetNormalizer
  // so `smfl fit --resume` serves the SAME normalization space without
  // re-deriving it (absent when fitting pre-normalized matrices).
  std::optional<data::MinMaxNormalizer> normalizer;
};

// Checkpoint <-> durable-io container bytes. Deserialize verifies
// structure and every section CRC, returning DataError on any corruption.
std::string SerializeCheckpoint(const FitCheckpoint& checkpoint);
Result<FitCheckpoint> DeserializeCheckpoint(const std::string& content);

struct CheckpointConfig {
  // Directory the generations live in (created on first write).
  std::string dir;
  // Iterations between checkpoint writes (a write fires after accepted
  // iteration i when (i + 1) % every == 0). <= 0 disables writing.
  int every = 10;
  // Generations retained; older files are unlinked after each write.
  int keep = 3;
  // When non-empty, the Chrome trace / metrics snapshot are durably
  // rewritten at every checkpoint (the CLI passes --trace-out /
  // --metrics-out here so telemetry survives a crash too).
  std::string trace_flush_path;
  std::string metrics_flush_path;
};

// Owns one checkpoint directory: numbering, rotation, corrupt-generation
// fallback. Not thread-safe; the fit loop calls it from one thread.
class CheckpointManager {
 public:
  explicit CheckpointManager(CheckpointConfig config);

  const CheckpointConfig& config() const { return config_; }

  // True when the fit loop should checkpoint after accepted iteration i.
  bool ShouldCheckpoint(int iteration) const {
    return config_.every > 0 && (iteration + 1) % config_.every == 0;
  }

  // Serializes, durably writes generation N+1, rotates old generations,
  // flushes telemetry when configured, then invokes the post-write hook.
  // The normalizer set via SetNormalizer is stamped into the checkpoint
  // when it carries none.
  Status Save(const FitCheckpoint& checkpoint);

  // Newest readable generation. Corrupt generations (CRC mismatch, torn
  // write, bad structure) are logged, counted, and skipped in favor of
  // the previous one. NotFound when the directory holds no checkpoints;
  // DataError when every generation is corrupt. Subsequent Saves number
  // after the loaded generation.
  Result<FitCheckpoint> LoadLatest();

  // Normalizer to stamp into saved checkpoints (not owned; must outlive
  // the manager's Save calls). nullptr clears.
  void SetNormalizer(const data::MinMaxNormalizer* normalizer) {
    normalizer_ = normalizer;
  }

  // Test-and-crash-harness hook, called after every successful durable
  // write with the cumulative write count (the crash test raises SIGKILL
  // from it to kill a real fit at a known checkpoint boundary).
  void SetPostWriteHook(std::function<void(int)> hook) {
    post_write_hook_ = std::move(hook);
  }

  int writes() const { return writes_; }

 private:
  CheckpointConfig config_;
  const data::MinMaxNormalizer* normalizer_ = nullptr;
  std::function<void(int)> post_write_hook_;
  int writes_ = 0;
  long long next_generation_ = -1;  // -1: directory not scanned yet
};

}  // namespace smfl::core

#endif  // SMFL_CORE_CHECKPOINT_H_
