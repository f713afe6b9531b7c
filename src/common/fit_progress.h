// Live fit/serving progress, published by the training and fold-in loops
// and read by the observability plane's /statusz endpoint (src/obs).
//
// The struct is a flat set of relaxed atomics: the writers (the FitSmfl
// iteration loop, FoldIn, CheckpointManager::Save) store individual fields
// with no ordering constraints, and the HTTP scrape thread loads them the
// same way. A scrape may therefore observe a torn *set* (iteration from
// step N, objective from step N-1) — fine for a progress display, and the
// price buys the fit loop a handful of uncontended stores per ITERATION
// (not per element), so publication is always on and has no determinism
// or performance consequence. Nothing here ever feeds numeric code.

#ifndef SMFL_COMMON_FIT_PROGRESS_H_
#define SMFL_COMMON_FIT_PROGRESS_H_

#include <atomic>
#include <cstdint>

namespace smfl {

struct FitProgress {
  // True while a FitSmfl attempt is inside its iteration loop.
  std::atomic<bool> fit_active{false};
  // RetryPolicy attempt of the running fit (0-based).
  std::atomic<int64_t> attempt{0};
  // Last completed iteration (1-based count) and the configured ceiling.
  std::atomic<int64_t> iteration{0};
  std::atomic<int64_t> max_iterations{0};
  // Objective after the most recent accepted iteration, and the relative
  // improvement over the one before it (the convergence criterion input).
  std::atomic<double> objective{0.0};
  std::atomic<double> convergence_delta{0.0};
  // Generation number of the most recent durable checkpoint (-1 = none).
  std::atomic<int64_t> checkpoint_generation{-1};
  // Serving-side progress: rows/batches folded in so far this process.
  std::atomic<int64_t> foldin_rows{0};
  std::atomic<int64_t> foldin_batches{0};
  // Bumped once per published update; lets a scraper distinguish "stuck"
  // from "between fits" without comparing every field.
  std::atomic<int64_t> updates{0};

  // Zeroes every field (tests; also called when a new fit begins so stale
  // state from a previous fit in the same process never shows).
  void Reset();
};

// The process-wide instance. Writers and readers share it; references are
// valid for the process lifetime.
FitProgress& GlobalFitProgress();

// Publishes one fit-loop step: bumps `updates` after storing the fields so
// pollers see the sequence advance.
void PublishFitIteration(int64_t iteration, double objective, double delta);

}  // namespace smfl

#endif  // SMFL_COMMON_FIT_PROGRESS_H_
