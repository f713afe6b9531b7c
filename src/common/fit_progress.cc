#include "src/common/fit_progress.h"

namespace smfl {

void FitProgress::Reset() {
  fit_active.store(false, std::memory_order_relaxed);
  attempt.store(0, std::memory_order_relaxed);
  iteration.store(0, std::memory_order_relaxed);
  max_iterations.store(0, std::memory_order_relaxed);
  objective.store(0.0, std::memory_order_relaxed);
  convergence_delta.store(0.0, std::memory_order_relaxed);
  checkpoint_generation.store(-1, std::memory_order_relaxed);
  foldin_rows.store(0, std::memory_order_relaxed);
  foldin_batches.store(0, std::memory_order_relaxed);
  updates.store(0, std::memory_order_relaxed);
}

FitProgress& GlobalFitProgress() {
  static FitProgress* progress = new FitProgress();  // leaked: readable
  return *progress;  // during static teardown, like the metrics registry
}

void PublishFitIteration(int64_t iteration, double objective, double delta) {
  FitProgress& p = GlobalFitProgress();
  p.iteration.store(iteration, std::memory_order_relaxed);
  p.objective.store(objective, std::memory_order_relaxed);
  p.convergence_delta.store(delta, std::memory_order_relaxed);
  p.updates.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace smfl
