// TrainingGuard: checkpoint/rollback protection for the iterative solvers.
//
// The paper's multiplicative updates (Formulas 13/14) provably keep the
// objective non-increasing (Propositions 5/7), so a NaN/Inf objective or an
// objective *increase* mid-fit is an invariant violation — numeric
// breakdown, a dying factor row, or injected corruption. Instead of letting
// the violation poison the remaining iterations and abort the whole fit,
// the guard snapshots (U, V, objective) every `checkpoint_interval`
// iterations, detects violations as they happen, rolls the factors back to
// the last good checkpoint, and applies an escalating recovery policy:
//
//   attempt 1   — epsilon-floor bump: widen the multiplicative-update
//                 denominator floor by 1e4x so near-zero denominators stop
//                 amplifying rounding noise;
//   attempt 2+  — re-seeded perturbation: additionally jitter the restored
//                 factors multiplicatively (fresh Rng stream) to leave the
//                 bad basin;
//   exhausted   — give up with a NumericError carrying the violation
//                 iteration, the last good objective, and the attempt count.
//
// The monotonicity check applies only to update rules that guarantee it
// (kMultiplicative); NaN/Inf detection applies to every rule.

#ifndef SMFL_CORE_TRAINING_GUARD_H_
#define SMFL_CORE_TRAINING_GUARD_H_

#include <cstdint>
#include <string>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/la/matrix.h"

namespace smfl::core {

// Relative slack for the monotonicity check: an increase counts as a
// violation only beyond `kObjectiveSlack * max(1, |reference|)` —
// masked-update rounding legitimately wobbles at this scale.
inline constexpr double kObjectiveSlack = 1e-7;
// Multiplier applied to the denominator floor on each epsilon-floor bump.
inline constexpr double kEpsBump = 1e4;
// Relative magnitude of the re-seeded factor perturbation.
inline constexpr double kPerturbation = 0.05;

struct GuardOptions {
  // Master switch; disabled, the guard never snapshots or checks.
  bool enabled = true;
  // Iterations between checkpoint refreshes. Smaller = cheaper rollbacks
  // (less progress lost), more snapshot copies.
  int checkpoint_interval = 25;
  // Rollback + recovery attempts before the fit gives up.
  int max_recovery_attempts = 3;
};

class TrainingGuard {
 public:
  // `check_monotonic` gates the objective-increase check (true for
  // kMultiplicative only). `div_eps` seeds the denominator floor the guard
  // escalates on recovery.
  TrainingGuard(const GuardOptions& options, bool check_monotonic,
                uint64_t seed, double div_eps);

  bool enabled() const { return options_.enabled; }

  // What Observe decided.
  enum class Action {
    kProceed,     // state healthy; keep iterating
    kRolledBack,  // factors restored (and possibly perturbed); the caller
                  // must recompute the objective and skip the trace push
  };

  // Call once per iteration with the freshly updated factors and their
  // objective. On a violation this mutates *u / *v (rollback + recovery) and
  // escalates div_eps(); when the recovery budget is exhausted it returns a
  // NumericError describing the violation.
  Result<Action> Observe(int iteration, double objective, la::Matrix* u,
                         la::Matrix* v);

  // Current denominator floor for the multiplicative updates (grows with
  // each epsilon-floor bump).
  double div_eps() const { return div_eps_; }

  // Recovery accounting for FitReport.
  int rollbacks() const { return rollbacks_; }
  int recovery_attempts() const { return recovery_attempts_; }

  // Violation context for error messages.
  double last_good_objective() const { return checkpoint_objective_; }
  int last_good_iteration() const { return checkpoint_iteration_; }

  // Complete mutable guard state, capturable for crash-safe checkpoints
  // (src/core/checkpoint.*) and restorable bit-exactly: a resumed fit
  // makes the same rollback/recovery decisions — and, when perturbing,
  // draws the same jitter — as the uninterrupted run.
  struct State {
    double div_eps = 0.0;
    double prev_objective = 0.0;
    double checkpoint_objective = 0.0;
    int checkpoint_iteration = -1;
    bool have_checkpoint = false;
    bool rebaseline = false;
    int rollbacks = 0;
    int recovery_attempts = 0;
    RngState rng;
    la::Matrix checkpoint_u;
    la::Matrix checkpoint_v;
  };
  State SaveState() const;
  void RestoreState(const State& state);

 private:
  bool IsViolation(double objective) const;

  GuardOptions options_;
  bool check_monotonic_;
  double div_eps_;
  Rng rng_;

  la::Matrix checkpoint_u_;
  la::Matrix checkpoint_v_;
  double prev_objective_ = 0.0;
  double checkpoint_objective_ = 0.0;
  int checkpoint_iteration_ = -1;
  bool have_checkpoint_ = false;
  // Set right after a recovery: the next healthy Observe re-baselines the
  // checkpoint instead of comparing against the pre-recovery objective
  // (a perturbed restart may legitimately sit slightly above it).
  bool rebaseline_ = false;

  int rollbacks_ = 0;
  int recovery_attempts_ = 0;
};

}  // namespace smfl::core

#endif  // SMFL_CORE_TRAINING_GUARD_H_
