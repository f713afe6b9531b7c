#include "src/core/training_guard.h"

#include <cmath>

#include "src/common/strings.h"

namespace smfl::core {

TrainingGuard::TrainingGuard(const GuardOptions& options, bool check_monotonic,
                             uint64_t seed, double div_eps)
    : options_(options),
      check_monotonic_(check_monotonic),
      div_eps_(div_eps),
      // Distinct stream from the fit's init Rng so recovery draws never
      // alias the initialization sequence.
      rng_(seed ^ 0xf00dfeedULL) {}

bool TrainingGuard::IsViolation(double objective) const {
  if (!std::isfinite(objective)) return true;
  if (!check_monotonic_ || !have_checkpoint_ || rebaseline_) return false;
  const double slack =
      kObjectiveSlack * std::max(1.0, std::fabs(prev_objective_));
  return objective > prev_objective_ + slack;
}

Result<TrainingGuard::Action> TrainingGuard::Observe(int iteration,
                                                     double objective,
                                                     la::Matrix* u,
                                                     la::Matrix* v) {
  if (!options_.enabled) return Action::kProceed;

  bool violation = IsViolation(objective);
  const bool due_for_checkpoint =
      !have_checkpoint_ || rebaseline_ ||
      iteration - checkpoint_iteration_ >= options_.checkpoint_interval;
  if (!violation && due_for_checkpoint) {
    // Never snapshot a state with hidden non-finite factor entries (they
    // can evade the objective through the observation mask).
    if (u->HasNonFinite() || v->HasNonFinite()) {
      violation = true;
    } else {
      checkpoint_u_ = *u;
      checkpoint_v_ = *v;
      checkpoint_objective_ = objective;
      checkpoint_iteration_ = iteration;
      have_checkpoint_ = true;
      rebaseline_ = false;
    }
  }
  if (!violation) {
    prev_objective_ = objective;
    return Action::kProceed;
  }

  ++recovery_attempts_;
  if (recovery_attempts_ > options_.max_recovery_attempts || !have_checkpoint_) {
    return Status::NumericError(StrFormat(
        "invariant violation at iteration %d (objective %g, last good "
        "objective %g at iteration %d) after %d recovery attempt(s)",
        iteration, objective, checkpoint_objective_, checkpoint_iteration_,
        recovery_attempts_ - 1));
  }

  // Roll back to the last good checkpoint.
  *u = checkpoint_u_;
  *v = checkpoint_v_;
  ++rollbacks_;

  // Escalate: every recovery widens the denominator floor; from the second
  // attempt on, also jitter U to leave the bad basin. V stays at the
  // checkpoint exactly — its leading columns may be frozen landmarks.
  div_eps_ *= kEpsBump;
  if (recovery_attempts_ >= 2) {
    for (la::Index i = 0; i < u->size(); ++i) {
      u->data()[i] *= 1.0 + kPerturbation * rng_.Uniform();
    }
  }
  // The restored (possibly perturbed) state becomes the new baseline on the
  // next healthy Observe.
  rebaseline_ = true;
  prev_objective_ = checkpoint_objective_;
  return Action::kRolledBack;
}

TrainingGuard::State TrainingGuard::SaveState() const {
  State state;
  state.div_eps = div_eps_;
  state.prev_objective = prev_objective_;
  state.checkpoint_objective = checkpoint_objective_;
  state.checkpoint_iteration = checkpoint_iteration_;
  state.have_checkpoint = have_checkpoint_;
  state.rebaseline = rebaseline_;
  state.rollbacks = rollbacks_;
  state.recovery_attempts = recovery_attempts_;
  state.rng = rng_.GetState();
  state.checkpoint_u = checkpoint_u_;
  state.checkpoint_v = checkpoint_v_;
  return state;
}

void TrainingGuard::RestoreState(const State& state) {
  div_eps_ = state.div_eps;
  prev_objective_ = state.prev_objective;
  checkpoint_objective_ = state.checkpoint_objective;
  checkpoint_iteration_ = state.checkpoint_iteration;
  have_checkpoint_ = state.have_checkpoint;
  rebaseline_ = state.rebaseline;
  rollbacks_ = state.rollbacks;
  recovery_attempts_ = state.recovery_attempts;
  rng_.SetState(state.rng);
  checkpoint_u_ = state.checkpoint_u;
  checkpoint_v_ = state.checkpoint_v;
}

}  // namespace smfl::core
