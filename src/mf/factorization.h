// Shared types for iterative matrix factorization solvers.

#ifndef SMFL_MF_FACTORIZATION_H_
#define SMFL_MF_FACTORIZATION_H_

#include <string>
#include <vector>

#include "src/la/matrix.h"

namespace smfl::mf {

using la::Index;
using la::Matrix;

// Denominator floor for multiplicative update rules. Standard NMF practice:
// keeps iterates finite and nonnegative when a factor row/column dies.
inline constexpr double kDivEps = 1e-12;

// Which tier of a graceful-degradation chain (e.g. SMFL → SMF → NMF →
// column-mean) served a result, and why the tiers before it were skipped.
// Filled by the fallback imputers/repairers; empty when no chain ran.
struct DegradationReport {
  struct Attempt {
    std::string tier;
    std::string error;  // empty for the tier that served
  };

  std::string served_by;
  std::vector<Attempt> attempts;

  // True when at least one tier failed before one served.
  bool degraded() const {
    return !attempts.empty() &&
           (served_by.empty() || attempts.front().tier != served_by);
  }

  // "SMFL: <err>; SMF: <err>; NMF: served" (or "" when no chain ran).
  std::string ToString() const {
    std::string out;
    for (const Attempt& a : attempts) {
      if (!out.empty()) out += "; ";
      out += a.tier + ": " + (a.error.empty() ? "served" : a.error);
    }
    return out;
  }
};

// Progress record returned by every iterative solver. The objective trace is
// the hook for the paper's convergence guarantee: multiplicative updates
// must make it non-increasing (Propositions 5 and 7), which the test suite
// asserts.
struct FitReport {
  std::vector<double> objective_trace;
  int iterations = 0;
  bool converged = false;

  // TrainingGuard accounting (guarded solvers only): checkpoint rollbacks
  // taken and recovery escalations spent during this fit.
  int rollbacks = 0;
  int recovery_attempts = 0;
  // Extra single-seed fit attempts consumed by the RetryPolicy (0 when the
  // first attempt succeeded).
  int numeric_retries = 0;

  double final_objective() const {
    return objective_trace.empty() ? 0.0 : objective_trace.back();
  }
};

// Convergence test shared by the solvers: relative objective improvement.
inline bool RelativeImprovementBelow(const std::vector<double>& trace,
                                     double tolerance) {
  if (trace.size() < 2) return false;
  const double prev = trace[trace.size() - 2];
  const double cur = trace.back();
  const double denom = prev > 1e-300 ? prev : 1e-300;
  return (prev - cur) / denom < tolerance;
}

}  // namespace smfl::mf

#endif  // SMFL_MF_FACTORIZATION_H_
