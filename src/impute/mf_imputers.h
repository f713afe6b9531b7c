// Matrix-factorization-backed imputers: MC (SVT), SoftImpute, NMF, and the
// paper's SMF / SMFL (wrapping src/core).

#ifndef SMFL_IMPUTE_MF_IMPUTERS_H_
#define SMFL_IMPUTE_MF_IMPUTERS_H_

#include "src/core/smfl.h"
#include "src/impute/imputer.h"
#include "src/mf/softimpute.h"
#include "src/mf/svt.h"

namespace smfl::impute {

// MC [10]: nuclear-norm matrix completion via SVT.
class McImputer : public Imputer {
 public:
  explicit McImputer(mf::SvtOptions options = {}) : options_(options) {}
  std::string name() const override { return "MC"; }
  Result<Matrix> Impute(const Matrix& x, const Mask& observed,
                        Index spatial_cols) const override;

 private:
  mf::SvtOptions options_;
};

// SoftImpute [35].
class SoftImputeImputer : public Imputer {
 public:
  explicit SoftImputeImputer(mf::SoftImputeOptions options = {})
      : options_(options) {}
  std::string name() const override { return "SoftImpute"; }
  Result<Matrix> Impute(const Matrix& x, const Mask& observed,
                        Index spatial_cols) const override;

 private:
  mf::SoftImputeOptions options_;
};

// Plain masked NMF [41] — no spatial information at all: the core loop
// with lambda = 0 and no landmarks, both pinned by the constructor.
class NmfImputer : public Imputer {
 public:
  // NMF's own default seed (3), not SmflOptions' 23.
  NmfImputer();
  explicit NmfImputer(core::SmflOptions options);
  std::string name() const override { return "NMF"; }
  Result<Matrix> Impute(const Matrix& x, const Mask& observed,
                        Index spatial_cols) const override;

 private:
  core::SmflOptions options_;
};

// SMF: NMF + spatial regularization, no landmarks (Problem 1).
class SmfImputer : public Imputer {
 public:
  explicit SmfImputer(core::SmflOptions options = core::SmflOptions{});
  std::string name() const override { return "SMF"; }
  Result<Matrix> Impute(const Matrix& x, const Mask& observed,
                        Index spatial_cols) const override;

 private:
  core::SmflOptions options_;
};

// SMFL: the paper's full method (Problem 2).
class SmflImputer : public Imputer {
 public:
  explicit SmflImputer(core::SmflOptions options = core::SmflOptions{});
  std::string name() const override { return "SMFL"; }
  Result<Matrix> Impute(const Matrix& x, const Mask& observed,
                        Index spatial_cols) const override;

 private:
  core::SmflOptions options_;
};

}  // namespace smfl::impute

#endif  // SMFL_IMPUTE_MF_IMPUTERS_H_
