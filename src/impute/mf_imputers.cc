#include "src/impute/mf_imputers.h"

namespace smfl::impute {

Result<Matrix> McImputer::Impute(const Matrix& x, const Mask& observed,
                                 Index /*spatial_cols*/) const {
  ASSIGN_OR_RETURN(mf::SvtResult result,
                   mf::CompleteSvt(x, observed, options_));
  return data::CombineByMask(x, result.completed, observed);
}

Result<Matrix> SoftImputeImputer::Impute(const Matrix& x, const Mask& observed,
                                         Index /*spatial_cols*/) const {
  ASSIGN_OR_RETURN(mf::SoftImputeResult result,
                   mf::CompleteSoftImpute(x, observed, options_));
  return data::CombineByMask(x, result.completed, observed);
}

NmfImputer::NmfImputer() : NmfImputer(core::SmflOptions{}) {
  options_.seed = 3;
}

NmfImputer::NmfImputer(core::SmflOptions options) : options_(options) {
  options_.lambda = 0.0;
  options_.use_landmarks = false;
}

Result<Matrix> NmfImputer::Impute(const Matrix& x, const Mask& observed,
                                  Index spatial_cols) const {
  return core::SmflImpute(x, observed, spatial_cols, options_);
}

SmfImputer::SmfImputer(core::SmflOptions options) : options_(options) {
  options_.use_landmarks = false;
}

Result<Matrix> SmfImputer::Impute(const Matrix& x, const Mask& observed,
                                  Index spatial_cols) const {
  return core::SmflImpute(x, observed, spatial_cols, options_);
}

SmflImputer::SmflImputer(core::SmflOptions options) : options_(options) {
  options_.use_landmarks = true;
}

Result<Matrix> SmflImputer::Impute(const Matrix& x, const Mask& observed,
                                   Index spatial_cols) const {
  return core::SmflImpute(x, observed, spatial_cols, options_);
}

}  // namespace smfl::impute
