#include "src/repair/mf_repairers.h"

namespace smfl::repair {

NmfRepairer::NmfRepairer() : NmfRepairer(core::SmflOptions{}) {
  options_.seed = 3;
}

NmfRepairer::NmfRepairer(core::SmflOptions options) : options_(options) {
  options_.lambda = 0.0;
  options_.use_landmarks = false;
}

Result<Matrix> NmfRepairer::Repair(const Matrix& dirty,
                                   const Mask& dirty_cells,
                                   Index spatial_cols) const {
  return core::SmflRepair(dirty, dirty_cells, spatial_cols, options_);
}

SmfRepairer::SmfRepairer(core::SmflOptions options) : options_(options) {
  options_.use_landmarks = false;
}

Result<Matrix> SmfRepairer::Repair(const Matrix& dirty,
                                   const Mask& dirty_cells,
                                   Index spatial_cols) const {
  return core::SmflRepair(dirty, dirty_cells, spatial_cols, options_);
}

SmflRepairer::SmflRepairer(core::SmflOptions options) : options_(options) {
  options_.use_landmarks = true;
}

Result<Matrix> SmflRepairer::Repair(const Matrix& dirty,
                                    const Mask& dirty_cells,
                                    Index spatial_cols) const {
  return core::SmflRepair(dirty, dirty_cells, spatial_cols, options_);
}

}  // namespace smfl::repair
