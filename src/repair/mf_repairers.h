// Matrix-factorization-based repairers: NMF, SMF, SMFL (paper Table VI).
// Each treats the detected dirty cells as Ψ, fits on the clean cells, and
// replaces the dirty cells with the reconstruction (Formula 8).

#ifndef SMFL_REPAIR_MF_REPAIRERS_H_
#define SMFL_REPAIR_MF_REPAIRERS_H_

#include "src/core/smfl.h"
#include "src/repair/repairer.h"

namespace smfl::repair {

// NMF is the core loop with lambda = 0 and no landmarks, both pinned by
// the constructor.
class NmfRepairer : public Repairer {
 public:
  // NMF's own default seed (3), not SmflOptions' 23.
  NmfRepairer();
  explicit NmfRepairer(core::SmflOptions options);
  std::string name() const override { return "NMF"; }
  Result<Matrix> Repair(const Matrix& dirty, const Mask& dirty_cells,
                        Index spatial_cols) const override;

 private:
  core::SmflOptions options_;
};

class SmfRepairer : public Repairer {
 public:
  explicit SmfRepairer(core::SmflOptions options = core::SmflOptions{});
  std::string name() const override { return "SMF"; }
  Result<Matrix> Repair(const Matrix& dirty, const Mask& dirty_cells,
                        Index spatial_cols) const override;

 private:
  core::SmflOptions options_;
};

class SmflRepairer : public Repairer {
 public:
  explicit SmflRepairer(core::SmflOptions options = core::SmflOptions{});
  std::string name() const override { return "SMFL"; }
  Result<Matrix> Repair(const Matrix& dirty, const Mask& dirty_cells,
                        Index spatial_cols) const override;

 private:
  core::SmflOptions options_;
};

}  // namespace smfl::repair

#endif  // SMFL_REPAIR_MF_REPAIRERS_H_
