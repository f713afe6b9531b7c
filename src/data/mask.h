// Observed/unobserved entry bookkeeping (the paper's Ω and Ψ sets).
//
// A Mask is an N x M boolean grid; true marks an entry as belonging to the
// set. By convention throughout the library, an "observation mask" has
// true = observed (Ω) and its complement is Ψ. The same type represents the
// dirty-cell set for the repair task and the landmark set Φ over V.

#ifndef SMFL_DATA_MASK_H_
#define SMFL_DATA_MASK_H_

#include <cstdint>
#include <vector>

#include "src/la/matrix.h"

namespace smfl::data {

using la::Index;
using la::Matrix;

// One (row, col) cell address.
struct Entry {
  Index row = 0;
  Index col = 0;

  friend bool operator==(const Entry& a, const Entry& b) {
    return a.row == b.row && a.col == b.col;
  }
  friend bool operator<(const Entry& a, const Entry& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  }
};

class Mask {
 public:
  Mask() = default;

  // All entries initialized to `value`.
  Mask(Index rows, Index cols, bool value = false)
      : rows_(rows), cols_(cols),
        bits_(static_cast<size_t>(rows * cols), value ? 1 : 0) {
    SMFL_CHECK_GE(rows, 0);
    SMFL_CHECK_GE(cols, 0);
  }

  static Mask AllSet(Index rows, Index cols) { return Mask(rows, cols, true); }

  // Adopts row-major membership bytes (each 0 or 1), rows × cols of them.
  [[nodiscard]] static Mask FromRowMajorBytes(Index rows, Index cols,
                                              std::vector<uint8_t> bits);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }

  bool Contains(Index i, Index j) const {
    SMFL_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return bits_[static_cast<size_t>(i * cols_ + j)] != 0;
  }

  void Set(Index i, Index j, bool value = true) {
    SMFL_DCHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    bits_[static_cast<size_t>(i * cols_ + j)] = value ? 1 : 0;
  }

  // Number of set entries.
  Index Count() const;

  // Entries NOT in this mask (Ψ when *this is Ω).
  Mask Complement() const;

  // All set entries in row-major order.
  std::vector<Entry> Entries() const;

  // True if every entry in row i is set.
  bool RowFullySet(Index i) const;

  // Indices of fully-set rows (complete tuples).
  std::vector<Index> FullySetRows() const;

  // Set-intersection / union with another mask of the same shape.
  Mask And(const Mask& other) const;
  Mask Or(const Mask& other) const;

  // Raw row-major bit row (1 = set), for kernels that stream a row's
  // membership without per-entry bounds checks.
  const uint8_t* RowData(Index i) const {
    SMFL_DCHECK(i >= 0 && i < rows_);
    return bits_.data() + static_cast<size_t>(i * cols_);
  }

  // Number of set entries in row i.
  Index RowCount(Index i) const;

  bool SameShape(const Mask& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  friend bool operator==(const Mask& a, const Mask& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.bits_ == b.bits_;
  }

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<uint8_t> bits_;
};

// R_mask(X): zero out entries not in the mask (the paper's R_Ω operator).
[[nodiscard]] Matrix ApplyMask(const Matrix& x, const Mask& mask);

// R_Ω(X) + R_Ψ(X*): take masked entries from `x`, the rest from `x_star`
// (the paper's Formula 8 recovery step).
[[nodiscard]] Matrix CombineByMask(const Matrix& x, const Matrix& x_star, const Mask& mask);

}  // namespace smfl::data

#endif  // SMFL_DATA_MASK_H_
