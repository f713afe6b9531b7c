#include "src/data/mask.h"

#include <vector>

namespace smfl::data {

Mask Mask::FromRowMajorBytes(Index rows, Index cols,
                             std::vector<uint8_t> bits) {
  SMFL_CHECK_EQ(static_cast<Index>(bits.size()), rows * cols);
  Mask m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.bits_ = std::move(bits);
  return m;
}

Index Mask::Count() const {
  Index n = 0;
  for (uint8_t b : bits_) n += b;
  return n;
}

Index Mask::RowCount(Index i) const {
  const uint8_t* row = RowData(i);
  Index n = 0;
  for (Index j = 0; j < cols_; ++j) n += row[j];
  return n;
}

Mask Mask::Complement() const {
  Mask out(rows_, cols_);
  for (size_t i = 0; i < bits_.size(); ++i) out.bits_[i] = bits_[i] ? 0 : 1;
  return out;
}

std::vector<Entry> Mask::Entries() const {
  std::vector<Entry> out;
  out.reserve(static_cast<size_t>(Count()));
  for (Index i = 0; i < rows_; ++i) {
    for (Index j = 0; j < cols_; ++j) {
      if (Contains(i, j)) out.push_back({i, j});
    }
  }
  return out;
}

bool Mask::RowFullySet(Index i) const {
  for (Index j = 0; j < cols_; ++j) {
    if (!Contains(i, j)) return false;
  }
  return true;
}

std::vector<Index> Mask::FullySetRows() const {
  std::vector<Index> out;
  for (Index i = 0; i < rows_; ++i) {
    if (RowFullySet(i)) out.push_back(i);
  }
  return out;
}

Mask Mask::And(const Mask& other) const {
  SMFL_CHECK(SameShape(other));
  Mask out(rows_, cols_);
  for (size_t i = 0; i < bits_.size(); ++i) {
    out.bits_[i] = (bits_[i] && other.bits_[i]) ? 1 : 0;
  }
  return out;
}

Mask Mask::Or(const Mask& other) const {
  SMFL_CHECK(SameShape(other));
  Mask out(rows_, cols_);
  for (size_t i = 0; i < bits_.size(); ++i) {
    out.bits_[i] = (bits_[i] || other.bits_[i]) ? 1 : 0;
  }
  return out;
}

Matrix ApplyMask(const Matrix& x, const Mask& mask) {
  SMFL_CHECK_EQ(x.rows(), mask.rows());
  SMFL_CHECK_EQ(x.cols(), mask.cols());
  Matrix out(x.rows(), x.cols());
  for (Index i = 0; i < x.rows(); ++i) {
    for (Index j = 0; j < x.cols(); ++j) {
      if (mask.Contains(i, j)) out(i, j) = x(i, j);
    }
  }
  return out;
}

Matrix CombineByMask(const Matrix& x, const Matrix& x_star, const Mask& mask) {
  SMFL_CHECK(x.SameShape(x_star));
  SMFL_CHECK_EQ(x.rows(), mask.rows());
  SMFL_CHECK_EQ(x.cols(), mask.cols());
  Matrix out(x.rows(), x.cols());
  for (Index i = 0; i < x.rows(); ++i) {
    for (Index j = 0; j < x.cols(); ++j) {
      out(i, j) = mask.Contains(i, j) ? x(i, j) : x_star(i, j);
    }
  }
  return out;
}

}  // namespace smfl::data
