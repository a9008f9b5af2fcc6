#pragma once

/// \file matrix.hpp
/// \brief Dense row-major real matrix (value type).
///
/// Rows are the batch dimension throughout the library: a batch of `bs`
/// n-spin configurations is a `bs x n` Matrix, weight matrices are
/// `out x in`, and `row(i)` gives a contiguous span.

#include <algorithm>
#include <span>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "tensor/buffer.hpp"
#include "tensor/real.hpp"

namespace vqmc {

/// Dense, aligned, row-major matrix of Real.  A constructed matrix is
/// zero-initialized.  Its storage may hold more elements than its shape
/// uses: ensure_shape and copy-assignment keep storage that is already
/// large enough, so scratch matrices whose row count varies between calls
/// stop allocating at the largest shape seen.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), storage_(rows * cols) {}

  /// Copies the shape and the elements; the copy's storage holds exactly
  /// size() elements.
  Matrix(const Matrix& other)
      : rows_(other.rows_), cols_(other.cols_), storage_(other.size()) {
    std::copy_n(other.data(), other.size(), storage_.data());
  }
  Matrix(Matrix&& other) noexcept
      : rows_(std::exchange(other.rows_, 0)),
        cols_(std::exchange(other.cols_, 0)),
        storage_(std::move(other.storage_)) {}

  /// Takes the shape and the elements of `other`, reallocating only when
  /// this storage holds fewer than other.size() elements.
  Matrix& operator=(const Matrix& other) {
    if (this == &other) return *this;
    if (storage_.size() < other.size())
      storage_ = AlignedBuffer<Real>(other.size());
    rows_ = other.rows_;
    cols_ = other.cols_;
    std::copy_n(other.data(), other.size(), storage_.data());
    return *this;
  }
  Matrix& operator=(Matrix&& other) noexcept {
    if (this == &other) return *this;
    rows_ = std::exchange(other.rows_, 0);
    cols_ = std::exchange(other.cols_, 0);
    storage_ = std::move(other.storage_);
    return *this;
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return rows_ * cols_; }

  Real& operator()(std::size_t r, std::size_t c) {
    VQMC_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return storage_[r * cols_ + c];
  }
  Real operator()(std::size_t r, std::size_t c) const {
    VQMC_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return storage_[r * cols_ + c];
  }

  [[nodiscard]] Real* data() { return storage_.data(); }
  [[nodiscard]] const Real* data() const { return storage_.data(); }

  /// Contiguous view of row r.
  [[nodiscard]] std::span<Real> row(std::size_t r) {
    VQMC_ASSERT(r < rows_, "row index out of range");
    return {storage_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const Real> row(std::size_t r) const {
    VQMC_ASSERT(r < rows_, "row index out of range");
    return {storage_.data() + r * cols_, cols_};
  }

  void fill(Real value) {
    for (std::size_t i = 0; i < size(); ++i) storage_[i] = value;
  }

  friend void ensure_shape(Matrix& m, std::size_t rows, std::size_t cols);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  AlignedBuffer<Real> storage_;
};

/// Non-owning row-major view of `rows x cols` contiguous Reals, such as a
/// weight or gradient block inside a model's flat parameter vector: it
/// never allocates, and the storage must outlive it.  A Matrix converts to
/// a MatrixView or ConstMatrixView implicitly, a MatrixView to a
/// ConstMatrixView.
template <typename T>
class BasicMatrixView {
 public:
  BasicMatrixView(T* data, std::size_t rows, std::size_t cols)
      : data_(data), rows_(rows), cols_(cols) {}
  BasicMatrixView(const Matrix& m)
    requires std::is_const_v<T>
      : BasicMatrixView(m.data(), m.rows(), m.cols()) {}
  BasicMatrixView(Matrix& m)
      : BasicMatrixView(m.data(), m.rows(), m.cols()) {}
  template <typename U>
    requires std::is_const_v<T> && std::is_same_v<U, Real>
  BasicMatrixView(BasicMatrixView<U> v)
      : BasicMatrixView(v.data(), v.rows(), v.cols()) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] T* data() const { return data_; }

  /// Contiguous view of row r.
  [[nodiscard]] std::span<T> row(std::size_t r) const {
    VQMC_ASSERT(r < rows_, "row index out of range");
    return {data_ + r * cols_, cols_};
  }

 private:
  T* data_;
  std::size_t rows_;
  std::size_t cols_;
};

using MatrixView = BasicMatrixView<Real>;
using ConstMatrixView = BasicMatrixView<const Real>;

/// Give `m` the requested shape, reallocating only when its storage holds
/// fewer than rows * cols elements.  Contents are unspecified afterwards (a
/// fresh allocation is zero, reused storage keeps stale values at shifted
/// positions) — callers must write every element they read.  This is the
/// workspace-reuse primitive: scratch matrices held across trainer
/// iterations or serve requests stop allocating at the largest shape seen,
/// whatever the row count of a later call.
inline void ensure_shape(Matrix& m, std::size_t rows, std::size_t cols) {
  if (m.storage_.size() < rows * cols)
    m.storage_ = AlignedBuffer<Real>(rows * cols);
  m.rows_ = rows;
  m.cols_ = cols;
}

}  // namespace vqmc
