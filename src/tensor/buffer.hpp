#pragma once

/// \file buffer.hpp
/// \brief Cache-line-aligned owning buffer for numeric data.
///
/// All tensor storage goes through AlignedBuffer so that the gemm kernels
/// can assume 64-byte alignment (one cache line; also sufficient for
/// AVX-512 loads if the compiler vectorizes).  The buffer value-initializes
/// its contents — freshly allocated tensors are zero.  Storage comes from
/// the aligned operator new, so a replaced global allocator (the tests'
/// allocation counter) sees every tensor allocation.

#include <algorithm>
#include <cstddef>
#include <new>
#include <utility>

#include "common/error.hpp"

namespace vqmc {

inline constexpr std::size_t kTensorAlignment = 64;

/// Owning, aligned, fixed-size array of T. Move-only semantics are not
/// needed; copying is deep (tensors are value types).
template <typename T>
class AlignedBuffer {
 public:
  AlignedBuffer() = default;

  explicit AlignedBuffer(std::size_t count) { allocate(count); }

  AlignedBuffer(const AlignedBuffer& other) {
    allocate(other.size_);
    std::copy_n(other.data_, size_, data_);
  }

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}

  AlignedBuffer& operator=(const AlignedBuffer& other) {
    if (this == &other) return *this;
    if (size_ != other.size_) {
      release();
      allocate(other.size_);
    }
    std::copy_n(other.data_, size_, data_);
    return *this;
  }

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this == &other) return *this;
    release();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  ~AlignedBuffer() { release(); }

  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  void allocate(std::size_t count) {
    size_ = count;
    if (count == 0) {
      data_ = nullptr;
      return;
    }
    data_ = static_cast<T*>(::operator new(
        count * sizeof(T), std::align_val_t{kTensorAlignment}));
    std::fill_n(data_, count, T{});
  }

  void release() noexcept {
    ::operator delete(data_, std::align_val_t{kTensorAlignment});
    data_ = nullptr;
    size_ = 0;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace vqmc
