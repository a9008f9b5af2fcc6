#pragma once

/// \file kernels_arch.hpp
/// \brief Internal declarations of the per-ISA kernel implementations.
///
/// kernels_arch.inc is compiled once per instruction-set tier (generic /
/// AVX2+FMA / AVX-512) into the namespaces declared here; kernels.cpp
/// selects among them at runtime via simd::active_level().  This header is
/// private to the tensor library — everything public goes through
/// kernels.hpp.
///
/// Implementations assume shapes already validated by the dispatcher and
/// must follow the canonical accumulation pattern documented in
/// kernels_arch.inc (per-output-row rounding independent of blocking, so
/// batching never perturbs a row's value).

#include <cstddef>
#include <span>

#include "tensor/kernels.hpp"

namespace vqmc {

#define VQMC_DECLARE_ARCH_KERNELS(ns)                                         \
  namespace ns {                                                              \
  Real dot(std::span<const Real> x, std::span<const Real> y);                 \
  void axpy(Real alpha, std::span<const Real> x, std::span<Real> y);          \
  void gemm_nt(const Matrix& a, ConstMatrixView b, Matrix& c);                \
  void gemm_tn_accumulate(const Matrix& a, const Matrix& b, MatrixView c);    \
  void gemm_nt_prefix(const Matrix& a, ConstMatrixView w,                     \
                      std::span<const std::size_t> len, Matrix& c);           \
  void gemm_nn_prefix(const Matrix& a, ConstMatrixView w,                     \
                      std::span<const std::size_t> len, Matrix& c);           \
  void gemm_tn_accumulate_prefix(const Matrix& a, const Matrix& b,            \
                                 std::span<const std::size_t> len,            \
                                 MatrixView c);                               \
  void relu_dot_prefix_batch(ConstMatrixView w,                               \
                             std::span<const std::size_t> len,                \
                             std::size_t row, const Real* a, std::size_t lda, \
                             std::size_t rows, Real* out);                    \
  void dot_prefix_block(ConstMatrixView w, std::span<const std::size_t> len,  \
                        std::size_t row_begin, const Real* a,                 \
                        std::size_t lda, std::size_t rows, Matrix& out);      \
  void rank1_add_rows(Real* a, std::size_t lda,                               \
                      std::span<const std::uint32_t> row_ids,                 \
                      std::size_t col_begin, const Real* vals,                \
                      std::size_t len);                                       \
  void accumulate_masked_cols(Real* dst, std::uint64_t mask,                  \
                              const Real* const* cols, std::size_t len);      \
  Real bernoulli_log_likelihood(std::span<const Real> x, const Real* p,       \
                                Real eps);                                    \
  void sigmoid_inplace(Matrix& a);                                            \
  void tanh_inplace(Matrix& a);                                               \
  Real sum_log_cosh(std::span<const Real> x);                                 \
  void relu_shift_delta_lanes(const Real* a, const Real* w,                   \
                              const Real* sign, std::size_t len, Real* out);  \
  void triangle_dot_lanes(ConstMatrixView w,                                  \
                          std::span<const std::size_t> len, std::size_t lo,   \
                          std::size_t j_begin, const Real* a,                 \
                          const Real* base, Real* out);                       \
  void bernoulli_logit_delta_lanes(const Real* x, const Real* z,              \
                                   const Real* base, std::size_t len,         \
                                   std::size_t origin,                        \
                                   const std::size_t* first,                  \
                                   const std::size_t* last, Real eps,         \
                                   Real* out);                                \
  Real rbm_flip_table(ConstMatrixView w, Matrix& g, std::span<Real> abs_w,    \
                      Matrix* w_t);                                           \
  void rbm_flip_pq(std::span<const Real> theta, std::span<Real> pq);          \
  void rbm_flip_log_sums(std::span<const Real> pq, ConstMatrixView g,         \
                         std::span<const std::size_t> sites, const Real* x,   \
                         std::size_t chunk, Real* out);                       \
  void ising_diagonal(const Real* x, std::size_t rows, std::size_t n,         \
                      std::span<const Real> field,                            \
                      std::span<const IsingCoupling> couplings, Real* out);   \
  void made_gram(const Matrix& x, const Matrix& g2, const Matrix& g1,         \
                 const Matrix& h1, std::span<const std::size_t> level_end,    \
                 Matrix& k);                                                  \
  std::uint32_t crc32c(std::uint32_t crc, const void* data,                   \
                       std::size_t bytes);                                    \
  }

VQMC_DECLARE_ARCH_KERNELS(arch_generic)
#if VQMC_SIMD_AVX2
VQMC_DECLARE_ARCH_KERNELS(arch_avx2)
#endif
#if VQMC_SIMD_AVX512
VQMC_DECLARE_ARCH_KERNELS(arch_avx512)
#endif

#undef VQMC_DECLARE_ARCH_KERNELS

}  // namespace vqmc
