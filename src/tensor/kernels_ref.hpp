#pragma once

/// \file kernels_ref.hpp
/// \brief Scalar reference kernels (namespace vqmc::ref).
///
/// These are the PR 5 scalar loops, kept verbatim: one running accumulator
/// per output element, no blocking, no vector math.  They define the
/// ground truth for the SIMD parity tests and the historical baseline the
/// benchmarks measure speedups against — the dispatched kernels in
/// kernels.hpp must agree with them within the documented ULP bound
/// (tolerance contract, see kernels.hpp), and `ref::bernoulli_log_likelihood`
/// / `ref::sigmoid_inplace` reproduce the pre-SIMD `Made` transcendental
/// loops bit-for-bit.
///
/// Not OpenMP-parallel and not performance-tuned on purpose: a reference
/// you can read is a reference you can trust.

#include <span>

#include "tensor/kernels.hpp"

namespace vqmc::ref {

Real dot(std::span<const Real> x, std::span<const Real> y);
void gemv(const Matrix& a, std::span<const Real> x, std::span<Real> y);
void gemv_t(const Matrix& a, std::span<const Real> x, std::span<Real> y);
void gemm_nn(const Matrix& a, const Matrix& b, Matrix& c);
void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c);
void gemm_tn_accumulate(const Matrix& a, const Matrix& b, Matrix& c);
void gemm_nt_prefix(const Matrix& a, ConstMatrixView w,
                    std::span<const std::size_t> len, Matrix& c);
void gemm_nn_prefix(const Matrix& a, ConstMatrixView w,
                    std::span<const std::size_t> len, Matrix& c);
void gemm_tn_accumulate_prefix(const Matrix& a, const Matrix& b,
                               std::span<const std::size_t> len, MatrixView c);
void relu_dot_prefix_batch(ConstMatrixView w, std::span<const std::size_t> len,
                           std::size_t row, const Real* a, std::size_t lda,
                           std::size_t rows, Real* out);
/// dot_prefix_block on relu(a): the value every cell of the blocked
/// frozen-tail kernel must reproduce from the pre-activations.
void relu_dot_prefix_block(ConstMatrixView w, std::span<const std::size_t> len,
                           std::size_t row_begin, const Real* a,
                           std::size_t lda, std::size_t rows, Matrix& out);
void dot_prefix_block(ConstMatrixView w, std::span<const std::size_t> len,
                      std::size_t row_begin, const Real* a, std::size_t lda,
                      std::size_t rows, Matrix& out);
void rank1_add_rows(Real* a, std::size_t lda,
                    std::span<const std::uint32_t> row_ids,
                    std::size_t col_begin, const Real* vals, std::size_t len);
void accumulate_masked_cols(Real* dst, std::uint64_t mask,
                            const Real* const* cols, std::size_t len);
Real bernoulli_log_likelihood(std::span<const Real> x, const Real* p,
                              Real eps);
void sigmoid_inplace(Matrix& a);
/// std::tanh per element.
void tanh_inplace(Matrix& a);

/// log(cosh(x)) computed stably for large |x| (|x| + log((1+e^-2|x|)/2)):
/// the scalar element of sum_log_cosh.
Real log_cosh(Real x);
Real sum_log_cosh(std::span<const Real> x);
void relu_shift_delta_lanes(const Real* a, const Real* w, const Real* sign,
                            std::size_t len, Real* out);
void triangle_dot_lanes(ConstMatrixView w, std::span<const std::size_t> len,
                        std::size_t lo, std::size_t j_begin, const Real* a,
                        const Real* base, Real* out);
/// One log per term, base_t entering as -log(base_t): the definition the
/// chunked products of the dispatched kernel re-associate.
void bernoulli_logit_delta_lanes(const Real* x, const Real* z,
                                 const Real* base, std::size_t len,
                                 std::size_t origin, const std::size_t* first,
                                 const std::size_t* last, Real eps,
                                 Real* out);
/// The scalar std::exp per weight (the exponent floored at -708, as the
/// dispatched kernel's).
Real rbm_flip_table(ConstMatrixView w, Matrix& g, std::span<Real> abs_w,
                    Matrix* w_t);
/// One log per factor y_l, p and q from the scalar sigmoid: no chunking.
void rbm_flip_log_sums(std::span<const Real> theta, ConstMatrixView g,
                       std::span<const std::size_t> sites, const Real* x,
                       Real* out);
/// The scalar loop with s = 1 - 2 x and the products beta s_i s_j.
void ising_diagonal(const Real* x, std::size_t rows, std::size_t n,
                    std::span<const Real> field,
                    std::span<const IsingCoupling> couplings, Real* out);

/// The formula of made_gram, one element at a time.
void made_gram(const Matrix& x, const Matrix& g2, const Matrix& g1,
               const Matrix& h1, std::span<const std::size_t> level_end,
               Matrix& k);

/// Table-driven CRC-32C, one byte per step: the oracle of every tier.
std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t bytes);

}  // namespace vqmc::ref
