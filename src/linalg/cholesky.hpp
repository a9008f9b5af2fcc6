#pragma once

/// \file cholesky.hpp
/// \brief Dense Cholesky factorization and SPD solves.
///
/// Stochastic reconfiguration factors its bs x bs sample-space matrix
/// (K̃/bs + λI, DESIGN.md §5m) in place with cholesky_factor; tests use
/// solve_spd for the dense d x d reference solve.

#include "tensor/matrix.hpp"
#include "tensor/vector.hpp"

namespace vqmc::linalg {

/// In-place lower Cholesky factorization A = L L^T (left-looking; both
/// inner reductions run through the dispatched dot).
/// Only the lower triangle of `a` is referenced; on return the lower triangle
/// holds L (the strict upper triangle is zeroed).
/// \returns false if the matrix is not positive definite (a non-positive
/// or NaN pivot); `a` is then partly overwritten.
bool cholesky_factor(Matrix& a);

/// Solve L L^T x = b given the factor from cholesky_factor. `x` may alias b.
void cholesky_solve(const Matrix& l, std::span<const Real> b,
                    std::span<Real> x);

/// Convenience: solve A x = b for SPD A (copies A, factors, solves).
/// \returns false if A is not positive definite (x untouched).
bool solve_spd(const Matrix& a, std::span<const Real> b, std::span<Real> x);

}  // namespace vqmc::linalg
