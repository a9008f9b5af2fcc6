#include "linalg/lanczos.hpp"

#include <gtest/gtest.h>

#include "linalg/jacobi_eigen.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "tensor/kernels.hpp"
#include "tensor/kernels_ref.hpp"

namespace vqmc::linalg {
namespace {

Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      const Real v = rng::uniform(gen, -1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  return a;
}

TEST(Lanczos, MatchesJacobiOnRandomSymmetric) {
  const std::size_t n = 40;
  const Matrix a = random_symmetric(n, 31);
  const EigenDecomposition dense = jacobi_eigen(a);
  const LanczosResult sparse = lanczos_smallest(
      [&a](std::span<const Real> v, std::span<Real> y) { ref::gemv(a, v, y); },
      n);
  EXPECT_TRUE(sparse.converged);
  EXPECT_NEAR(sparse.eigenvalue, dense.eigenvalues[0], 1e-8);
}

TEST(Lanczos, RitzVectorIsAnEigenvector) {
  const std::size_t n = 25;
  const Matrix a = random_symmetric(n, 32);
  const LanczosResult r = lanczos_smallest(
      [&a](std::span<const Real> v, std::span<Real> y) { ref::gemv(a, v, y); },
      n);
  Vector av(n);
  ref::gemv(a, r.eigenvector.span(), av.span());
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(av[i], r.eigenvalue * r.eigenvector[i], 1e-6);
  EXPECT_NEAR(r.eigenvector.norm(), 1.0, 1e-10);
}

TEST(Lanczos, DiagonalOperatorFindsMinimum) {
  const std::size_t n = 100;
  const auto apply = [n](std::span<const Real> v, std::span<Real> y) {
    for (std::size_t i = 0; i < n; ++i) y[i] = Real(int(i % 13) - 6) * v[i];
  };
  const LanczosResult r = lanczos_smallest(apply, n);
  EXPECT_NEAR(r.eigenvalue, -6.0, 1e-8);
}

TEST(Lanczos, HandlesOneDimensionalSpace) {
  const auto apply = [](std::span<const Real> v, std::span<Real> y) {
    y[0] = Real(4.5) * v[0];
  };
  const LanczosResult r = lanczos_smallest(apply, 1);
  EXPECT_NEAR(r.eigenvalue, 4.5, 1e-12);
}

TEST(Lanczos, DegenerateGroundStateStillConverges) {
  // -I has eigenvalue -1 with full multiplicity; breakdown is immediate.
  const std::size_t n = 16;
  const auto apply = [](std::span<const Real> v, std::span<Real> y) {
    for (std::size_t i = 0; i < v.size(); ++i) y[i] = -v[i];
  };
  const LanczosResult r = lanczos_smallest(apply, n);
  EXPECT_NEAR(r.eigenvalue, -1.0, 1e-10);
}

}  // namespace
}  // namespace vqmc::linalg
