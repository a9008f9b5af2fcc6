#include "hamiltonian/transverse_field_ising.hpp"

#include <algorithm>
#include <tuple>

#include "common/error.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"

namespace vqmc {

TransverseFieldIsing::TransverseFieldIsing(std::vector<Real> alpha,
                                           std::vector<Real> beta,
                                           std::vector<Coupling> couplings)
    : alpha_(std::move(alpha)),
      beta_(std::move(beta)),
      couplings_(std::move(couplings)) {
  VQMC_REQUIRE(alpha_.size() == beta_.size(),
               "TIM: alpha and beta must have the same length");
  for (Real a : alpha_)
    VQMC_REQUIRE(a >= 0, "TIM: alpha_i must be non-negative (Perron-Frobenius)");
  for (const Coupling& c : couplings_) {
    VQMC_REQUIRE(c.i < c.j, "TIM: couplings must satisfy i < j");
    VQMC_REQUIRE(c.j < alpha_.size(), "TIM: coupling index out of range");
  }
}

namespace {

/// Sites fit the couplings' 32-bit indices (every instance the memory can
/// hold does).
std::uint32_t site_index(std::size_t i) {
  VQMC_REQUIRE(i <= UINT32_MAX, "TIM: site index exceeds 32 bits");
  return std::uint32_t(i);
}

}  // namespace

TransverseFieldIsing TransverseFieldIsing::random_dense(std::size_t n,
                                                        std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  std::vector<Real> alpha(n), beta(n);
  for (std::size_t i = 0; i < n; ++i) alpha[i] = rng::uniform(gen, 0.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) beta[i] = rng::uniform(gen, -1.0, 1.0);
  std::vector<Coupling> couplings;
  couplings.reserve(n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      couplings.push_back(
          {site_index(i), site_index(j), rng::uniform(gen, -1.0, 1.0)});
  return TransverseFieldIsing(std::move(alpha), std::move(beta),
                              std::move(couplings));
}

TransverseFieldIsing TransverseFieldIsing::random_sparse(std::size_t n,
                                                         std::size_t degree,
                                                         std::uint64_t seed) {
  VQMC_REQUIRE(n >= 2, "TIM: need at least 2 spins");
  rng::Xoshiro256 gen(seed);
  std::vector<Real> alpha(n), beta(n);
  for (std::size_t i = 0; i < n; ++i) alpha[i] = rng::uniform(gen, 0.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) beta[i] = rng::uniform(gen, -1.0, 1.0);
  std::vector<Coupling> couplings;
  // Draw `degree` random partners per site (deduplicated by keeping i < j and
  // skipping repeats probabilistically — collisions are rare for degree << n).
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < degree; ++k) {
      std::size_t j = std::size_t(rng::uniform_index(gen, n - 1));
      if (j >= i) ++j;
      const std::size_t lo = std::min(i, j), hi = std::max(i, j);
      couplings.push_back(
          {site_index(lo), site_index(hi), rng::uniform(gen, -1.0, 1.0)});
    }
  }
  // Remove duplicate pairs, keeping the first draw.
  std::sort(couplings.begin(), couplings.end(),
            [](const Coupling& a, const Coupling& b) {
              return std::tie(a.i, a.j) < std::tie(b.i, b.j);
            });
  couplings.erase(std::unique(couplings.begin(), couplings.end(),
                              [](const Coupling& a, const Coupling& b) {
                                return a.i == b.i && a.j == b.j;
                              }),
                  couplings.end());
  return TransverseFieldIsing(std::move(alpha), std::move(beta),
                              std::move(couplings));
}

TransverseFieldIsing TransverseFieldIsing::uniform_chain(std::size_t n,
                                                         Real coupling,
                                                         Real field,
                                                         bool periodic) {
  VQMC_REQUIRE(n >= 2, "TIM chain: need at least 2 spins");
  VQMC_REQUIRE(field >= 0, "TIM chain: field must be non-negative");
  std::vector<Real> alpha(n, field), beta(n, Real(0));
  std::vector<Coupling> couplings;
  for (std::size_t i = 0; i + 1 < n; ++i)
    couplings.push_back({site_index(i), site_index(i + 1), coupling});
  if (periodic && n > 2) couplings.push_back({0, site_index(n - 1), coupling});
  return TransverseFieldIsing(std::move(alpha), std::move(beta),
                              std::move(couplings));
}

Real tfim_chain_ground_energy(std::size_t n, Real coupling, Real field) {
  VQMC_REQUIRE(n >= 2, "tfim_chain_ground_energy: need at least 2 spins");
  VQMC_REQUIRE(coupling >= 0 && field >= 0,
               "tfim_chain_ground_energy: J, h must be non-negative");
  // Even-parity momenta k = (2m + 1) pi / n, single-particle energies
  // eps(k) = sqrt(J^2 + h^2 - 2 J h cos k); E0 = -sum eps.
  Real energy = 0;
  const Real pi = Real(3.14159265358979323846);
  for (std::size_t m = 0; m < n; ++m) {
    const Real k = (2 * Real(m) + 1) * pi / Real(n);
    energy -= std::sqrt(coupling * coupling + field * field -
                        2 * coupling * field * std::cos(k));
  }
  return energy;
}

Real TransverseFieldIsing::diagonal(std::span<const Real> x) const {
  VQMC_REQUIRE(x.size() == num_spins(), "TIM: configuration size mismatch");
  Real value = 0;
  ising_diagonal(x.data(), 1, x.size(), beta_, couplings_, &value);
  return value;
}

void TransverseFieldIsing::diagonal_batch(const Matrix& batch,
                                          std::span<Real> out) const {
  VQMC_REQUIRE(batch.cols() == num_spins() && out.size() == batch.rows(),
               "TIM: batch or output shape mismatch");
  ising_diagonal(batch.data(), batch.rows(), batch.cols(), beta_, couplings_,
                 out.data());
}

void TransverseFieldIsing::for_each_off_diagonal(
    [[maybe_unused]] std::span<const Real> x,
    const OffDiagonalVisitor& visit) const {
  VQMC_ASSERT(x.size() == num_spins(), "TIM: configuration size mismatch");
  std::size_t flip[1];
  for (std::size_t i = 0; i < alpha_.size(); ++i) {
    if (alpha_[i] == Real(0)) continue;
    flip[0] = i;
    visit(std::span<const std::size_t>(flip, 1), -alpha_[i]);
  }
}

}  // namespace vqmc
