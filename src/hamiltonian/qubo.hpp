#pragma once

/// \file qubo.hpp
/// \brief General quadratic unconstrained binary optimization (QUBO) as a
/// diagonal Hamiltonian.
///
/// QUBO minimizes x^T Q x over x in {0,1}^n.  This covers Max-Cut (Section
/// 2.4 of the paper) and a large family of combinatorial problems; the class
/// exists so downstream users can plug arbitrary QUBO instances into the
/// VQMC optimizer without going through the graph representation.

#include <cstdint>
#include <vector>

#include "hamiltonian/hamiltonian.hpp"

namespace vqmc {

/// Diagonal Hamiltonian with E(x) = sum_i q_ii x_i + sum_{i<j} q_ij x_i x_j.
class Qubo final : public Hamiltonian {
 public:
  struct Term {
    std::size_t i;
    std::size_t j;  ///< i == j encodes a linear term
    Real q;
  };

  Qubo(std::size_t n, std::vector<Term> terms);

  /// Random dense instance with q ~ U(-1, 1) (for tests/examples).
  static Qubo random_dense(std::size_t n, std::uint64_t seed);

  // Hamiltonian interface.
  [[nodiscard]] std::size_t num_spins() const override { return n_; }
  [[nodiscard]] std::size_t row_sparsity() const override { return 1; }
  [[nodiscard]] Real diagonal(std::span<const Real> x) const override;
  void for_each_off_diagonal(std::span<const Real> /*x*/,
                             const OffDiagonalVisitor& /*visit*/)
      const override {}
  [[nodiscard]] bool is_diagonal() const override { return true; }
  [[nodiscard]] std::string name() const override { return "QUBO"; }

  [[nodiscard]] const std::vector<Term>& terms() const { return terms_; }

  /// Energy change from flipping `site`, O(degree).  Nothing in the
  /// library calls it (the samplers and the local-energy engine evaluate
  /// the diagonal whole); it serves callers that move one spin at a time.
  [[nodiscard]] Real diagonal_flip_delta(std::span<const Real> x,
                                         std::size_t site) const;

 private:
  std::size_t n_;
  std::vector<Term> terms_;
  // Per-site term adjacency for incremental flip deltas.
  std::vector<std::size_t> offsets_;
  std::vector<std::pair<std::size_t, Real>> adjacency_;  // (other, q); other == site for linear
};

}  // namespace vqmc
