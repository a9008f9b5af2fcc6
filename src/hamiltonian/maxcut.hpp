#pragma once

/// \file maxcut.hpp
/// \brief Max-Cut as a diagonal quantum Hamiltonian (special case of Eq. 11).
///
/// With alpha_i = beta_i = 0 and couplings beta_ij = -(1/4) L_ij the
/// Hamiltonian is diagonal and its ground state encodes the maximum cut:
///
///   E(x) = (1/4) sum_{i<j} L_ij s_i s_j,     s_i = 1 - 2 x_i,
///   cut(x) = (W - 4 E(x)) / 2,               W = total edge weight,
///
/// so minimizing the variational energy maximizes the cut.  (The paper
/// writes beta_ij = +L_ij/4 inside H = -sum beta_ij Z_i Z_j; the sign here is
/// fixed so that the *ground* state is the maximum — not minimum — cut,
/// which is the convention its Table 2 numbers require.)  Because H is
/// diagonal, the local energy needs no wavefunction ratios and VQMC reduces
/// to the natural-evolution-strategies optimizer of [Zhao et al. 2020].

#include <cstdint>

#include "hamiltonian/graph.hpp"
#include "hamiltonian/hamiltonian.hpp"

namespace vqmc {

/// Diagonal Max-Cut Hamiltonian over a weighted graph.
class MaxCut final : public Hamiltonian {
 public:
  explicit MaxCut(Graph graph);

  /// Paper instance family (symmetrized-Bernoulli graph, see Graph docs).
  static MaxCut paper_instance(std::size_t n, std::uint64_t seed) {
    return MaxCut(Graph::bernoulli_symmetrized(n, seed));
  }

  // Hamiltonian interface.
  [[nodiscard]] std::size_t num_spins() const override {
    return graph_.num_vertices();
  }
  [[nodiscard]] std::size_t row_sparsity() const override { return 1; }
  [[nodiscard]] Real diagonal(std::span<const Real> x) const override;
  void for_each_off_diagonal(std::span<const Real> /*x*/,
                             const OffDiagonalVisitor& /*visit*/)
      const override {}
  [[nodiscard]] bool is_diagonal() const override { return true; }
  [[nodiscard]] std::string name() const override { return "MaxCut"; }

  /// Cut weight of configuration x.
  [[nodiscard]] Real cut_value(std::span<const Real> x) const {
    return graph_.cut_value(x);
  }

  /// Convert a variational energy to the corresponding (expected) cut.
  [[nodiscard]] Real cut_from_energy(Real energy) const {
    return (graph_.total_weight() - 4 * energy) / 2;
  }

  /// Inverse of cut_from_energy.
  [[nodiscard]] Real energy_from_cut(Real cut) const {
    return (graph_.total_weight() - 2 * cut) / 4;
  }

  [[nodiscard]] const Graph& graph() const { return graph_; }

  /// Energy change from flipping `site`, O(degree).  Nothing in the
  /// library calls it (the samplers and the local-energy engine evaluate
  /// the diagonal whole); it serves callers that move one spin at a time.
  [[nodiscard]] Real diagonal_flip_delta(std::span<const Real> x,
                                         std::size_t site) const;

 private:
  Graph graph_;
};

}  // namespace vqmc
