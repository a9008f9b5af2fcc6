#pragma once

/// \file hamiltonian.hpp
/// \brief The row-sparse symmetric operator interface of Definition 2.1.
///
/// A Hamiltonian here is a 2^n x 2^n real-symmetric matrix H whose rows are
/// indexed by n-bit spin configurations and which is *row-s-sparse and
/// efficiently row computable*: for any configuration x the non-zero entries
/// {(y, H_xy)} of row x can be enumerated in O(s) time.  For the families in
/// the paper (Eq. 11) every off-diagonal column y differs from x on a small
/// set of flipped sites, so entries are reported as (flip set, value) pairs.
/// The diagonal comes per row (diagonal) or per batch (diagonal_batch,
/// bitwise the same values), which is how the local-energy engine reads it.
///
/// Spin configurations are stored as Real vectors with entries in {0, 1}
/// (bit convention; the Ising sign is s_i = 1 - 2 x_i) because they are fed
/// directly to the neural network models.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/matrix.hpp"
#include "tensor/real.hpp"
#include "tensor/vector.hpp"

namespace vqmc {

/// Visitor invoked once per non-zero off-diagonal entry of a row.
/// `flips` lists the sites on which the column configuration differs from
/// the row configuration (never empty — the diagonal is reported separately).
using OffDiagonalVisitor =
    std::function<void(std::span<const std::size_t> flips, Real value)>;

/// Row-sparse symmetric operator (Definition 2.1 of the paper).
class Hamiltonian {
 public:
  virtual ~Hamiltonian() = default;

  /// Number of spins n; the matrix dimension is 2^n.
  [[nodiscard]] virtual std::size_t num_spins() const = 0;

  /// Sparsity parameter s: an upper bound on non-zeros per row.
  [[nodiscard]] virtual std::size_t row_sparsity() const = 0;

  /// H_xx for configuration x (entries in {0,1}).
  [[nodiscard]] virtual Real diagonal(std::span<const Real> x) const = 0;

  /// H_xx of every row of `batch` into `out` (length batch.rows()), each
  /// bitwise diagonal(row).  The default loops over the rows; an override
  /// evaluates the whole batch at once (TIM: one kernel whose vector lanes
  /// are rows).  The local-energy engine makes one call per batch.
  virtual void diagonal_batch(const Matrix& batch, std::span<Real> out) const;

  /// Enumerate the non-zero off-diagonal entries of row x.
  virtual void for_each_off_diagonal(std::span<const Real> x,
                                     const OffDiagonalVisitor& visit) const = 0;

  /// True if the operator is diagonal in the computational basis (QUBO /
  /// Max-Cut); lets the local-energy engine skip wavefunction evaluations at
  /// connected configurations entirely.
  [[nodiscard]] virtual bool is_diagonal() const { return false; }

  /// Human-readable family name ("TIM", "MaxCut", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  // -- Dense/exact helpers (exponential in n; for validation only) ---------

  /// y = H v on the full 2^n-dimensional space. Requires n <= 24.
  void apply_dense(std::span<const Real> v, std::span<Real> y) const;

  /// Materialize H as a dense 2^n x 2^n matrix. Requires n <= 14.
  [[nodiscard]] Matrix to_dense() const;
};

/// Decode basis-state index `idx` into a {0,1} configuration (bit i of the
/// paper's binary row representation: x = 2^{n-1} x_1 ... 2^0 x_n, so
/// site 0 corresponds to the most significant bit).
void decode_basis_state(std::uint64_t idx, std::span<Real> x);

/// Inverse of decode_basis_state.
std::uint64_t encode_basis_state(std::span<const Real> x);

/// Ising sign of site i: s_i = 1 - 2 x_i.
inline Real ising_sign(Real x) { return 1 - 2 * x; }

}  // namespace vqmc
