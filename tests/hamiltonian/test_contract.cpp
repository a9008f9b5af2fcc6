/// Interface-contract property tests: every Hamiltonian family must satisfy
/// the Definition-2.1 requirements the rest of the library relies on —
/// symmetry, non-positive off-diagonals (Perron-Frobenius), agreement
/// between the visitor enumeration, to_dense() and apply_dense(), and the
/// advertised row-sparsity bound.

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "hamiltonian/exact.hpp"
#include "hamiltonian/heisenberg.hpp"
#include "hamiltonian/maxcut.hpp"
#include "hamiltonian/qubo.hpp"
#include "hamiltonian/transverse_field_ising.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "tensor/kernels.hpp"
#include "tensor/kernels_ref.hpp"

namespace vqmc {
namespace {

using Factory = std::function<std::unique_ptr<Hamiltonian>()>;

struct Family {
  std::string label;
  Factory make;
};

std::vector<Family> families() {
  return {
      {"TIM-dense",
       [] {
         return std::make_unique<TransverseFieldIsing>(
             TransverseFieldIsing::random_dense(6, 11));
       }},
      {"TIM-chain",
       [] {
         return std::make_unique<TransverseFieldIsing>(
             TransverseFieldIsing::uniform_chain(6, 0.8, 0.6));
       }},
      {"MaxCut",
       [] { return std::make_unique<MaxCut>(MaxCut::paper_instance(6, 12)); }},
      {"QUBO", [] { return std::make_unique<Qubo>(Qubo::random_dense(6, 13)); }},
      {"XXZ",
       [] {
         return std::make_unique<XxzHeisenberg>(XxzHeisenberg::chain(6, 0.4, 0.7));
       }},
  };
}

class HamiltonianContract : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HamiltonianContract, DenseMatrixIsSymmetric) {
  const auto h = families()[GetParam()].make();
  const Matrix m = h->to_dense();
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = i + 1; j < m.cols(); ++j)
      ASSERT_EQ(m(i, j), m(j, i)) << families()[GetParam()].label;
}

TEST_P(HamiltonianContract, OffDiagonalsAreNonPositive) {
  // Section 2.1's sign assumption: non-positive off-diagonals so the ground
  // state can be chosen entrywise non-negative.
  const auto h = families()[GetParam()].make();
  const Matrix m = h->to_dense();
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      if (i != j)
        ASSERT_LE(m(i, j), 0.0) << families()[GetParam()].label;
}

TEST_P(HamiltonianContract, VisitorAgreesWithDenseMatrix) {
  const auto h = families()[GetParam()].make();
  const std::size_t n = h->num_spins();
  const Matrix m = h->to_dense();
  Vector x(n);
  for (std::uint64_t row = 0; row < m.rows(); ++row) {
    decode_basis_state(row, x.span());
    ASSERT_NEAR(h->diagonal(x.span()), m(row, row), 1e-12);
    Real off_sum_visitor = 0;
    h->for_each_off_diagonal(
        x.span(), [&](std::span<const std::size_t> flips, Real value) {
          ASSERT_FALSE(flips.empty());
          off_sum_visitor += value;
        });
    Real off_sum_dense = 0;
    for (std::uint64_t col = 0; col < m.cols(); ++col)
      if (col != row) off_sum_dense += m(row, col);
    ASSERT_NEAR(off_sum_visitor, off_sum_dense, 1e-12)
        << families()[GetParam()].label << " row " << row;
  }
}

TEST_P(HamiltonianContract, ApplyDenseMatchesMaterializedMatrix) {
  const auto h = families()[GetParam()].make();
  const Matrix m = h->to_dense();
  const std::size_t dim = m.rows();
  rng::Xoshiro256 gen(99);
  Vector v(dim), via_apply(dim), via_gemv(dim);
  for (std::size_t i = 0; i < dim; ++i) v[i] = rng::uniform(gen, -1.0, 1.0);
  h->apply_dense(v.span(), via_apply.span());
  ref::gemv(m, v.span(), via_gemv.span());
  for (std::size_t i = 0; i < dim; ++i)
    ASSERT_NEAR(via_apply[i], via_gemv[i], 1e-11);
}

TEST_P(HamiltonianContract, RowSparsityBoundHolds) {
  const auto h = families()[GetParam()].make();
  const std::size_t n = h->num_spins();
  Vector x(n);
  for (std::uint64_t row = 0; row < (std::uint64_t(1) << n); ++row) {
    decode_basis_state(row, x.span());
    std::size_t entries = 1;  // the diagonal
    h->for_each_off_diagonal(
        x.span(), [&](std::span<const std::size_t>, Real) { ++entries; });
    ASSERT_LE(entries, h->row_sparsity()) << families()[GetParam()].label;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, HamiltonianContract,
                         ::testing::Range<std::size_t>(0, 5),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return families()[info.param].label.substr(0, 3) +
                                  std::to_string(info.param);
                         });

}  // namespace
}  // namespace vqmc
