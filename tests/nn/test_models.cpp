/// \file test_models.cpp
/// \brief The workspace contract of every model (wavefunction.hpp): each
/// evaluation gives bitwise the same outputs on the model's own workspace,
/// reused across batch shapes, on no workspace, and on another family's
/// workspace, which the model must set aside for call-local scratch.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>

#include "nn/deep_made.hpp"
#include "nn/made.hpp"
#include "nn/rbm.hpp"
#include "nn/rnn.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"

namespace vqmc {
namespace {

Matrix random_bits(std::size_t bs, std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  Matrix batch(bs, n);
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch.data()[i] = rng::bernoulli(gen, 0.5) ? 1 : 0;
  return batch;
}

void randomize_parameters(WavefunctionModel& model, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  for (Real& p : model.parameters()) p = rng::uniform(gen, -0.8, 0.8);
}

/// Every evaluation of one model on one batch.
struct Evaluations {
  Vector log_psi, grad;
  Matrix per_sample, gram, ratios, conditionals;
  bool has_ratios = false;
};

Evaluations evaluate(const WavefunctionModel& model, const Matrix& batch,
                     WavefunctionModel::Workspace* ws) {
  const std::size_t bs = batch.rows();
  const std::size_t d = model.num_parameters();
  const std::size_t sites[] = {0, 3, model.num_spins() - 1};
  Evaluations e{Vector(bs),    Vector(d),     Matrix(bs, d),
                Matrix(bs, bs), Matrix(bs, 3), Matrix()};
  Vector coeff(bs);
  for (std::size_t k = 0; k < bs; ++k) coeff[k] = Real(0.25) * Real(k + 1);
  model.log_psi_ws(batch, e.log_psi.span(), ws);
  model.accumulate_log_psi_gradient_ws(batch, coeff.span(), e.grad.span(),
                                       ws);
  model.log_psi_gradient_per_sample_ws(batch, e.per_sample, ws);
  model.log_psi_gradient_gram(batch, e.gram, ws);
  e.has_ratios = model.log_psi_flip_ratios(batch, sites, e.ratios, ws);
  if (const auto* ar = dynamic_cast<const AutoregressiveModel*>(&model))
    ar->conditionals(batch, e.conditionals, ws);
  return e;
}

bool same(std::span<const Real> a, std::span<const Real> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

bool same(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         same({a.data(), a.size()}, {b.data(), b.size()});
}

void expect_same(const Evaluations& got, const Evaluations& want,
                 const std::string& what) {
  EXPECT_TRUE(same(got.log_psi.span(), want.log_psi.span()))
      << what << ": log psi";
  EXPECT_TRUE(same(got.grad.span(), want.grad.span())) << what << ": gradient";
  EXPECT_TRUE(same(got.per_sample, want.per_sample))
      << what << ": per-sample gradients";
  EXPECT_TRUE(same(got.gram, want.gram)) << what << ": Gram";
  EXPECT_EQ(got.has_ratios, want.has_ratios) << what;
  EXPECT_TRUE(same(got.ratios, want.ratios))
      << what << ": flip ratios";
  EXPECT_TRUE(same(got.conditionals, want.conditionals))
      << what << ": conditionals";
}

TEST(Models, WorkspaceReuseAcrossShapesGivesIdenticalResults) {
  // Own workspace through 37 -> 5 -> 37 rows, then a foreign one (MADE's
  // for the others, RBM's for MADE), against the null-workspace results.
  // LocalEnergyEngine::bind relies on the foreign case: a rebound engine
  // keeps the workspaces it made for the previous model.
  Made made(10, 13);
  DeepMade deep(10, 13, 2);
  Rbm rbm(10, 7);
  RnnWavefunction rnn(10, 6);
  WavefunctionModel* const models[] = {&made, &deep, &rbm, &rnn};
  const Matrix big = random_bits(37, 10, 102);
  const Matrix small = random_bits(5, 10, 103);
  std::uint64_t seed = 101;
  for (WavefunctionModel* model : models) {
    SCOPED_TRACE(model->name());
    randomize_parameters(*model, seed++);
    const Evaluations want_big = evaluate(*model, big, nullptr);
    const Evaluations want_small = evaluate(*model, small, nullptr);
    EXPECT_EQ(want_big.has_ratios, model == &made || model == &rbm);

    const auto own = model->make_workspace();
    expect_same(evaluate(*model, big, own.get()), want_big, "own, 37 rows");
    expect_same(evaluate(*model, small, own.get()), want_small, "own, 5 rows");
    expect_same(evaluate(*model, big, own.get()), want_big, "own, 37 again");

    const auto foreign =
        (model == &made ? static_cast<WavefunctionModel&>(rbm) : made)
            .make_workspace();
    expect_same(evaluate(*model, big, foreign.get()), want_big, "foreign");
    expect_same(evaluate(*model, small, foreign.get()), want_small,
                "foreign, 5 rows");
  }
}

}  // namespace
}  // namespace vqmc
