/// \file test_gram.cpp
/// \brief WavefunctionModel::log_psi_gradient_gram (DESIGN.md §5m): every
/// model's Gram equals O O^T of its explicit per-sample log-derivatives,
/// for MADE with one and with several hidden units per degree, RBM and
/// DeepMADE (the default path).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "nn/deep_made.hpp"
#include "nn/made.hpp"
#include "nn/rbm.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "tensor/kernels_ref.hpp"

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
  for (Real& p : model.parameters()) p = rng::uniform(gen, -0.7, 0.7);
}

/// O O^T of the explicit per-sample matrix, through the scalar reference.
Matrix explicit_gram(const WavefunctionModel& model, const Matrix& batch) {
  Matrix o(batch.rows(), model.num_parameters());
  model.log_psi_gradient_per_sample(batch, o);
  Matrix k(batch.rows(), batch.rows());
  ref::gemm_nt(o, o, k);
  return k;
}

/// max |a - b| / max |b| over every entry.
Real max_relative_difference(const Matrix& a, const Matrix& b) {
  Real diff = 0, scale = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff, std::abs(a.data()[i] - b.data()[i]));
    scale = std::max(scale, std::abs(b.data()[i]));
  }
  return diff / scale;
}

/// The model's Gram, through a workspace and without one, matches the
/// explicit O O^T within 1e-12 relative and is exactly symmetric; both
/// calls agree bit for bit.
void expect_gram_matches_explicit(const WavefunctionModel& model,
                                  std::size_t bs, std::uint64_t seed) {
  const Matrix batch = random_bits(bs, model.num_spins(), seed);
  const Matrix want = explicit_gram(model, batch);
  Matrix got(bs, bs), no_ws(bs, bs);
  const auto ws = model.make_workspace();
  model.log_psi_gradient_gram(batch, got, ws.get());
  model.log_psi_gradient_gram(batch, no_ws, nullptr);
  EXPECT_LE(max_relative_difference(got, want), 1e-12)
      << model.name() << " bs=" << bs;
  for (std::size_t s = 0; s < bs; ++s)
    for (std::size_t t = 0; t < bs; ++t) {
      ASSERT_EQ(got(s, t), got(t, s)) << model.name() << " (" << s << "," << t
                                      << ")";
      ASSERT_EQ(got(s, t), no_ws(s, t)) << model.name();
    }
}

TEST(ModelGram, MadeWithNaturalDegreesMatchesExplicitGram) {
  // h <= n - 1: one unit per degree, degrees 1..h.
  Made made(12, 9);
  randomize_parameters(made, 1);
  for (const std::size_t bs : {1, 2, 7, 8, 37})
    expect_gram_matches_explicit(made, bs, 10 + bs);
}

TEST(ModelGram, MadeWithCyclicDegreesMatchesExplicitGram) {
  // h > n - 1: several units per degree (the sorted multiset of
  // 1 + (k mod (n - 1))); n = 64, h = 86 is the maxcut_sr shape.
  Made small(7, 23);
  randomize_parameters(small, 2);
  for (const std::size_t bs : {3, 16, 29})
    expect_gram_matches_explicit(small, bs, 20 + bs);
  Made wide(64, 86);
  randomize_parameters(wide, 3);
  expect_gram_matches_explicit(wide, 45, 30);
}

TEST(ModelGram, RbmMatchesExplicitGram) {
  Rbm rbm(10, 14);
  randomize_parameters(rbm, 4);
  for (const std::size_t bs : {1, 5, 33})
    expect_gram_matches_explicit(rbm, bs, 40 + bs);
}

TEST(ModelGram, DeepMadeDefaultGramMatchesExplicitGram) {
  DeepMade deep(8, 10, 3);
  randomize_parameters(deep, 5);
  for (const std::size_t bs : {2, 19})
    expect_gram_matches_explicit(deep, bs, 50 + bs);
}

TEST(ModelGram, RejectsAWrongShape) {
  Made made(6, 5);
  Rbm rbm(6, 4);
  DeepMade deep(6, 5, 2);
  const Matrix batch = random_bits(4, 6, 60);
  Matrix wrong(4, 3);
  for (const WavefunctionModel* model :
       {static_cast<const WavefunctionModel*>(&made),
        static_cast<const WavefunctionModel*>(&rbm),
        static_cast<const WavefunctionModel*>(&deep)})
    EXPECT_THROW(model->log_psi_gradient_gram(batch, wrong, nullptr), Error)
        << model->name();
}

}  // namespace
}  // namespace vqmc
