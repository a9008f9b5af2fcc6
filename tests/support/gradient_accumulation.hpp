#pragma once

/// \file gradient_accumulation.hpp
/// \brief Check of the WavefunctionModel `grad +=` contract from a nonzero
/// starting gradient.
///
/// The models accumulate their weight gradients straight into the caller's
/// gradient vector, so starting from a nonzero gradient is the case that
/// tells "adds onto grad" from "overwrites grad".  The trainer always
/// starts from zero; this check does not.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "nn/wavefunction.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "tensor/vector.hpp"

namespace vqmc::testing {

/// Accumulates `model`'s gradient for (batch, coeff) onto a random grad0
/// and onto zeros.  Where `touched[i]`, the first must equal grad0 plus the
/// second within `tol` (the two sum in different orders); elsewhere, as
/// outside a masked model's masks, it must equal grad0 bit for bit.
inline void expect_gradient_accumulates_onto(
    const WavefunctionModel& model, const Matrix& batch,
    std::span<const Real> coeff, const std::vector<bool>& touched,
    std::uint64_t seed, Real tol) {
  const std::size_t d = model.num_parameters();
  ASSERT_EQ(touched.size(), d);
  rng::Xoshiro256 gen(seed);
  Vector grad0(d), from_zero(d), from_grad0(d);
  for (std::size_t i = 0; i < d; ++i)
    grad0[i] = from_grad0[i] = rng::uniform(gen, -2.0, 2.0);
  model.accumulate_log_psi_gradient(batch, coeff, from_zero.span());
  model.accumulate_log_psi_gradient(batch, coeff, from_grad0.span());
  for (std::size_t i = 0; i < d; ++i) {
    if (touched[i])
      EXPECT_NEAR(from_grad0[i], grad0[i] + from_zero[i], tol)
          << "parameter " << i;
    else
      EXPECT_EQ(from_grad0[i], grad0[i]) << "parameter " << i;
  }
}

}  // namespace vqmc::testing
