#pragma once

/// \file real.hpp
/// \brief Scalar type used throughout the library.
///
/// The paper trains in single precision on GPUs; we use double on CPU so the
/// stochastic-reconfiguration Cholesky solve and exact-diagonalization
/// validation are not limited by round-off.  All code is written against
/// `Real` so a float build is a one-line change.

#include <cstddef>

namespace vqmc {

using Real = double;

/// Index type for tensor extents (signed, per C++ Core Guidelines ES.107
/// pragmatism we keep std::size_t at container boundaries and use Index in
/// arithmetic-heavy loops).
using Index = std::ptrdiff_t;

}  // namespace vqmc
