#pragma once

/// \file made_masks.hpp
/// \brief Dense MADE masks built from the documented degree rule.
///
/// Made and DeepMade keep their masks only as row extents (MaskedPlan); the
/// dense 0/1 matrices here are the oracle that tests and
/// bench_masked_gemm check those extents and the packed weights against.
/// Hidden unit k has degree m_k = 1 + (k mod (n - 1)) (made.hpp).

#include <cstddef>

#include "tensor/matrix.hpp"

namespace vqmc::testing {

/// Degree of hidden unit k in an n-spin MADE.
inline std::size_t made_degree(std::size_t k, std::size_t n) {
  return 1 + (k % (n - 1));
}

/// M1 (h x n): unit k reads input j iff j + 1 <= m_k.
inline Matrix made_input_mask(std::size_t n, std::size_t h) {
  Matrix m(h, n);
  for (std::size_t k = 0; k < h; ++k)
    for (std::size_t j = 0; j < n; ++j)
      m(k, j) = j + 1 <= made_degree(k, n) ? 1 : 0;
  return m;
}

/// M2 (n x h): output i reads unit k iff i + 1 > m_k.
inline Matrix made_output_mask(std::size_t n, std::size_t h) {
  Matrix m(n, h);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < h; ++k)
      m(i, k) = i + 1 > made_degree(k, n) ? 1 : 0;
  return m;
}

/// DeepMade's hidden-to-hidden mask (h x h): unit k reads unit j of the
/// layer below iff m_k >= m_j.
inline Matrix made_hidden_mask(std::size_t n, std::size_t h) {
  Matrix m(h, h);
  for (std::size_t k = 0; k < h; ++k)
    for (std::size_t j = 0; j < h; ++j)
      m(k, j) = made_degree(k, n) >= made_degree(j, n) ? 1 : 0;
  return m;
}

}  // namespace vqmc::testing
