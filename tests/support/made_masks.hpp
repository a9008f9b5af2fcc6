#pragma once

/// \file made_masks.hpp
/// \brief Dense MADE masks built from the documented degree rule.
///
/// Made and DeepMade keep their masks only as prefix lengths (MaskedPlan);
/// the dense 0/1 matrices here are the oracle that tests and
/// bench_masked_gemm check those lengths and the W1 column packing
/// against.
/// The hidden degrees are the multiset {1 + (k mod (n - 1)) : k < h},
/// stored in ascending order (made.hpp); this file sorts that multiset
/// itself instead of reading the model's degree counts.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "tensor/matrix.hpp"

namespace vqmc::testing {

/// Degrees of the h hidden units of an n-spin MADE, in storage order.
inline std::vector<std::size_t> made_degrees(std::size_t n, std::size_t h) {
  std::vector<std::size_t> m(h);
  for (std::size_t k = 0; k < h; ++k) m[k] = 1 + (k % (n - 1));
  std::sort(m.begin(), m.end());
  return m;
}

/// M1 (h x n): unit k reads input j iff j + 1 <= m_k.
inline Matrix made_input_mask(std::size_t n, std::size_t h) {
  const std::vector<std::size_t> m = made_degrees(n, h);
  Matrix mask(h, n);
  for (std::size_t k = 0; k < h; ++k)
    for (std::size_t j = 0; j < n; ++j) mask(k, j) = j + 1 <= m[k] ? 1 : 0;
  return mask;
}

/// M2 (n x h): output i reads unit k iff i + 1 > m_k.
inline Matrix made_output_mask(std::size_t n, std::size_t h) {
  const std::vector<std::size_t> m = made_degrees(n, h);
  Matrix mask(n, h);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < h; ++k) mask(i, k) = i + 1 > m[k] ? 1 : 0;
  return mask;
}

/// DeepMade's hidden-to-hidden mask (h x h): unit k reads unit j of the
/// layer below iff m_k >= m_j.
inline Matrix made_hidden_mask(std::size_t n, std::size_t h) {
  const std::vector<std::size_t> m = made_degrees(n, h);
  Matrix mask(h, h);
  for (std::size_t k = 0; k < h; ++k)
    for (std::size_t j = 0; j < h; ++j) mask(k, j) = m[k] >= m[j] ? 1 : 0;
  return mask;
}

}  // namespace vqmc::testing
