#pragma once

/// \file masked_plan.hpp
/// \brief Mask geometry of the MADE family (DESIGN.md §5f).
///
/// The autoregressive masks are fixed at construction, and with the hidden
/// units stored in ascending degree order every mask row is a prefix: W1
/// row t is [0, m_t) of the inputs, W2 row i is [0, degree_end[i]) of the
/// units, and W1 column j is the suffix [degree_end[j], h) of the units.
/// MaskedPlan records exactly those lengths, computed once from the degree
/// counts alone (no dense mask).  The prefix kernels in tensor/kernels.hpp
/// take one length per weight row and read the weights in place in the
/// parameter vector, skipping the ~50% of multiply-adds the masks zero out
/// and accumulating weight gradients without a mask-apply pass.  Nothing
/// here depends on the parameter values, so no model in the family keeps a
/// derived copy of its weights, a version counter or a lock: a write
/// through any held parameters() span is seen by the next evaluation.
///
/// W1's columns are the one operand the parameter vector does not store
/// contiguously.  The ancestral samplers' rank-1 update and the flip path
/// read them from a column packing at `w1_col_offsets`, which the caller
/// fills from the current parameters (Made::pack_w1_columns).

#include <cstddef>
#include <vector>

namespace vqmc {

/// The mask geometry of an n-spin, h-unit MADE.  The hidden degrees are
/// the multiset {1 + (k mod (n - 1)) : k < h} (Germain et al.'s masks are
/// valid for any assignment), stored in ascending order: unit t has degree
/// m_t, reads inputs [0, m_t) and feeds outputs [m_t, n).  Computed once
/// at construction in O(n + h).
struct MaskedPlan {
  /// degree[t] (t < h) is m_t, the length of W1 row t.
  std::vector<std::size_t> degree;
  /// degree_end[i] (i < n) counts the units of degree <= i, the length of
  /// W2 row i: output i reads units [0, degree_end[i]) and input i feeds
  /// units [degree_end[i], h).  degree_end[0] == 0 and degree_end[n - 1]
  /// == h.
  std::vector<std::size_t> degree_end;
  /// size n + 1: W1 column j's in-mask values, units [degree_end[j], h),
  /// sit at [w1_col_offsets[j], w1_col_offsets[j + 1]) of a column packing.
  std::vector<std::size_t> w1_col_offsets;

  MaskedPlan() = default;
  /// Requires n >= 2 and h >= 1.
  MaskedPlan(std::size_t n, std::size_t h) : degree(h), degree_end(n, 0) {
    // Degree d holds the units k < h with k mod (n - 1) == d - 1.
    for (std::size_t d = 1; d < n; ++d)
      degree_end[d] = degree_end[d - 1] + h / (n - 1) +
                      (d - 1 < h % (n - 1) ? 1 : 0);
    for (std::size_t d = 1; d < n; ++d)
      for (std::size_t t = degree_end[d - 1]; t < degree_end[d]; ++t)
        degree[t] = d;
    w1_col_offsets.assign(n + 1, 0);
    for (std::size_t j = 0; j < n; ++j)
      w1_col_offsets[j + 1] = w1_col_offsets[j] + (h - degree_end[j]);
  }
};

}  // namespace vqmc
