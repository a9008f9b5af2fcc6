#pragma once

/// \file masked_plan.hpp
/// \brief Mask-aware compute plan for the MADE family (DESIGN.md §5f).
///
/// The autoregressive masks are fixed at construction, so everything
/// derivable from them is computed exactly once:
///
///  * **MaskedPlan** — MADE's hidden units stored in ascending degree
///    order, and the mask geometry that order gives: every W1 row is a
///    prefix [0, m_t), every W2 row i the prefix [0, degree_end[i]) of the
///    units, every W1 column j the suffix [degree_end[j], h).  The plan is
///    built from the degree counts alone (no dense mask) as per-row
///    `[begin, end)` extents (RowExtents) for the extent-aware kernels in
///    tensor/kernels.hpp, which skip the ~50% of multiply-adds the masks
///    zero out and accumulate weight gradients without a mask-apply pass;
///    the ancestral samplers' rank-1 update and the flip path read W1
///    column by column from a packing at `w1_col_offsets`.
///  * **ParamVersion / VersionedCache** — the packed masked weights depend
///    on the parameters, which do change during training.  Every model in
///    the family bumps a version counter whenever its mutable
///    `parameters()` span is handed out (the only write path), and the
///    packed forms are cached behind that counter: rebuilt at most once per
///    parameter write, shared by every forward / gradient / serve call in
///    between.  Nothing dense is kept: the kernels read the weights in
///    place (~1.9 ms per request at n = 1000 went to re-materializing dense
///    masked copies on *every* call before this cache).
///
/// Concurrency contract: concurrent const readers (the serve snapshot is
/// hammered from many threads) may race only on the cache itself, which is
/// guarded by a mutex inside VersionedCache; a reader never observes a
/// half-built entry.  Writing parameters concurrently with reads remains
/// forbidden, exactly as documented in made.hpp.
///
/// Mutable-span caveat: the version counter can only see writes that go
/// through `parameters()`.  Callers must re-acquire the span before each
/// round of writes instead of caching it across evaluations
/// (nn/gradient_check.cpp is the canonical in-tree example).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "tensor/kernels.hpp"

namespace vqmc {

/// Copyable atomic parameter-version counter.  Copying a model snapshots
/// the current version; the copy starts with an empty cache lineage of its
/// own (see VersionedCache).
class ParamVersion {
 public:
  ParamVersion() = default;
  ParamVersion(const ParamVersion& other) : v_(other.value()) {}
  ParamVersion& operator=(const ParamVersion& other) {
    v_.store(other.value(), std::memory_order_release);
    return *this;
  }

  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_acquire);
  }
  void bump() { v_.fetch_add(1, std::memory_order_acq_rel); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Version-keyed cache of an immutable derived object (the packed masked
/// weights).  `fetch` returns the cached entry when its version matches and
/// otherwise rebuilds under the lock, so concurrent readers after an
/// invalidation do the rebuild exactly once.  T must expose a `version`
/// member.
template <typename T>
class VersionedCache {
 public:
  VersionedCache() = default;
  VersionedCache(const VersionedCache& other) : ptr_(other.snapshot()) {}
  VersionedCache& operator=(const VersionedCache& other) {
    if (this != &other) {
      auto p = other.snapshot();
      const std::lock_guard<std::mutex> lock(mutex_);
      ptr_ = std::move(p);
    }
    return *this;
  }

  /// Cached entry for `version`, rebuilding via `build()` (which must
  /// return a shared_ptr whose `version` field equals `version`) if stale.
  template <typename BuildFn>
  [[nodiscard]] std::shared_ptr<const T> fetch(std::uint64_t version,
                                               BuildFn&& build) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (ptr_ == nullptr || ptr_->version != version)
      ptr_ = std::forward<BuildFn>(build)();
    return ptr_;
  }

  [[nodiscard]] std::shared_ptr<const T> snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return ptr_;
  }

 private:
  mutable std::mutex mutex_;
  mutable std::shared_ptr<const T> ptr_;
};

/// The mask geometry of an n-spin, h-unit MADE.  The hidden degrees are
/// the multiset {1 + (k mod (n - 1)) : k < h} (Germain et al.'s masks are
/// valid for any assignment), stored in ascending order: unit t has degree
/// m_t, reads inputs [0, m_t) and feeds outputs [m_t, n).  Computed once
/// at construction in O(n + h); the per-parameter-version value packings
/// (PackedRowPanels, column values) live in the models' MaskedWeights so
/// they rebuild with the weights.
struct MaskedPlan {
  /// degree_end[i] (i < n) counts the units of degree <= i: output i reads
  /// units [0, degree_end[i]) and input i feeds units [degree_end[i], h).
  /// degree_end[0] == 0 and degree_end[n - 1] == h.
  std::vector<std::size_t> degree_end;
  RowExtents w1;  ///< per W1 row t: the prefix [0, m_t)
  RowExtents w2;  ///< per W2 row i: the prefix [0, degree_end[i])
  /// size n + 1: W1 column j's in-mask values, units [degree_end[j], h),
  /// sit at [w1_col_offsets[j], w1_col_offsets[j + 1]) of a column packing.
  std::vector<std::size_t> w1_col_offsets;

  MaskedPlan() = default;
  /// Requires n >= 2 and h >= 1.
  MaskedPlan(std::size_t n, std::size_t h) : degree_end(n, 0) {
    // Degree d holds the units k < h with k mod (n - 1) == d - 1.
    for (std::size_t d = 1; d < n; ++d)
      degree_end[d] = degree_end[d - 1] + h / (n - 1) +
                      (d - 1 < h % (n - 1) ? 1 : 0);
    std::vector<std::size_t> degree(h);
    for (std::size_t d = 1; d < n; ++d)
      for (std::size_t t = degree_end[d - 1]; t < degree_end[d]; ++t)
        degree[t] = d;
    w1 = RowExtents::prefixes(degree);
    w2 = RowExtents::prefixes(degree_end);
    w1_col_offsets.assign(n + 1, 0);
    for (std::size_t j = 0; j < n; ++j)
      w1_col_offsets[j + 1] = w1_col_offsets[j] + (h - degree_end[j]);
  }
};

}  // namespace vqmc
