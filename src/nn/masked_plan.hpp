#pragma once

/// \file masked_plan.hpp
/// \brief Mask-aware compute plan for the MADE family (DESIGN.md §5f).
///
/// The autoregressive masks are fixed at construction, so everything
/// derivable from them is computed exactly once:
///
///  * **MaskedPlan** — per-row `[begin, end)` column extents of each masked
///    weight matrix (RowExtents).  The extent-aware kernels in
///    tensor/kernels.hpp use them to skip the ~50% of multiply-adds the
///    masks zero out, and the gradient paths use them to accumulate weight
///    gradients without a separate mask-apply pass.  Since PR 6 the plan
///    also records the W1 **column-panel geometry** (ColPanelGeometry): the
///    ancestral samplers' rank-1 update walks the active rows of one W1
///    column per accepted spin, and the packed row lists turn that walk
///    into a contiguous stream instead of a strided masked column scan.
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
#include <span>
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

/// Column-panel geometry of a row-extent mask: for each column j, the
/// packed ascending list of rows whose extents contain j.  This is the
/// transpose view the ancestral samplers need — accepting spin i adds
/// column i of M1 .* W1 to the hidden pre-activations, touching exactly the
/// rows listed for that column.  Pairing the geometry with per-version
/// packed column values (built alongside the masked weights) makes the
/// rank-1 update a unit-stride gather-add.  Each row appears at most once
/// per column, so the update order is unique and the result is bitwise
/// identical to the strided masked column walk it replaces.
struct ColPanelGeometry {
  std::vector<std::size_t> offsets;  ///< size cols()+1, into `rows`
  std::vector<std::uint32_t> rows;   ///< active row ids, packed per column

  [[nodiscard]] std::size_t cols() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  /// Active rows of column j (ascending).
  [[nodiscard]] std::span<const std::uint32_t> col(std::size_t j) const {
    return {rows.data() + offsets[j], offsets[j + 1] - offsets[j]};
  }

  /// Invert a row-extent list into per-column row panels.
  void build(RowExtentsView ext, std::size_t ncols) {
    offsets.assign(ncols + 1, 0);
    for (std::size_t r = 0; r < ext.rows(); ++r)
      for (const ColSpan s : ext.row(r))
        for (std::size_t j = s.begin; j < s.end; ++j) ++offsets[j + 1];
    for (std::size_t j = 0; j < ncols; ++j) offsets[j + 1] += offsets[j];
    rows.resize(offsets[ncols]);
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::size_t r = 0; r < ext.rows(); ++r)
      for (const ColSpan s : ext.row(r))
        for (std::size_t j = s.begin; j < s.end; ++j)
          rows[cursor[j]++] = std::uint32_t(r);
  }
};

/// The per-model mask geometry: extents of the first-layer (prefix) and
/// output-layer (cyclic-prefix) masks, plus the W1 column panels for the
/// samplers' rank-1 updates.  Computed once at construction; the
/// per-parameter-version value packings (PackedRowPanels, column values)
/// live in the models' MaskedWeights so they rebuild with the weights.
struct MaskedPlan {
  RowExtents w1;            ///< per W1 row: [0, m_k) prefix
  RowExtents w2;            ///< per W2 row: cyclic prefix interval list
  ColPanelGeometry w1_cols; ///< per W1 column: active hidden rows

  void build(const Matrix& mask1, const Matrix& mask2) {
    w1 = RowExtents::from_mask(mask1);
    w2 = RowExtents::from_mask(mask2);
    w1_cols.build(w1.view(), mask1.cols());
  }
};

}  // namespace vqmc
