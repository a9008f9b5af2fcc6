#include "core/local_energy.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "telemetry/metrics_registry.hpp"

namespace vqmc {

namespace {

constexpr std::size_t kNoColumn = std::numeric_limits<std::size_t>::max();
constexpr std::size_t kEmptySlot = std::numeric_limits<std::size_t>::max();

/// Hash of a row's 64-bit words: four independent multiply-rotate lanes
/// (no carried dependency between neighbouring words), folded and
/// finalized with splitmix64's mixer so every bit reaches the table index.
std::uint64_t row_hash(std::span<const Real> row) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  std::uint64_t lane[4] = {1, 2, 3, 4};
  const std::size_t n = row.size();
  const auto step = [](std::uint64_t h, Real x) {
    return std::rotl((h ^ std::bit_cast<std::uint64_t>(x)) * kMul, 31);
  };
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4)
    for (std::size_t l = 0; l < 4; ++l) lane[l] = step(lane[l], row[j + l]);
  for (; j < n; ++j) lane[0] = step(lane[0], row[j]);
  std::uint64_t z = lane[0] ^ std::rotl(lane[1], 16) ^
                    std::rotl(lane[2], 32) ^ std::rotl(lane[3], 48);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

LocalEnergyEngine::LocalEnergyEngine(const Hamiltonian& hamiltonian,
                                     const WavefunctionModel& model,
                                     std::size_t chunk_size,
                                     Real max_log_ratio)
    : hamiltonian_(hamiltonian),
      model_(&model),
      chunk_size_(std::max<std::size_t>(1, chunk_size)),
      max_log_ratio_(max_log_ratio),
      batch_ws_(model.make_workspace()) {
  VQMC_REQUIRE(hamiltonian_.num_spins() == model.num_spins(),
               "local energy: Hamiltonian and model disagree on spin count");
  VQMC_REQUIRE(max_log_ratio_ > 0, "local energy: clamp must be positive");
}

void LocalEnergyEngine::bind(const WavefunctionModel& model) {
  VQMC_REQUIRE(hamiltonian_.num_spins() == model.num_spins(),
               "local energy: Hamiltonian and model disagree on spin count");
  model_ = &model;
}

Real LocalEnergyEngine::exp_clamped(Real log_ratio) const {
  return std::exp(std::clamp(log_ratio, -max_log_ratio_, max_log_ratio_));
}

void LocalEnergyEngine::push_connected(const Matrix& batch, std::size_t k,
                                       std::span<const std::size_t> flips,
                                       Real value, std::span<Real> out) {
  const std::size_t n = batch.cols();
  if (chunk_configs_.rows() != chunk_size_ || chunk_configs_.cols() != n) {
    chunk_configs_ = Matrix(chunk_size_, n);
    chunk_log_psi_ = Vector(chunk_size_);
    chunk_sample_.resize(chunk_size_);
    chunk_value_.resize(chunk_size_);
    chunk_ws_ = model_->make_workspace();
    partial_ws_ = model_->make_workspace();
  }
  const std::span<const Real> x = batch.row(k);
  auto dst = chunk_configs_.row(chunk_fill_);
  std::copy(x.begin(), x.end(), dst.begin());
  for (std::size_t site : flips) dst[site] = 1 - dst[site];
  chunk_sample_[chunk_fill_] = k;
  chunk_value_[chunk_fill_] = value;
  if (++chunk_fill_ == chunk_size_) flush_chunk(batch, out);
}

void LocalEnergyEngine::flush_chunk(const Matrix& batch, std::span<Real> out) {
  if (chunk_fill_ == 0) return;
  // log psi at the sample rows (the ratios' denominator), once per batch.
  if (!have_log_psi_x_) {
    log_psi_x_.resize(batch.rows());
    model_->log_psi_ws(batch, log_psi_x_, batch_ws_.get());
    ++forward_passes_;
    have_log_psi_x_ = true;
  }
  // Evaluate log psi at the buffered connected configurations: a full
  // chunk in place, a partial one through a persistent copy of the filled
  // prefix (same shape on every step of a fixed batch, so it is reused).
  const Matrix* configs = &chunk_configs_;
  WavefunctionModel::Workspace* ws = chunk_ws_.get();
  if (chunk_fill_ < chunk_size_) {
    const std::size_t n = chunk_configs_.cols();
    ensure_shape(partial_configs_, chunk_fill_, n);
    std::copy_n(chunk_configs_.data(), chunk_fill_ * n,
                partial_configs_.data());
    configs = &partial_configs_;
    ws = partial_ws_.get();
  }
  const std::span<Real> chunk_log_psi =
      chunk_log_psi_.span().first(chunk_fill_);
  model_->log_psi_ws(*configs, chunk_log_psi, ws);
  ++forward_passes_;
  for (std::size_t r = 0; r < chunk_fill_; ++r) {
    const std::size_t k = chunk_sample_[r];
    out[k] += chunk_value_[r] * exp_clamped(chunk_log_psi[r] - log_psi_x_[k]);
  }
  chunk_fill_ = 0;
}

std::size_t LocalEnergyEngine::group_rows(const Matrix& batch) {
  const std::size_t bs = batch.rows();
  const std::size_t row_bytes = batch.cols() * sizeof(Real);
  std::size_t table = 16;
  while (table < 2 * bs) table *= 2;
  slots_.assign(table, kEmptySlot);
  row_group_.resize(bs);
  group_first_.clear();
  group_hash_.clear();
  for (std::size_t k = 0; k < bs; ++k) {
    const std::uint64_t hash = row_hash(batch.row(k));
    for (std::size_t slot = hash & (table - 1);;
         slot = (slot + 1) & (table - 1)) {
      const std::size_t group = slots_[slot];
      if (group == kEmptySlot) {
        slots_[slot] = row_group_[k] = group_first_.size();
        group_first_.push_back(k);
        group_hash_.push_back(hash);
        break;
      }
      if (group_hash_[group] == hash &&
          std::memcmp(batch.row(group_first_[group]).data(),
                      batch.row(k).data(), row_bytes) == 0) {
        row_group_[k] = group;
        break;
      }
    }
  }
  return group_first_.size();
}

void LocalEnergyEngine::compute(const Matrix& batch, std::span<Real> out) {
  const std::size_t bs = batch.rows();
  const std::size_t n = batch.cols();
  VQMC_REQUIRE(out.size() == bs, "local energy: output size mismatch");
  VQMC_REQUIRE(n == hamiltonian_.num_spins(),
               "local energy: batch has wrong spin count");

  // A diagonal Hamiltonian evaluates no model: one diagonal call, no
  // grouping.
  const bool diagonal = hamiltonian_.is_diagonal();
  const std::size_t distinct = diagonal ? bs : group_rows(batch);
  if (telemetry::enabled()) {
    telemetry::MetricsRegistry& registry = telemetry::metrics();
    registry.counter("local_energy.rows").add(bs);
    registry.counter("local_energy.distinct_rows").add(distinct);
  }
  if (diagonal) {
    hamiltonian_.diagonal_batch(batch, out);
    return;
  }
  if (distinct == bs) {
    // Shape the gather storage anyway, so that a later batch with repeats
    // and no more rows than this one allocates nothing.
    ensure_shape(distinct_rows_, bs, n);
    distinct_out_.reserve(bs);
    evaluate(batch, out);
    return;
  }
  ensure_shape(distinct_rows_, distinct, n);
  for (std::size_t group = 0; group < distinct; ++group) {
    const std::span<const Real> row = batch.row(group_first_[group]);
    std::copy(row.begin(), row.end(), distinct_rows_.row(group).begin());
  }
  distinct_out_.resize(distinct);
  evaluate(distinct_rows_, distinct_out_);
  for (std::size_t k = 0; k < bs; ++k) out[k] = distinct_out_[row_group_[k]];
}

void LocalEnergyEngine::evaluate(const Matrix& batch, std::span<Real> out) {
  const std::size_t bs = batch.rows();
  const std::size_t n = batch.cols();

  // Diagonal part, one call for the batch.
  hamiltonian_.diagonal_batch(batch, out);

  have_log_psi_x_ = false;
  chunk_fill_ = 0;
  site_column_.assign(n, kNoColumn);

  // The visitors capture two pointers, small enough for std::function to
  // store them inline: building them once per call allocates nothing.
  struct Cursor {
    const Matrix& batch;
    std::span<Real> out;
    std::size_t k = 0;
    bool flip = false;  ///< the model returned the single-flip ratios
  } cursor{batch, out};

  // Pass 1: multi-site entries go through the full-forward chunks;
  // single-site entries only record their site.
  const OffDiagonalVisitor first = [this, &cursor](
                                       std::span<const std::size_t> flips,
                                       Real value) {
    if (flips.size() == 1) {
      site_column_[flips[0]] = 0;
    } else {
      push_connected(cursor.batch, cursor.k, flips, value, cursor.out);
    }
  };
  for (cursor.k = 0; cursor.k < bs; ++cursor.k)
    hamiltonian_.for_each_off_diagonal(batch.row(cursor.k), first);
  flush_chunk(batch, out);

  flip_sites_.clear();
  for (std::size_t site = 0; site < n; ++site) {
    if (site_column_[site] == kNoColumn) continue;
    site_column_[site] = flip_sites_.size();
    flip_sites_.push_back(site);
  }
  if (flip_sites_.empty()) return;

  // One batched call for every single-site ratio of every row; models
  // without the flip path send these entries through the chunks instead.
  ensure_shape(flip_ratios_, bs, flip_sites_.size());
  cursor.flip = model_->log_psi_flip_ratios(batch, flip_sites_, flip_ratios_,
                                            batch_ws_.get());
  if (cursor.flip) ++forward_passes_;

  // Pass 2: the single-site entries, in the same visiting order.
  const OffDiagonalVisitor second = [this, &cursor](
                                        std::span<const std::size_t> flips,
                                        Real value) {
    if (flips.size() != 1) return;
    if (cursor.flip) {
      cursor.out[cursor.k] +=
          value *
          exp_clamped(flip_ratios_(cursor.k, site_column_[flips[0]]));
    } else {
      push_connected(cursor.batch, cursor.k, flips, value, cursor.out);
    }
  };
  for (cursor.k = 0; cursor.k < bs; ++cursor.k)
    hamiltonian_.for_each_off_diagonal(batch.row(cursor.k), second);
  flush_chunk(batch, out);
}

}  // namespace vqmc
