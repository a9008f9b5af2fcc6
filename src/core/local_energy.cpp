#include "core/local_energy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace vqmc {

namespace {

constexpr std::size_t kNoColumn = std::numeric_limits<std::size_t>::max();

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
    if (log_psi_x_.size() != batch.rows()) log_psi_x_ = Vector(batch.rows());
    model_->log_psi_ws(batch, log_psi_x_.span(), batch_ws_.get());
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

void LocalEnergyEngine::compute(const Matrix& batch, std::span<Real> out) {
  const std::size_t bs = batch.rows();
  const std::size_t n = batch.cols();
  VQMC_REQUIRE(out.size() == bs, "local energy: output size mismatch");
  VQMC_REQUIRE(n == hamiltonian_.num_spins(),
               "local energy: batch has wrong spin count");

  // Diagonal part (always needed), one call for the batch.
  hamiltonian_.diagonal_batch(batch, out);

  if (hamiltonian_.is_diagonal()) return;

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
