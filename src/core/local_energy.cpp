#include "core/local_energy.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace vqmc {

LocalEnergyEngine::LocalEnergyEngine(const Hamiltonian& hamiltonian,
                                     const WavefunctionModel& model,
                                     std::size_t chunk_size,
                                     Real max_log_ratio)
    : hamiltonian_(hamiltonian),
      model_(model),
      chunk_size_(std::max<std::size_t>(1, chunk_size)),
      max_log_ratio_(max_log_ratio),
      batch_ws_(model.make_workspace()),
      chunk_ws_(model.make_workspace()) {
  VQMC_REQUIRE(hamiltonian_.num_spins() == model_.num_spins(),
               "local energy: Hamiltonian and model disagree on spin count");
  VQMC_REQUIRE(max_log_ratio_ > 0, "local energy: clamp must be positive");
}

void LocalEnergyEngine::flush_chunk(std::span<Real> out) {
  if (chunk_fill_ == 0) return;
  // Evaluate log psi at the buffered connected configurations: a full
  // chunk in place, a partial one through a persistent copy of the filled
  // prefix (same shape on every step of a fixed batch, so it is reused).
  const Matrix* configs = &chunk_configs_;
  if (chunk_fill_ < chunk_size_) {
    const std::size_t n = chunk_configs_.cols();
    ensure_shape(partial_configs_, chunk_fill_, n);
    std::copy_n(chunk_configs_.data(), chunk_fill_ * n,
                partial_configs_.data());
    configs = &partial_configs_;
  }
  const std::span<Real> chunk_log_psi =
      chunk_log_psi_.span().first(chunk_fill_);
  model_.log_psi_ws(*configs, chunk_log_psi, chunk_ws_.get());
  ++forward_passes_;
  for (std::size_t r = 0; r < chunk_fill_; ++r) {
    const std::size_t k = chunk_sample_[r];
    const Real log_ratio = std::clamp(chunk_log_psi[r] - log_psi_x_[k],
                                      -max_log_ratio_, max_log_ratio_);
    out[k] += chunk_value_[r] * std::exp(log_ratio);
  }
  chunk_fill_ = 0;
}

void LocalEnergyEngine::compute(const Matrix& batch, std::span<Real> out) {
  const std::size_t bs = batch.rows();
  const std::size_t n = batch.cols();
  VQMC_REQUIRE(out.size() == bs, "local energy: output size mismatch");
  VQMC_REQUIRE(n == hamiltonian_.num_spins(),
               "local energy: batch has wrong spin count");

  // Diagonal part (always needed).
  for (std::size_t k = 0; k < bs; ++k)
    out[k] = hamiltonian_.diagonal(batch.row(k));

  if (hamiltonian_.is_diagonal()) return;

  // log psi at the sample configurations (denominator of the ratios).
  if (log_psi_x_.size() != bs) log_psi_x_ = Vector(bs);
  model_.log_psi_ws(batch, log_psi_x_.span(), batch_ws_.get());
  ++forward_passes_;

  // Gather connected configurations into fixed-size chunks.
  if (chunk_configs_.rows() != chunk_size_ || chunk_configs_.cols() != n) {
    chunk_configs_ = Matrix(chunk_size_, n);
    chunk_log_psi_ = Vector(chunk_size_);
    chunk_sample_.resize(chunk_size_);
    chunk_value_.resize(chunk_size_);
  }

  // The visitor captures two pointers, small enough for std::function to
  // store it inline: building it once per call allocates nothing.
  struct Cursor {
    std::size_t k;
    std::span<const Real> x;
    std::span<Real> out;
  } cursor{0, {}, out};
  const OffDiagonalVisitor gather = [this, &cursor](
                                        std::span<const std::size_t> flips,
                                        Real value) {
    auto dst = chunk_configs_.row(chunk_fill_);
    std::copy(cursor.x.begin(), cursor.x.end(), dst.begin());
    for (std::size_t site : flips) dst[site] = 1 - dst[site];
    chunk_sample_[chunk_fill_] = cursor.k;
    chunk_value_[chunk_fill_] = value;
    if (++chunk_fill_ == chunk_size_) flush_chunk(cursor.out);
  };
  for (cursor.k = 0; cursor.k < bs; ++cursor.k) {
    cursor.x = batch.row(cursor.k);
    hamiltonian_.for_each_off_diagonal(cursor.x, gather);
  }
  flush_chunk(out);
}

}  // namespace vqmc
