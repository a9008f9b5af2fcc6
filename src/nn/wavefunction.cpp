#include "nn/wavefunction.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "tensor/kernels.hpp"

namespace vqmc {

void WavefunctionModel::log_psi_gradient_per_sample_ws(const Matrix& batch,
                                                       Matrix& out,
                                                       Workspace* ws) const {
  const std::size_t bs = batch.rows();
  VQMC_REQUIRE(out.rows() == bs && out.cols() == num_parameters(),
               name() + ": per-sample gradient shape mismatch");
  std::unique_ptr<Workspace> local;
  if (ws == nullptr) {
    local = make_workspace();
    ws = local.get();
  }
  // One row at a time through the batch gradient: O(bs) one-row passes.
  Matrix single(1, batch.cols());
  const Real unit[] = {1};
  for (std::size_t k = 0; k < bs; ++k) {
    const std::span<const Real> src = batch.row(k);
    std::copy(src.begin(), src.end(), single.row(0).begin());
    const std::span<Real> dst = out.row(k);
    std::fill(dst.begin(), dst.end(), Real(0));
    accumulate_log_psi_gradient_ws(single, unit, dst, ws);
  }
}

void WavefunctionModel::log_psi_gradient_gram(const Matrix& batch,
                                              Matrix& gram,
                                              Workspace* ws) const {
  const std::size_t bs = batch.rows();
  VQMC_REQUIRE(gram.rows() == bs && gram.cols() == bs,
               "log_psi_gradient_gram: gram must be bs x bs");
  Matrix local;
  Matrix& o = ws != nullptr ? ws->per_sample : local;
  ensure_shape(o, bs, num_parameters());
  log_psi_gradient_per_sample_ws(batch, o, ws);
  gemm_nt(o, o, gram);
}

void WavefunctionModel::walk_start(ChainWalk& walk, Workspace* ws) const {
  log_psi_ws(walk.states, walk.log_psi.span(), ws);
}

void WavefunctionModel::walk_score(ChainWalk& walk, Workspace* ws) const {
  log_psi_ws(walk.proposals, walk.proposal_log_psi.span(), ws);
  for (std::size_t chain = 0; chain < walk.ratio.size(); ++chain) {
    const Real proposed = walk.proposal_log_psi[chain];
    walk.ratio[chain] = std::isfinite(proposed)
                            ? proposed - walk.log_psi[chain]
                            : std::numeric_limits<Real>::quiet_NaN();
  }
}

void WavefunctionModel::walk_accept(ChainWalk& walk, std::size_t chain,
                                    Workspace* /*ws*/) const {
  walk.log_psi[chain] = walk.proposal_log_psi[chain];
}

}  // namespace vqmc
