#include "nn/wavefunction.hpp"

#include <algorithm>

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

}  // namespace vqmc
