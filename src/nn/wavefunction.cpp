#include "nn/wavefunction.hpp"

#include "common/error.hpp"
#include "tensor/kernels.hpp"

namespace vqmc {

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
