#pragma once

/// \file forwarding_model.hpp
/// \brief A WavefunctionModel that forwards every call to another model
/// except log_psi_flip_ratios and log_psi_gradient_gram, which keep the
/// base class's defaults.  A LocalEnergyEngine bound to it therefore
/// evaluates every connected configuration with a full forward of the
/// wrapped model, the reference the flip path is compared against, and an
/// SR step builds its Gram from the explicit per-sample matrix, the
/// reference the layer-factor Grams are compared against.

#include <memory>
#include <utility>

#include "nn/wavefunction.hpp"

namespace vqmc::testing {

class ForwardingModel : public WavefunctionModel {
 public:
  explicit ForwardingModel(WavefunctionModel& inner) : inner_(inner) {}

  std::unique_ptr<Workspace> make_workspace() const override {
    return inner_.make_workspace();
  }
  std::size_t num_spins() const override { return inner_.num_spins(); }
  std::size_t num_parameters() const override {
    return inner_.num_parameters();
  }
  std::span<Real> parameters() override { return inner_.parameters(); }
  std::span<const Real> parameters() const override {
    return std::as_const(inner_).parameters();
  }
  void initialize(std::uint64_t seed) override { inner_.initialize(seed); }
  void log_psi_ws(const Matrix& batch, std::span<Real> out,
                  Workspace* ws) const override {
    inner_.log_psi_ws(batch, out, ws);
  }
  void accumulate_log_psi_gradient_ws(const Matrix& batch,
                                      std::span<const Real> coeff,
                                      std::span<Real> grad,
                                      Workspace* ws) const override {
    inner_.accumulate_log_psi_gradient_ws(batch, coeff, grad, ws);
  }
  void log_psi_gradient_per_sample_ws(const Matrix& batch, Matrix& out,
                                      Workspace* ws) const override {
    inner_.log_psi_gradient_per_sample_ws(batch, out, ws);
  }
  std::string name() const override { return inner_.name(); }
  std::unique_ptr<WavefunctionModel> clone() const override {
    return inner_.clone();
  }

 private:
  WavefunctionModel& inner_;
};

}  // namespace vqmc::testing
