#pragma once

/// \file factory.hpp
/// \brief String-keyed factories used by benches and examples to assemble
/// the paper's (model, sampler, optimizer) combinations from row labels
/// like "MADE"/"AUTO"/"SGD+SR".

#include <memory>
#include <string>

#include "nn/wavefunction.hpp"
#include "optim/optimizer.hpp"
#include "sampler/metropolis_sampler.hpp"
#include "sampler/sampler.hpp"

namespace vqmc {

/// "MADE" (hidden defaults to 5 (log n)^2) or "RBM" (hidden defaults to n).
/// `hidden == 0` selects the paper default for the family.
std::unique_ptr<WavefunctionModel> make_model(const std::string& kind,
                                              std::size_t n,
                                              std::size_t hidden = 0,
                                              std::uint64_t seed = 0);

/// "AUTO" (requires an autoregressive model) or "MCMC".
/// AUTO on a Made returns the FastMadeSampler (the batched conditional
/// engine, O(h n) per row, draws bit-identical to Algorithm 1); on the
/// other autoregressive models (DeepMADE, RNN) it returns the
/// AutoregressiveSampler.  Both report name() == "AUTO".
/// MCMC uses the supplied config (burn_in == 0 selects the paper's
/// k = 3n + 100).
std::unique_ptr<Sampler> make_sampler(const std::string& kind,
                                      const WavefunctionModel& model,
                                      std::uint64_t seed,
                                      MetropolisConfig mcmc = {});

/// "SGD" (lr 0.1) or "ADAM" (lr 0.01); "SGD+SR" returns the SGD base (the
/// SR flag itself lives in TrainerConfig::use_sr).
std::unique_ptr<Optimizer> make_optimizer(const std::string& kind);

/// True for "SGD+SR" / "ADAM+SR" style labels.
bool optimizer_label_uses_sr(const std::string& kind);

}  // namespace vqmc
