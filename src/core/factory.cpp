#include "core/factory.hpp"

#include "common/error.hpp"
#include "nn/deep_made.hpp"
#include "nn/made.hpp"
#include "nn/rbm.hpp"
#include "nn/rnn.hpp"
#include "sampler/autoregressive_sampler.hpp"
#include "sampler/fast_made_sampler.hpp"

namespace vqmc {

std::unique_ptr<WavefunctionModel> make_model(const std::string& kind,
                                              std::size_t n, std::size_t hidden,
                                              std::uint64_t seed) {
  if (kind == "MADE") {
    const std::size_t h = hidden == 0 ? made_default_hidden(n) : hidden;
    auto model = std::make_unique<Made>(n, h);
    model->initialize(seed);
    return model;
  }
  if (kind == "RBM") {
    const std::size_t h = hidden == 0 ? n : hidden;
    auto model = std::make_unique<Rbm>(n, h);
    model->initialize(seed);
    return model;
  }
  if (kind == "DEEPMADE" || kind == "DeepMADE") {
    const std::size_t h = hidden == 0 ? made_default_hidden(n) : hidden;
    auto model = std::make_unique<DeepMade>(n, h, 2);
    model->initialize(seed);
    return model;
  }
  if (kind == "RNN") {
    const std::size_t h = hidden == 0 ? made_default_hidden(n) : hidden;
    auto model = std::make_unique<RnnWavefunction>(n, h);
    model->initialize(seed);
    return model;
  }
  throw Error("unknown model kind '" + kind +
              "' (expected MADE, DeepMADE, RNN or RBM)");
}

std::unique_ptr<Sampler> make_sampler(const std::string& kind,
                                      const WavefunctionModel& model,
                                      std::uint64_t seed,
                                      MetropolisConfig mcmc) {
  if (kind == "AUTO") {
    // The model's type picks the path: MADE runs the O(h n) batched
    // conditional engine, whose draws are bit-identical to Algorithm 1;
    // the other autoregressive models run Algorithm 1 itself.
    if (const auto* made = dynamic_cast<const Made*>(&model))
      return std::make_unique<FastMadeSampler>(*made, seed);
    const auto* ar = dynamic_cast<const AutoregressiveModel*>(&model);
    VQMC_REQUIRE(ar != nullptr,
                 "AUTO sampling requires an autoregressive model");
    return std::make_unique<AutoregressiveSampler>(*ar, seed);
  }
  if (kind == "MCMC") {
    if (mcmc.burn_in == 0) mcmc.burn_in = paper_burn_in(model.num_spins());
    mcmc.seed = seed;
    return std::make_unique<MetropolisSampler>(model, mcmc);
  }
  throw Error("unknown sampler kind '" + kind +
              "' (expected AUTO or MCMC)");
}

std::unique_ptr<Optimizer> make_optimizer(const std::string& kind) {
  if (kind == "SGD" || kind == "SGD+SR") return make_sgd(0.1);
  if (kind == "ADAM" || kind == "ADAM+SR") return make_adam(0.01);
  throw Error("unknown optimizer kind '" + kind + "'");
}

bool optimizer_label_uses_sr(const std::string& kind) {
  return kind.size() >= 3 && kind.substr(kind.size() - 3) == "+SR";
}

}  // namespace vqmc
