#include "core/factory.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "nn/made.hpp"
#include "sampler/autoregressive_sampler.hpp"
#include "sampler/fast_made_sampler.hpp"

namespace vqmc {
namespace {

TEST(Factory, ModelKindsAndDefaults) {
  const auto made = make_model("MADE", 100);
  EXPECT_EQ(made->name(), "MADE");
  EXPECT_EQ(dynamic_cast<Made*>(made.get())->hidden_size(),
            made_default_hidden(100));

  const auto rbm = make_model("RBM", 30);
  EXPECT_EQ(rbm->name(), "RBM");
  // Paper default: h = n for RBM -> d = n^2 + n + n + 1.
  EXPECT_EQ(rbm->num_parameters(), 30u * 30u + 30u + 30u + 1u);

  const auto custom = make_model("MADE", 20, 12);
  EXPECT_EQ(dynamic_cast<Made*>(custom.get())->hidden_size(), 12u);

  const auto deep = make_model("DEEPMADE", 20);
  EXPECT_EQ(deep->name(), "DeepMADE");
  const auto rnn = make_model("RNN", 20);
  EXPECT_EQ(rnn->name(), "RNN");

  EXPECT_THROW(make_model("GPT", 10), Error);
}

TEST(Factory, ExtensionModelsSupportAutoSampling) {
  for (const std::string kind : {"DEEPMADE", "RNN"}) {
    const auto model = make_model(kind, 8, 6);
    EXPECT_NO_THROW(make_sampler("AUTO", *model, 1)) << kind;
  }
}

TEST(Factory, ModelSeedControlsInitialization) {
  const auto a = make_model("MADE", 10, 8, 1);
  const auto b = make_model("MADE", 10, 8, 1);
  const auto c = make_model("MADE", 10, 8, 2);
  bool same_ab = true, same_ac = true;
  for (std::size_t i = 0; i < a->num_parameters(); ++i) {
    same_ab &= a->parameters()[i] == b->parameters()[i];
    same_ac &= a->parameters()[i] == c->parameters()[i];
  }
  EXPECT_TRUE(same_ab);
  EXPECT_FALSE(same_ac);
}

TEST(Factory, SamplerKinds) {
  const auto made = make_model("MADE", 8, 6);
  const auto auto_sampler = make_sampler("AUTO", *made, 1);
  EXPECT_EQ(auto_sampler->name(), "AUTO");

  const auto mcmc = make_sampler("MCMC", *made, 1);
  EXPECT_EQ(mcmc->name(), "MCMC");

  const auto rbm = make_model("RBM", 8);
  EXPECT_THROW(make_sampler("AUTO", *rbm, 1), Error);  // RBM is not AR
  EXPECT_THROW(make_sampler("GIBBS", *made, 1), Error);
  // The engine's former opt-in label is gone; AUTO is the only exact label.
  EXPECT_THROW(make_sampler("AUTO-fast", *made, 1), Error);
}

TEST(Factory, AutoPicksTheSamplerFromTheModelType) {
  // MADE runs the batched conditional engine; the other autoregressive
  // models run Algorithm 1.  Either way the sampler calls itself AUTO.
  const auto made = make_model("MADE", 8, 6);
  const auto on_made = make_sampler("AUTO", *made, 1);
  EXPECT_NE(dynamic_cast<FastMadeSampler*>(on_made.get()), nullptr);
  EXPECT_EQ(on_made->name(), "AUTO");
  for (const std::string kind : {"DEEPMADE", "RNN"}) {
    const auto model = make_model(kind, 8, 6);
    const auto sampler = make_sampler("AUTO", *model, 1);
    EXPECT_NE(dynamic_cast<AutoregressiveSampler*>(sampler.get()), nullptr)
        << kind;
    EXPECT_EQ(sampler->name(), "AUTO") << kind;
  }
}

TEST(Factory, McmcDefaultsToPaperBurnIn) {
  const auto rbm = make_model("RBM", 50);
  const auto sampler = make_sampler("MCMC", *rbm, 1);
  const auto* mh = dynamic_cast<MetropolisSampler*>(sampler.get());
  ASSERT_NE(mh, nullptr);
  EXPECT_EQ(mh->config().burn_in, paper_burn_in(50));
  EXPECT_EQ(mh->config().num_chains, 2u);
}

TEST(Factory, OptimizerKindsAndSrLabels) {
  EXPECT_EQ(make_optimizer("SGD")->name(), "SGD");
  EXPECT_EQ(make_optimizer("ADAM")->name(), "ADAM");
  EXPECT_EQ(make_optimizer("SGD+SR")->name(), "SGD");
  EXPECT_TRUE(optimizer_label_uses_sr("SGD+SR"));
  EXPECT_FALSE(optimizer_label_uses_sr("SGD"));
  EXPECT_FALSE(optimizer_label_uses_sr("SR"));
  EXPECT_THROW(make_optimizer("LBFGS"), Error);
}

}  // namespace
}  // namespace vqmc
