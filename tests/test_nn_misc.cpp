// Additional NN tests: stacked-LSTM encodeAll, inference-mode guard
// semantics, and trainer determinism.
#include <gtest/gtest.h>

#include "fitness/dataset.hpp"
#include "fitness/model.hpp"
#include "fitness/trainer.hpp"
#include "nn/layers.hpp"
#include "util/rng.hpp"

namespace nf = netsyn::fitness;
namespace nn = netsyn::nn;
using netsyn::util::Rng;

TEST(LstmEncodeAll, EmitsOneHiddenPerStepAndLastMatchesEncode) {
  Rng rng(1);
  nn::ParamStore store;
  nn::Lstm lstm(3, 5, store, rng);
  std::vector<nn::Var> seq;
  for (int i = 0; i < 4; ++i)
    seq.push_back(nn::constant(nn::Matrix(1, 3, 0.2f * float(i + 1))));
  nn::InferenceModeGuard guard;
  const auto all = lstm.encodeAll(seq);
  ASSERT_EQ(all.size(), 4u);
  const auto last = lstm.encode(seq);
  EXPECT_EQ(all.back()->value(), last->value());
  // Hidden states evolve step to step.
  EXPECT_NE(all[0]->value(), all[1]->value());
}

TEST(LstmEncodeAll, EmptySequenceGivesNoOutputs) {
  Rng rng(2);
  nn::ParamStore store;
  nn::Lstm lstm(3, 5, store, rng);
  EXPECT_TRUE(lstm.encodeAll({}).empty());
}

TEST(InferenceMode, GuardIsScopedAndNests) {
  EXPECT_FALSE(nn::inferenceModeEnabled());
  {
    nn::InferenceModeGuard g1;
    EXPECT_TRUE(nn::inferenceModeEnabled());
    {
      nn::InferenceModeGuard g2;
      EXPECT_TRUE(nn::inferenceModeEnabled());
    }
    EXPECT_TRUE(nn::inferenceModeEnabled());
  }
  EXPECT_FALSE(nn::inferenceModeEnabled());
}

TEST(InferenceMode, NodesCarryNoParents) {
  auto a = nn::parameter(nn::Matrix(1, 2, 1.0f));
  auto b = nn::parameter(nn::Matrix(1, 2, 2.0f));
  {
    nn::InferenceModeGuard guard;
    const auto sum = nn::add(a, b);
    EXPECT_TRUE(sum->parents().empty());
    EXPECT_FALSE(sum->requiresGrad());
    EXPECT_EQ(sum->value().at(0), 3.0f);
  }
  const auto sum = nn::add(a, b);
  EXPECT_EQ(sum->parents().size(), 2u);
}

TEST(Autograd, OpsOverConstantsRecordNothing) {
  auto c = nn::constant(nn::Matrix(1, 2, 3.0f));
  auto p = nn::parameter(nn::Matrix(1, 2, 2.0f));
  const auto cc = nn::add(c, c);
  EXPECT_TRUE(cc->parents().empty());
  EXPECT_FALSE(cc->requiresGrad());
  nn::backward(nn::meanAll(nn::mulElem(cc, p)));
  EXPECT_EQ(p->grad().at(0), 3.0f);  // d/dp mean(6p) = 6/2
  EXPECT_EQ(c->grad().at(0), 0.0f);  // no gradient scattered into constants
}

TEST(InferenceMode, ValuesIdenticalWithAndWithoutGraph) {
  Rng rng(3);
  nn::ParamStore store;
  nn::Lstm lstm(4, 6, store, rng);
  std::vector<nn::Var> seq = {nn::constant(nn::Matrix(1, 4, 0.3f)),
                              nn::constant(nn::Matrix(1, 4, -0.1f))};
  const auto graph = lstm.encode(seq);
  nn::Matrix inferred;
  {
    nn::InferenceModeGuard guard;
    inferred = lstm.encode(seq)->value();
  }
  EXPECT_EQ(graph->value(), inferred);
}

TEST(Trainer, SameSeedSameTrainingTrajectory) {
  auto makeModel = [] {
    nf::NnffConfig cfg;
    cfg.encoder = {.vmax = 16, .maxValueTokens = 6};
    cfg.embedDim = 6;
    cfg.hiddenDim = 8;
    cfg.numClasses = 5;
    cfg.maxExamples = 2;
    cfg.seed = 11;
    return std::make_unique<nf::NnffModel>(cfg);
  };
  nf::DatasetConfig dc;
  dc.programLength = 4;
  dc.numExamples = 2;
  nf::DatasetBuilder builder(dc);
  Rng rng(21);
  const auto set = builder.build(24, nf::BalanceMetric::CF, rng);

  nf::TrainConfig tc;
  tc.epochs = 2;
  tc.shuffleSeed = 5;
  nf::Trainer trainer(tc);
  auto m1 = makeModel();
  auto m2 = makeModel();
  const auto h1 = trainer.train(*m1, set, {});
  const auto h2 = trainer.train(*m2, set, {});
  ASSERT_EQ(h1.size(), h2.size());
  for (std::size_t i = 0; i < h1.size(); ++i)
    EXPECT_DOUBLE_EQ(h1[i].trainLoss, h2[i].trainLoss);
  // Resulting weights are bitwise identical.
  for (std::size_t p = 0; p < m1->params().params().size(); ++p)
    EXPECT_EQ(m1->params().params()[p]->value(),
              m2->params().params()[p]->value());
}

TEST(Trainer, EmptyTrainingSetThrows) {
  nf::NnffConfig cfg;
  cfg.encoder = {.vmax = 16, .maxValueTokens = 6};
  cfg.embedDim = 6;
  cfg.hiddenDim = 8;
  nf::NnffModel model(cfg);
  nf::Trainer trainer;
  EXPECT_THROW(trainer.train(model, {}, {}), std::invalid_argument);
}
