// Tests for the §5.3.1 additional fitness designs: two-tier gate/value and
// the bigram pair model.
#include <gtest/gtest.h>

#include "fitness/dataset.hpp"
#include "fitness/extras.hpp"
#include "fitness/trainer.hpp"
#include "util/rng.hpp"

namespace nd = netsyn::dsl;
namespace nf = netsyn::fitness;
using netsyn::util::Rng;

namespace {

nf::NnffConfig tinyConfig(nf::HeadKind head, std::size_t numClasses = 5,
                          bool useTrace = true,
                          std::size_t multilabelDim = 0) {
  nf::NnffConfig cfg;
  cfg.encoder = {.vmax = 16, .maxValueTokens = 6};
  cfg.embedDim = 8;
  cfg.hiddenDim = 12;
  cfg.numClasses = numClasses;
  cfg.maxExamples = 3;
  cfg.head = head;
  cfg.useTrace = useTrace;
  cfg.multilabelDim = multilabelDim;
  cfg.seed = 42;
  return cfg;
}

std::vector<nf::Sample> tinyDataset(std::size_t n, std::uint64_t seed) {
  nf::DatasetConfig dc;
  dc.programLength = 4;
  dc.numExamples = 3;
  nf::DatasetBuilder builder(dc);
  Rng rng(seed);
  return builder.build(n, nf::BalanceMetric::CF, rng);
}

nf::EvalContext contextFor(const nf::Sample& s,
                           std::vector<nd::ExecResult>& runs) {
  runs.clear();
  for (const auto& ex : s.spec.examples)
    runs.push_back(nd::run(s.candidate, ex.inputs));
  return nf::EvalContext{s.spec, runs};
}

}  // namespace

// ----------------------------------------------------------- bigram -------

TEST(BigramTargets, MarksAdjacentPairs) {
  const auto p = nd::Program::fromString("SORT | REVERSE | SORT");
  ASSERT_TRUE(p.has_value());
  const auto targets = nf::bigramTargets(*p);
  ASSERT_EQ(targets.size(), nf::kBigramDim);
  const auto sortId = std::size_t(*nd::functionByName("SORT"));
  const auto revId = std::size_t(*nd::functionByName("REVERSE"));
  EXPECT_EQ(targets[sortId * nd::kNumFunctions + revId], 1.0f);
  EXPECT_EQ(targets[revId * nd::kNumFunctions + sortId], 1.0f);
  EXPECT_EQ(targets[sortId * nd::kNumFunctions + sortId], 0.0f);
  float total = 0;
  for (float t : targets) total += t;
  EXPECT_EQ(total, 2.0f);  // two distinct adjacent pairs
}

TEST(BigramTargets, EmptyAndSingletonProgramsHaveNoPairs) {
  const auto empty = nf::bigramTargets(nd::Program{});
  for (float t : empty) EXPECT_EQ(t, 0.0f);
  const auto single =
      nf::bigramTargets(*nd::Program::fromString("SORT"));
  for (float t : single) EXPECT_EQ(t, 0.0f);
}

TEST(BigramFitness, ScoresSumOfPairProbabilities) {
  auto model = std::make_shared<nf::NnffModel>(tinyConfig(
      nf::HeadKind::Multilabel, 5, false, nf::kBigramDim));
  nf::BigramFitness fit(model);
  const auto set = tinyDataset(2, 1);
  const auto& s = set.front();
  std::vector<nd::ExecResult> runs;
  const auto ctx = contextFor(s, runs);
  const auto& map = fit.pairMap(s.spec);
  ASSERT_EQ(map.size(), nf::kBigramDim);
  double expected = 0.0;
  for (std::size_t k = 0; k + 1 < s.candidate.length(); ++k) {
    expected += map[std::size_t(s.candidate.at(k)) * nd::kNumFunctions +
                    std::size_t(s.candidate.at(k + 1))];
  }
  EXPECT_NEAR(fit.score(s.candidate, ctx), expected, 1e-9);
  EXPECT_DOUBLE_EQ(fit.maxScore(5), 4.0);
  EXPECT_DOUBLE_EQ(fit.maxScore(0), 0.0);
}

TEST(BigramFitness, RejectsWrongModels) {
  auto fp = std::make_shared<nf::NnffModel>(
      tinyConfig(nf::HeadKind::Multilabel, 5, false, 0));
  EXPECT_THROW(nf::BigramFitness{fp}, std::invalid_argument);
  auto cls = std::make_shared<nf::NnffModel>(
      tinyConfig(nf::HeadKind::Classifier));
  EXPECT_THROW(nf::BigramFitness{cls}, std::invalid_argument);
}

TEST(BigramFitness, PairMapCachedPerSpec) {
  auto model = std::make_shared<nf::NnffModel>(tinyConfig(
      nf::HeadKind::Multilabel, 5, false, nf::kBigramDim));
  nf::BigramFitness fit(model);
  const auto set = tinyDataset(2, 2);
  const auto& a = fit.pairMap(set[0].spec);
  const auto* ptr = &a;
  const auto& b = fit.pairMap(set[0].spec);
  EXPECT_EQ(ptr, &b);  // same cached vector
}

TEST(BigramFitness, PairMapInvalidatesWhenSpecContentsChangeAtSameAddress) {
  auto model = std::make_shared<nf::NnffModel>(tinyConfig(
      nf::HeadKind::Multilabel, 5, false, nf::kBigramDim));
  nf::BigramFitness fit(model);
  nf::BigramFitness fresh(model);
  const auto set = tinyDataset(2, 8);
  ASSERT_NE(set[0].spec.fingerprint(), set[1].spec.fingerprint());

  // One spec object whose contents are replaced in place: the address stays
  // the same, so an address-keyed cache would serve map A for spec B.
  nd::Spec spec = set[0].spec;
  const std::vector<double> mapA = fit.pairMap(spec);
  spec = set[1].spec;
  const std::vector<double> mapB = fit.pairMap(spec);
  const std::vector<double>& mapBFresh = fresh.pairMap(spec);
  for (std::size_t j = 0; j < mapB.size(); ++j)
    EXPECT_EQ(mapB[j], mapBFresh[j]) << "stale cached map at pair " << j;
  // And the two specs genuinely disagree somewhere (guards the test).
  EXPECT_NE(mapA, mapB);
}

TEST(BigramTraining, LossDecreases) {
  nf::NnffModel model(tinyConfig(nf::HeadKind::Multilabel, 5, false,
                                 nf::kBigramDim));
  const auto trainSet = tinyDataset(60, 3);
  nf::TrainConfig tc;
  tc.epochs = 2;
  tc.learningRate = 5e-3f;
  nf::Trainer trainer(tc);
  const auto history = trainer.train(model, trainSet, trainSet);
  EXPECT_LT(history.back().trainLoss, history.front().trainLoss);
  // >99% of pair labels are zero, so accuracy starts very high; it must at
  // least not degrade.
  EXPECT_GT(history.back().valAccuracy, 0.95);
}

// ---------------------------------------------------------- two-tier ------

TEST(TwoTier, RequiresProperHeads) {
  auto gate2 = std::make_shared<nf::NnffModel>(
      tinyConfig(nf::HeadKind::Classifier, 2));
  auto value = std::make_shared<nf::NnffModel>(
      tinyConfig(nf::HeadKind::Classifier, 5));
  EXPECT_NO_THROW(nf::TwoTierFitness(gate2, value));
  // Gate with the wrong class count:
  EXPECT_THROW(nf::TwoTierFitness(value, value), std::invalid_argument);
  auto reg = std::make_shared<nf::NnffModel>(
      tinyConfig(nf::HeadKind::Regression));
  EXPECT_THROW(nf::TwoTierFitness(gate2, reg), std::invalid_argument);
}

TEST(TwoTier, ScoreIsZeroWhenGateSaysZero) {
  auto gate = std::make_shared<nf::NnffModel>(
      tinyConfig(nf::HeadKind::Classifier, 2));
  auto value = std::make_shared<nf::NnffModel>(
      tinyConfig(nf::HeadKind::Classifier, 5));
  nf::TwoTierFitness fit(gate, value);
  const auto set = tinyDataset(4, 4);
  for (const auto& s : set) {
    std::vector<nd::ExecResult> runs;
    const auto ctx = contextFor(s, runs);
    const double p = fit.gateProbability(s.candidate, ctx);
    const double score = fit.score(s.candidate, ctx);
    if (p < 0.5) {
      EXPECT_DOUBLE_EQ(score, 0.0);
    } else {
      EXPECT_GE(score, 0.0);
      EXPECT_LE(score, 4.0);
    }
  }
}

TEST(TwoTier, GateTrainingUsesBinaryLabels) {
  nf::NnffModel gate(tinyConfig(nf::HeadKind::Classifier, 2));
  nf::TrainConfig tc;
  tc.labelTransform = nf::LabelTransform::ZeroVsNonzero;
  nf::Trainer trainer(tc);
  const auto set = tinyDataset(10, 5);
  for (const auto& s : set) {
    const auto label = trainer.classLabel(gate, s);
    EXPECT_EQ(label, s.cf == 0 ? 0u : 1u);
  }
}

TEST(TwoTier, GateLearnsZeroVsNonzero) {
  nf::NnffModel gate(tinyConfig(nf::HeadKind::Classifier, 2));
  const auto trainSet = tinyDataset(150, 6);
  const auto valSet = tinyDataset(40, 7);
  nf::TrainConfig tc;
  tc.epochs = 3;
  tc.learningRate = 1e-2f;
  tc.labelTransform = nf::LabelTransform::ZeroVsNonzero;
  nf::Trainer trainer(tc);
  const auto history = trainer.train(gate, trainSet, valSet);
  EXPECT_LT(history.back().trainLoss, history.front().trainLoss);
}
