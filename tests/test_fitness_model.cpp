// Tests for the NN-FF model (Figure 2), trainer, and learned-fitness
// wrappers: shapes, determinism, head validation, learnability on a small
// corpus, and probability-map caching.
#include <gtest/gtest.h>

#include "fitness/dataset.hpp"
#include "fitness/model.hpp"
#include "fitness/neural_fitness.hpp"
#include "fitness/trainer.hpp"
#include "util/rng.hpp"

namespace nd = netsyn::dsl;
namespace nf = netsyn::fitness;
namespace nn = netsyn::nn;
using netsyn::util::Rng;

namespace {

/// Tiny model dimensions so unit tests stay fast.
nf::NnffConfig tinyConfig(nf::HeadKind head, bool useTrace = true) {
  nf::NnffConfig cfg;
  cfg.encoder = {.vmax = 16, .maxValueTokens = 6};
  cfg.embedDim = 8;
  cfg.hiddenDim = 12;
  cfg.numClasses = 5;  // length-4 targets -> labels 0..4
  cfg.maxExamples = 3;
  cfg.head = head;
  cfg.useTrace = useTrace;
  cfg.seed = 42;
  return cfg;
}

std::vector<nf::Sample> tinyDataset(std::size_t n, nf::BalanceMetric metric,
                                    std::uint64_t seed) {
  nf::DatasetConfig dc;
  dc.programLength = 4;
  dc.numExamples = 3;
  nf::DatasetBuilder builder(dc);
  Rng rng(seed);
  return builder.build(n, metric, rng);
}

}  // namespace

TEST(NnffModel, OutDimFollowsHead) {
  EXPECT_EQ(nf::NnffModel(tinyConfig(nf::HeadKind::Classifier)).outDim(), 5u);
  EXPECT_EQ(
      nf::NnffModel(tinyConfig(nf::HeadKind::Multilabel, false)).outDim(),
      nd::kNumFunctions);
  EXPECT_EQ(nf::NnffModel(tinyConfig(nf::HeadKind::Regression)).outDim(), 1u);
}

TEST(NnffModel, ForwardShapeAndDeterminism) {
  nf::NnffModel model(tinyConfig(nf::HeadKind::Classifier));
  const auto set = tinyDataset(2, nf::BalanceMetric::CF, 1);
  const auto& s = set.front();
  nn::InferenceModeGuard guard;
  const auto a = model.forward(s.spec, s.candidate, s.traces);
  const auto b = model.forward(s.spec, s.candidate, s.traces);
  EXPECT_EQ(a->value().rows(), 1u);
  EXPECT_EQ(a->value().cols(), 5u);
  EXPECT_EQ(a->value(), b->value());
}

TEST(NnffModel, DifferentCandidatesProduceDifferentLogits) {
  nf::NnffModel model(tinyConfig(nf::HeadKind::Classifier));
  const auto set = tinyDataset(4, nf::BalanceMetric::CF, 2);
  nn::InferenceModeGuard guard;
  const auto a =
      model.forward(set[0].spec, set[0].candidate, set[0].traces);
  // Same spec, different candidate/trace.
  const auto other = nf::tracesFor(set[1].candidate, set[0].spec);
  const auto b = model.forward(set[0].spec, set[1].candidate, other);
  EXPECT_NE(a->value(), b->value());
}

TEST(NnffModel, TraceLengthMismatchThrows) {
  nf::NnffModel model(tinyConfig(nf::HeadKind::Classifier));
  auto set = tinyDataset(1, nf::BalanceMetric::CF, 3);
  auto& s = set.front();
  s.traces[0].pop_back();
  nn::InferenceModeGuard guard;
  EXPECT_THROW(model.forward(s.spec, s.candidate, s.traces),
               std::invalid_argument);
}

TEST(NnffModel, IOOnlyForwardRequiresNoTraceModel) {
  nf::NnffModel withTrace(tinyConfig(nf::HeadKind::Classifier, true));
  const auto set = tinyDataset(1, nf::BalanceMetric::CF, 4);
  nn::InferenceModeGuard guard;
  EXPECT_THROW(withTrace.forwardIOOnly(set[0].spec), std::logic_error);
  nf::NnffModel ioOnly(tinyConfig(nf::HeadKind::Multilabel, false));
  const auto logits = ioOnly.forwardIOOnly(set[0].spec);
  EXPECT_EQ(logits->value().cols(), nd::kNumFunctions);
}

TEST(NnffModel, SaveLoadRoundTrip) {
  nf::NnffModel a(tinyConfig(nf::HeadKind::Classifier));
  const std::string path = "/tmp/netsyn_nnff_test.bin";
  a.save(path);
  auto cfg = tinyConfig(nf::HeadKind::Classifier);
  cfg.seed = 777;  // different init
  nf::NnffModel b(cfg);
  b.load(path);
  const auto set = tinyDataset(1, nf::BalanceMetric::CF, 5);
  nn::InferenceModeGuard guard;
  const auto& s = set.front();
  EXPECT_EQ(a.forward(s.spec, s.candidate, s.traces)->value(),
            b.forward(s.spec, s.candidate, s.traces)->value());
  std::remove(path.c_str());
}

// ----------------------------------------------------------- training -----

TEST(Trainer, ClassifierLossDecreasesAndLearnsRanking) {
  auto cfg = tinyConfig(nf::HeadKind::Classifier);
  cfg.embedDim = 12;
  cfg.hiddenDim = 16;
  nf::NnffModel model(cfg);
  const auto trainSet = tinyDataset(400, nf::BalanceMetric::CF, 6);
  const auto valSet = tinyDataset(60, nf::BalanceMetric::CF, 7);
  nf::TrainConfig tc;
  tc.epochs = 6;
  tc.batchSize = 8;
  tc.learningRate = 1e-2f;
  tc.labelMetric = nf::BalanceMetric::CF;
  nf::Trainer trainer(tc);
  const auto history = trainer.train(model, trainSet, valSet);
  ASSERT_EQ(history.size(), 6u);
  EXPECT_LT(history.back().trainLoss, history.front().trainLoss);

  // What the GA needs is a *ranking* signal: the mean predicted fitness of
  // close candidates (cf >= 3) must exceed that of far ones (cf <= 1).
  nf::NeuralFitness fit(
      std::shared_ptr<nf::NnffModel>(&model, [](nf::NnffModel*) {}), "NN_CF");
  double closeSum = 0, farSum = 0;
  int closeN = 0, farN = 0;
  for (const auto& s : valSet) {
    std::vector<nd::ExecResult> runs;
    for (const auto& ex : s.spec.examples)
      runs.push_back(nd::run(s.candidate, ex.inputs));
    const double score = fit.score(s.candidate, {s.spec, runs});
    if (s.cf >= 3) {
      closeSum += score;
      ++closeN;
    } else if (s.cf <= 1) {
      farSum += score;
      ++farN;
    }
  }
  ASSERT_GT(closeN, 0);
  ASSERT_GT(farN, 0);
  EXPECT_GT(closeSum / closeN, farSum / farN);
}

TEST(Trainer, ConfusionMatrixRowsSumToRowTotals) {
  nf::NnffModel model(tinyConfig(nf::HeadKind::Classifier));
  const auto valSet = tinyDataset(40, nf::BalanceMetric::CF, 8);
  nf::Trainer trainer;
  const auto cm = trainer.confusion(model, valSet);
  EXPECT_EQ(cm.total(), 40u);
  std::size_t rows = 0;
  for (std::size_t i = 0; i < cm.numClasses(); ++i) rows += cm.rowTotal(i);
  EXPECT_EQ(rows, 40u);
}

TEST(Trainer, MultilabelFpModelLearnsPresence) {
  nf::NnffModel model(tinyConfig(nf::HeadKind::Multilabel, false));
  const auto trainSet = tinyDataset(120, nf::BalanceMetric::CF, 9);
  const auto valSet = tinyDataset(40, nf::BalanceMetric::CF, 10);
  nf::TrainConfig tc;
  tc.epochs = 3;
  tc.learningRate = 3e-3f;
  nf::Trainer trainer(tc);
  const auto history = trainer.train(model, trainSet, valSet);
  EXPECT_LT(history.back().trainLoss, history.front().trainLoss);
  // 4 of 41 functions present: predicting "all absent" already gives ~0.90,
  // so require the trained model to be at least in that regime.
  EXPECT_GT(nf::Trainer::multilabelAccuracy(model, valSet), 0.85);
}

TEST(Trainer, RegressionHeadTrainsAndReportsMae) {
  nf::NnffModel model(tinyConfig(nf::HeadKind::Regression));
  const auto trainSet = tinyDataset(100, nf::BalanceMetric::CF, 11);
  const auto valSet = tinyDataset(30, nf::BalanceMetric::CF, 12);
  nf::TrainConfig tc;
  tc.epochs = 3;
  tc.learningRate = 3e-3f;
  nf::Trainer trainer(tc);
  const auto history = trainer.train(model, trainSet, valSet);
  EXPECT_LT(history.back().trainLoss, history.front().trainLoss);
  const double mae = trainer.regressionMae(model, valSet);
  EXPECT_GE(mae, 0.0);
  EXPECT_LT(mae, 4.0);  // labels span 0..4; must beat the worst case
}

TEST(Trainer, BaseRateIsTheConstantPredictorsAccuracy) {
  // A hand-built validation set: labels and presence vectors only (the
  // base rate never runs the model).
  const auto sample = [](std::size_t cf, std::vector<std::size_t> present) {
    nf::Sample s;
    s.cf = cf;
    s.lcs = cf == 0 ? 0 : 1;
    s.funcPresence.assign(nd::kNumFunctions, 0.0f);
    for (std::size_t f : present) s.funcPresence[f] = 1.0f;
    return s;
  };
  const std::vector<nf::Sample> set = {sample(2, {0, 1}), sample(0, {}),
                                       sample(2, {5}), sample(7, {3, 4, 40}),
                                       sample(4, {})};
  nf::Trainer byCf;  // labelMetric CF, Identity
  // Classifier: labels 2, 0, 2, min(7, 4) = 4, 4 -> two 2s and two 4s.
  EXPECT_DOUBLE_EQ(
      byCf.baseRate(nf::NnffModel(tinyConfig(nf::HeadKind::Classifier)), set),
      2.0 / 5.0);
  // Regression keeps the raw label: 2 is the majority.
  EXPECT_DOUBLE_EQ(
      byCf.baseRate(nf::NnffModel(tinyConfig(nf::HeadKind::Regression)), set),
      2.0 / 5.0);
  nf::TrainConfig byLcs;
  byLcs.labelMetric = nf::BalanceMetric::LCS;
  EXPECT_DOUBLE_EQ(nf::Trainer(byLcs).baseRate(
                       nf::NnffModel(tinyConfig(nf::HeadKind::Classifier)), set),
                   4.0 / 5.0);
  // Multilabel: the all-absent guess hits every absent function.
  const double n = static_cast<double>(nd::kNumFunctions);
  const double want = ((n - 2) / n + 1.0 + (n - 1) / n + (n - 3) / n + 1.0) / 5;
  const nf::NnffModel fp(tinyConfig(nf::HeadKind::Multilabel, false));
  EXPECT_DOUBLE_EQ(byCf.baseRate(fp, set), want);
  EXPECT_EQ(byCf.baseRate(fp, {}), 0.0);
}

TEST(Trainer, EpochStatsCarryTheValidationBaseRate) {
  nf::NnffModel model(tinyConfig(nf::HeadKind::Multilabel, false));
  const auto trainSet = tinyDataset(16, nf::BalanceMetric::CF, 14);
  const auto valSet = tinyDataset(12, nf::BalanceMetric::CF, 15);
  nf::TrainConfig tc;
  tc.epochs = 2;
  nf::Trainer trainer(tc);
  const double base = trainer.baseRate(model, valSet);
  EXPECT_GT(base, 0.8);  // few of 41 functions are present
  for (const auto& e : trainer.train(model, trainSet, valSet))
    EXPECT_EQ(e.valBaseRate, base);
  EXPECT_EQ(trainer.train(model, trainSet, {}).back().valBaseRate, 0.0);
}

TEST(Trainer, EpochCallbackObservesEveryEpoch) {
  nf::NnffModel model(tinyConfig(nf::HeadKind::Classifier));
  const auto trainSet = tinyDataset(20, nf::BalanceMetric::CF, 13);
  nf::TrainConfig tc;
  tc.epochs = 2;
  nf::Trainer trainer(tc);
  std::vector<std::size_t> seen;
  trainer.train(model, trainSet, {}, [&](const nf::EpochStats& e) {
    seen.push_back(e.epoch);
  });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1}));
}

TEST(Trainer, WrongHeadThrowsOnSpecializedEvals) {
  nf::NnffModel classifier(tinyConfig(nf::HeadKind::Classifier));
  nf::NnffModel multilabel(tinyConfig(nf::HeadKind::Multilabel, false));
  const auto set = tinyDataset(2, nf::BalanceMetric::CF, 14);
  nf::Trainer trainer;
  EXPECT_THROW(trainer.confusion(multilabel, set), std::logic_error);
  EXPECT_THROW(nf::Trainer::multilabelAccuracy(classifier, set),
               std::logic_error);
  EXPECT_THROW(trainer.regressionMae(classifier, set), std::logic_error);
}

// ------------------------------------------------- fitness wrappers -------

TEST(NeuralFitness, ScoreIsClassExpectationWithinRange) {
  auto model = std::make_shared<nf::NnffModel>(
      tinyConfig(nf::HeadKind::Classifier));
  nf::NeuralFitness fit(model, "NN_CF");
  const auto set = tinyDataset(3, nf::BalanceMetric::CF, 15);
  for (const auto& s : set) {
    std::vector<nd::ExecResult> runs;
    for (std::size_t i = 0; i < s.spec.size(); ++i)
      runs.push_back(nd::run(s.candidate, s.spec.examples[i].inputs));
    const nf::EvalContext ctx{s.spec, runs};
    const double score = fit.score(s.candidate, ctx);
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 4.0);
    const auto probs = fit.classProbabilities(s.candidate, ctx);
    double sum = 0;
    for (double p : probs) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-4);
  }
  EXPECT_EQ(fit.name(), "NN_CF");
  EXPECT_DOUBLE_EQ(fit.maxScore(5), 4.0);
}

TEST(NeuralFitness, RejectsWrongHead) {
  auto fp = std::make_shared<nf::NnffModel>(
      tinyConfig(nf::HeadKind::Multilabel, false));
  EXPECT_THROW(nf::NeuralFitness(fp, "x"), std::invalid_argument);
}

TEST(ProbMapFitness, MapCachedPerSpecAndScoresSum) {
  auto model = std::make_shared<nf::NnffModel>(
      tinyConfig(nf::HeadKind::Multilabel, false));
  nf::ProbMapFitness fit(model);
  const auto set = tinyDataset(2, nf::BalanceMetric::CF, 16);
  const auto& s = set.front();
  const auto map1 = fit.probMap(s.spec);
  const auto map2 = fit.probMap(s.spec);
  EXPECT_EQ(map1, map2);
  for (double p : map1) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  std::vector<nd::ExecResult> runs;
  for (const auto& ex : s.spec.examples)
    runs.push_back(nd::run(s.candidate, ex.inputs));
  const nf::EvalContext ctx{s.spec, runs};
  double expected = 0.0;
  for (auto f : s.candidate.functions()) expected += map1[f];
  EXPECT_NEAR(fit.score(s.candidate, ctx), expected, 1e-9);
}

TEST(ProbMapFitness, RejectsTraceModel) {
  auto traced = std::make_shared<nf::NnffModel>(
      tinyConfig(nf::HeadKind::Multilabel, true));
  EXPECT_THROW(nf::ProbMapFitness{traced}, std::invalid_argument);
}

TEST(RegressionFitness, NonNegativeScores) {
  auto model = std::make_shared<nf::NnffModel>(
      tinyConfig(nf::HeadKind::Regression));
  nf::RegressionFitness fit(model);
  const auto set = tinyDataset(3, nf::BalanceMetric::CF, 17);
  for (const auto& s : set) {
    std::vector<nd::ExecResult> runs;
    for (const auto& ex : s.spec.examples)
      runs.push_back(nd::run(s.candidate, ex.inputs));
    EXPECT_GE(fit.score(s.candidate, {s.spec, runs}), 0.0);
  }
}
