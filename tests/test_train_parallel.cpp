// Data-parallel training (fitness/minibatch.hpp) against its serial oracle.
//
// referenceTrain below is the trainer's single-threaded loop: every sample's
// graph chained with add, one backward over the scaled sum. The trainer must
// reproduce it bit for bit at every thread count: each parameter's bytes
// and every EpochStats field. The leaf-gradient log that makes this possible
// is pinned on its own too: its replay in any number of row parts equals the
// direct writes, and a parameter's grad() fails loudly under an active log.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "fitness/dataset.hpp"
#include "fitness/model.hpp"
#include "fitness/ranking.hpp"
#include "fitness/trainer.hpp"
#include "nn/layers.hpp"
#include "nn/optim.hpp"
#include "util/rng.hpp"

namespace nf = netsyn::fitness;
namespace nn = netsyn::nn;
using netsyn::util::Rng;

namespace {

nf::NnffConfig tinyConfig(nf::HeadKind head) {
  nf::NnffConfig cfg;
  cfg.encoder = {.vmax = 16, .maxValueTokens = 6};
  cfg.embedDim = 6;
  cfg.hiddenDim = 8;
  cfg.numClasses = 5;  // length-4 targets -> labels 0..4
  cfg.maxExamples = 2;
  cfg.head = head;
  cfg.useTrace = head != nf::HeadKind::Multilabel;
  cfg.seed = 42;
  return cfg;
}

nf::DatasetConfig tinyDc() {
  nf::DatasetConfig dc;
  dc.programLength = 4;
  dc.numExamples = 2;
  return dc;
}

std::vector<nf::Sample> tinyDataset(std::size_t n, std::uint64_t seed) {
  nf::DatasetBuilder builder(tinyDc());
  Rng rng(seed);
  return builder.build(n, nf::BalanceMetric::CF, rng);
}

/// Every parameter value's bit pattern, in store order.
std::vector<std::uint32_t> weightBits(const nf::NnffModel& model) {
  std::vector<std::uint32_t> out;
  for (const auto& p : model.params().params())
    for (std::size_t i = 0; i < p->value().size(); ++i) {
      std::uint32_t b;
      std::memcpy(&b, &p->value().at(i), sizeof b);
      out.push_back(b);
    }
  return out;
}

std::uint64_t bitsOf(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

void expectSameStats(const std::vector<nf::EpochStats>& got,
                     const std::vector<nf::EpochStats>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t e = 0; e < got.size(); ++e) {
    EXPECT_EQ(got[e].epoch, want[e].epoch);
    EXPECT_EQ(bitsOf(got[e].trainLoss), bitsOf(want[e].trainLoss)) << e;
    EXPECT_EQ(bitsOf(got[e].valLoss), bitsOf(want[e].valLoss)) << e;
    EXPECT_EQ(bitsOf(got[e].valAccuracy), bitsOf(want[e].valAccuracy)) << e;
    EXPECT_EQ(bitsOf(got[e].valBaseRate), bitsOf(want[e].valBaseRate)) << e;
  }
}

/// The validation pass, one sample after another.
std::pair<double, double> referenceEvaluate(const nf::Trainer& trainer,
                                            const nf::NnffModel& model,
                                            const std::vector<nf::Sample>& set) {
  nn::InferenceModeGuard guard;
  double totalLoss = 0.0;
  double correct = 0.0;
  for (const nf::Sample& s : set) {
    totalLoss += trainer.sampleLoss(model, s)->scalar();
    switch (model.config().head) {
      case nf::HeadKind::Classifier: {
        const auto probs = nn::softmaxValue(
            model.forward(s.spec, s.candidate, s.traces)->value());
        std::size_t argmax = 0;
        for (std::size_t j = 1; j < probs.cols(); ++j)
          if (probs.at(j) > probs.at(argmax)) argmax = j;
        correct += argmax == trainer.classLabel(model, s) ? 1.0 : 0.0;
        break;
      }
      case nf::HeadKind::Multilabel: {
        const auto logits = model.forwardIOOnly(s.spec)->value();
        std::size_t hits = 0;
        for (std::size_t j = 0; j < s.funcPresence.size(); ++j)
          hits += (logits.at(j) >= 0.0f) == (s.funcPresence[j] >= 0.5f);
        correct += static_cast<double>(hits) /
                   static_cast<double>(s.funcPresence.size());
        break;
      }
      case nf::HeadKind::Regression: {
        const float pred =
            model.forward(s.spec, s.candidate, s.traces)->value().at(0);
        correct += std::lround(pred) ==
                           std::lround(static_cast<float>(s.cf))
                       ? 1.0
                       : 0.0;
        break;
      }
    }
  }
  return {totalLoss / static_cast<double>(set.size()),
          correct / static_cast<double>(set.size())};
}

/// The serial training loop: per minibatch, every sample's loss chained
/// with add and one backward over scale(sum, 1/n).
std::vector<nf::EpochStats> referenceTrain(
    const nf::Trainer& trainer, nf::NnffModel& model,
    const std::vector<nf::Sample>& trainSet,
    const std::vector<nf::Sample>& valSet) {
  const nf::TrainConfig& config = trainer.config();
  nn::Adam opt(model.params(), config.learningRate);
  Rng shuffler(config.shuffleSeed);
  std::vector<std::size_t> order(trainSet.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  std::vector<nf::EpochStats> history;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    shuffler.shuffle(order);
    double epochLoss = 0.0;
    for (std::size_t start = 0; start < order.size();
         start += config.batchSize) {
      const std::size_t end = std::min(order.size(), start + config.batchSize);
      model.params().zeroGrad();
      nn::Var batchLoss;
      for (std::size_t i = start; i < end; ++i) {
        const nn::Var loss = trainer.sampleLoss(model, trainSet[order[i]]);
        epochLoss += loss->scalar();
        batchLoss = batchLoss ? nn::add(batchLoss, loss) : loss;
      }
      nn::backward(nn::scale(batchLoss,
                             1.0f / static_cast<float>(end - start)));
      if (config.gradClip > 0.0f) model.params().clipGradNorm(config.gradClip);
      opt.step();
    }

    nf::EpochStats stats;
    stats.epoch = epoch;
    stats.trainLoss = epochLoss / static_cast<double>(trainSet.size());
    const auto [loss, acc] = referenceEvaluate(trainer, model, valSet);
    stats.valLoss = loss;
    stats.valAccuracy = acc;
    stats.valBaseRate = trainer.baseRate(model, valSet);
    history.push_back(stats);
  }
  return history;
}

const char* headName(nf::HeadKind head) {
  switch (head) {
    case nf::HeadKind::Classifier: return "Classifier";
    case nf::HeadKind::Multilabel: return "Multilabel";
    case nf::HeadKind::Regression: return "Regression";
  }
  return "?";
}

/// A small graph touching every logged write: embedding rows (one of them
/// twice), a Linear layer's affine op, and an LSTM's Wx, Wh and bias
/// through the fused cell.
struct TinyNet {
  nn::ParamStore store;
  Rng rng{3};
  nn::Embedding emb{7, 4, store, rng};
  nn::Lstm lstm{4, 5, store, rng};
  nn::Linear out{5, 3, store, rng};

  nn::Var loss(const std::vector<std::size_t>& tokens,
               std::size_t label) const {
    std::vector<nn::Var> seq;
    for (std::size_t t : tokens) seq.push_back(emb.lookup(t));
    return nn::softmaxCrossEntropy(out.forward(lstm.encode(seq)), label);
  }

  std::vector<std::uint32_t> gradBits() const {
    std::vector<std::uint32_t> bits;
    for (const auto& p : store.params())
      for (std::size_t i = 0; i < p->grad().size(); ++i) {
        std::uint32_t b;
        std::memcpy(&b, &p->grad().at(i), sizeof b);
        bits.push_back(b);
      }
    return bits;
  }
};

// (head, threads, gradClip): 37 samples at batch size 8 leave a ragged last
// batch of 5; a clip of 0.05 binds on every step, 0 turns clipping off.
class TrainParallel
    : public ::testing::TestWithParam<
          std::tuple<nf::HeadKind, std::size_t, float>> {};

}  // namespace

TEST_P(TrainParallel, MatchesTheSerialSweepBitForBit) {
  const auto [head, threads, clip] = GetParam();
  const auto trainSet = tinyDataset(37, 11);
  const auto valSet = tinyDataset(9, 12);
  nf::TrainConfig tc;
  tc.epochs = 2;
  tc.batchSize = 8;
  tc.learningRate = 1e-2f;
  tc.gradClip = clip;

  nf::NnffModel want(tinyConfig(head));
  const auto wantStats =
      referenceTrain(nf::Trainer(tc), want, trainSet, valSet);

  tc.threads = threads;
  nf::Trainer trainer(tc);
  ASSERT_EQ(trainer.threads(), threads);
  nf::NnffModel got(tinyConfig(head));
  const auto gotStats = trainer.train(got, trainSet, valSet);

  EXPECT_EQ(weightBits(got), weightBits(want));
  expectSameStats(gotStats, wantStats);
}

INSTANTIATE_TEST_SUITE_P(
    HeadsThreadsClip, TrainParallel,
    ::testing::Combine(::testing::Values(nf::HeadKind::Classifier,
                                         nf::HeadKind::Multilabel,
                                         nf::HeadKind::Regression),
                       ::testing::Values<std::size_t>(1, 2, 3, 4, 8),
                       ::testing::Values(0.05f, 0.0f)),
    [](const auto& info) {
      return std::string(headName(std::get<0>(info.param))) + "_t" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) > 0.0f ? "_clip" : "_noclip");
    });

TEST(TrainParallel, EvaluateMatchesTheSerialPass) {
  const auto set = tinyDataset(13, 21);
  for (const auto head : {nf::HeadKind::Classifier, nf::HeadKind::Multilabel,
                          nf::HeadKind::Regression}) {
    nf::NnffModel model(tinyConfig(head));
    nf::TrainConfig tc;
    tc.threads = 4;
    const nf::Trainer trainer(tc);
    const auto [loss, acc] = trainer.evaluate(model, set);
    const auto [wantLoss, wantAcc] = referenceEvaluate(trainer, model, set);
    EXPECT_EQ(bitsOf(loss), bitsOf(wantLoss)) << headName(head);
    EXPECT_EQ(bitsOf(acc), bitsOf(wantAcc)) << headName(head);
  }
}

// threads = 0 starts no more threads than a minibatch has samples: a
// replica per idle thread would only be copied, never used.
TEST(TrainParallel, DefaultThreadsAreAtMostTheBatchSize) {
  nf::TrainConfig tc;
  tc.batchSize = 1;
  EXPECT_EQ(nf::Trainer(tc).threads(), 1u);
  tc.batchSize = 2;
  EXPECT_GE(nf::Trainer(tc).threads(), 1u);
  EXPECT_LE(nf::Trainer(tc).threads(), 2u);
}

TEST(TrainParallel, RankTrainerMatchesTheSerialSweep) {
  nf::NnffConfig cfg = tinyConfig(nf::HeadKind::Regression);
  Rng rng(5);
  const auto pairs = nf::buildPairs(tinyDc(), 21, nf::BalanceMetric::CF, rng);
  nf::RankTrainConfig rc;
  rc.epochs = 2;
  rc.batchSize = 8;
  rc.gradClip = 0.05f;

  // The ranking loop, serially.
  nf::NnffModel want(cfg);
  {
    nn::Adam opt(want.params(), rc.learningRate);
    Rng shuffler(rc.shuffleSeed);
    std::vector<std::size_t> order(pairs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t epoch = 0; epoch < rc.epochs; ++epoch) {
      shuffler.shuffle(order);
      for (std::size_t start = 0; start < order.size();
           start += rc.batchSize) {
        const std::size_t end = std::min(order.size(), start + rc.batchSize);
        want.params().zeroGrad();
        nn::Var batchLoss;
        for (std::size_t i = start; i < end; ++i) {
          const nf::PairSample& p = pairs[order[i]];
          const nn::Var sa = want.forward(p.spec, p.a, p.tracesA);
          const nn::Var sb = want.forward(p.spec, p.b, p.tracesB);
          const nn::Matrix label(1, 1, p.metricA > p.metricB ? 1.0f : 0.0f);
          const nn::Var loss = nn::bceWithLogits(nn::sub(sa, sb), label);
          batchLoss = batchLoss ? nn::add(batchLoss, loss) : loss;
        }
        nn::backward(nn::scale(batchLoss,
                               1.0f / static_cast<float>(end - start)));
        want.params().clipGradNorm(rc.gradClip);
        opt.step();
      }
    }
  }

  nf::NnffModel got(cfg);
  nf::RankTrainer(rc).train(got, pairs, {});
  EXPECT_EQ(weightBits(got), weightBits(want));
}

// ---- the leaf-gradient log --------------------------------------------------

TEST(LeafGradLog, ReplayInAnyPartsEqualsDirectWrites) {
  const std::vector<std::vector<std::size_t>> batch = {
      {1, 2, 1, 6}, {0}, {3, 3, 5, 2, 4}};
  // Direct: the samples' backward passes last to first, written in place.
  TinyNet direct;
  direct.store.zeroGrad();
  for (std::size_t i = batch.size(); i-- > 0;)
    nn::backward(nn::scale(direct.loss(batch[i], i), 0.25f));
  const auto want = direct.gradBits();

  for (std::size_t parts : {1u, 2u, 3u, 5u, 8u}) {
    TinyNet logged;  // same seed, same weights
    std::vector<nn::LeafGradLog> logs(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      nn::LeafGradLogScope scope(logs[i]);
      nn::backward(nn::scale(logged.loss(batch[i], i), 0.25f));
    }
    logged.store.zeroGrad();
    for (std::size_t part = 0; part < parts; ++part)
      for (std::size_t i = batch.size(); i-- > 0;)
        logs[i].replay(logged.store.params(), part, parts);
    EXPECT_EQ(logged.gradBits(), want) << parts << " parts";
  }
}

TEST(LeafGradLog, ParameterGradFailsLoudlyUnderAnActiveLog) {
  nn::ParamStore store;
  const nn::Var w = store.make(nn::Matrix(2, 2, 1.0f));
  const nn::Var x = nn::constant(nn::Matrix(1, 2, 1.0f));
  nn::LeafGradLog log;
  {
    nn::LeafGradLogScope scope(log);
    EXPECT_THROW(w->grad(), std::logic_error);
    // Interior nodes are unaffected.
    const nn::Var y =
        nn::affine(x, w, nn::constant(nn::Matrix(1, 2, 0.0f)));
    EXPECT_NO_THROW(y->grad());
    // A backward closure that writes a parameter's gradient directly,
    // bypassing the log, trips the same check.
    const nn::Var bypass =
        nn::makeNode(nn::Matrix(1, 1, 0.0f), {w}, [](nn::Node& n) {
          n.parents()[0]->grad().at(0) += n.grad().at(0);
        });
    EXPECT_THROW(nn::backward(bypass), std::logic_error);
  }
  EXPECT_NO_THROW(w->grad());
}

TEST(LeafGradLog, UnregisteredParameterCannotBeLogged) {
  const nn::Var w = nn::parameter(nn::Matrix(1, 3, 0.5f));
  nn::LeafGradLog log;
  nn::LeafGradLogScope scope(log);
  EXPECT_THROW(nn::backward(nn::meanAll(nn::selectRow(w, 0))),
               std::logic_error);
}
