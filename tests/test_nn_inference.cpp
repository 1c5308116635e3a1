// The allocation-free inference path must return the autograd graph path's
// floats exactly: training and inference add in one order (bias first, then
// the inputs ascending) through one row kernel, so these tests pin equality
// for every kernel and for the full fitness models, whose oracle is
// forward()/forwardIOOnly().
#include <gtest/gtest.h>

#include <cmath>

#include "fitness/dataset.hpp"
#include "fitness/model.hpp"
#include "nn/inference.hpp"
#include "nn/layers.hpp"
#include "util/rng.hpp"

namespace nf = netsyn::fitness;
namespace nn = netsyn::nn;
using netsyn::util::Rng;

namespace {

nn::Matrix randomRow(std::size_t n, Rng& rng) {
  nn::Matrix m(1, n);
  for (std::size_t i = 0; i < n; ++i)
    m.at(i) = static_cast<float>(rng.uniformReal(-1, 1));
  return m;
}

/// Fresh layers have zero biases (the LSTM's forget gate aside), which add
/// the same in any order; random ones make the bias-first order observable.
void randomizeBiases(nn::ParamStore& store, Rng& rng) {
  for (const nn::Var& p : store.params())
    if (p->value().rows() == 1) p->value() = randomRow(p->value().cols(), rng);
  store.bumpVersion();
}

}  // namespace

TEST(FastInference, LstmStepMatchesGraph) {
  Rng rng(1);
  nn::ParamStore store;
  nn::Lstm lstm(5, 7, store, rng);
  randomizeBiases(store, rng);
  const auto x = randomRow(5, rng);

  // Graph path: two steps.
  nn::InferenceModeGuard guard;
  auto state = lstm.initialState();
  state = lstm.step(nn::constant(x), state);
  state = lstm.step(nn::constant(x), state);

  // Fast path.
  std::vector<float> h(7, 0.0f), c(7, 0.0f);
  nn::InferenceScratch scratch;
  nn::lstmStepFast(lstm, x.data(), h.data(), c.data(), scratch);
  nn::lstmStepFast(lstm, x.data(), h.data(), c.data(), scratch);

  for (std::size_t j = 0; j < 7; ++j) {
    EXPECT_EQ(h[j], state->value().at(j));      // packed [h | c]
    EXPECT_EQ(c[j], state->value().at(7 + j));
  }
}

TEST(FastInference, TokenEncodingMatchesGraph) {
  Rng rng(2);
  nn::ParamStore store;
  nn::Embedding emb(10, 4, store, rng);
  nn::Lstm lstm(4, 6, store, rng);
  const std::vector<std::size_t> tokens = {3, 1, 7, 7, 0};

  nn::InferenceModeGuard guard;
  std::vector<nn::Var> seq;
  for (auto t : tokens) seq.push_back(emb.lookup(t));
  const auto expected = lstm.encode(seq);

  std::vector<float> h(6);
  nn::InferenceScratch scratch;
  nn::lstmEncodeTokensFast(lstm, emb, tokens, h.data(), scratch);
  for (std::size_t j = 0; j < 6; ++j)
    EXPECT_EQ(h[j], expected->value().at(j));
}

TEST(FastInference, EmptySequenceIsZero) {
  Rng rng(3);
  nn::ParamStore store;
  nn::Embedding emb(5, 3, store, rng);
  nn::Lstm lstm(3, 4, store, rng);
  std::vector<float> h(4, 99.0f);
  nn::InferenceScratch scratch;
  nn::lstmEncodeTokensFast(lstm, emb, {}, h.data(), scratch);
  for (float v : h) EXPECT_EQ(v, 0.0f);
}

TEST(FastInference, LinearMatchesGraph) {
  Rng rng(4);
  nn::ParamStore store;
  nn::Linear lin(6, 3, store, rng);
  randomizeBiases(store, rng);
  const auto x = randomRow(6, rng);

  nn::InferenceModeGuard guard;
  const auto expected = lin.forward(nn::constant(x));

  std::vector<float> out(3);
  nn::linearForwardFast(lin, x.data(), out.data());
  for (std::size_t j = 0; j < 3; ++j)
    EXPECT_EQ(out[j], expected->value().at(j));
}

TEST(FastInference, ReluClampsNegatives) {
  float xs[4] = {-1.0f, 0.0f, 2.0f, -3.5f};
  nn::reluFast(xs, 4);
  EXPECT_EQ(xs[0], 0.0f);
  EXPECT_EQ(xs[1], 0.0f);
  EXPECT_EQ(xs[2], 2.0f);
  EXPECT_EQ(xs[3], 0.0f);
}

class FullModelEquivalence : public ::testing::TestWithParam<int> {};

namespace {

/// predictBatch-of-one (encodeTrace + predictBatch) against the autograd
/// forward() on a handful of dataset samples.
void expectBatchOfOneMatchesGraph(nf::HeadKind head, std::size_t numClasses,
                                  std::uint64_t seed, std::uint64_t dataSeed) {
  nf::NnffConfig cfg;
  cfg.encoder = {.vmax = 16, .maxValueTokens = 6};
  cfg.embedDim = 8;
  cfg.hiddenDim = 12;
  cfg.numClasses = numClasses;
  cfg.maxExamples = 3;
  cfg.head = head;
  cfg.seed = seed;
  nf::NnffModel model(cfg);
  Rng biasRng(seed);
  randomizeBiases(model.params(), biasRng);

  nf::DatasetConfig dc;
  dc.programLength = 4;
  dc.numExamples = 3;
  nf::DatasetBuilder builder(dc);
  Rng rng(dataSeed);
  nf::EncodedTrace encoded;
  for (int iter = 0; iter < 5; ++iter) {
    const auto s = builder.makeSample(static_cast<std::size_t>(iter % 5),
                                      nf::BalanceMetric::CF, rng);
    if (!s) continue;  // rare degenerate spec at this seed; not under test
    nn::InferenceModeGuard guard;
    const auto graph = model.forward(s->spec, s->candidate, s->traces);
    model.encodeTrace(s->spec, s->candidate, s->traces, encoded);
    const auto fast =
        model.predictBatch(s->spec, {&s->candidate}, {&encoded})[0];
    ASSERT_EQ(fast.size(), graph->value().cols());
    for (std::size_t j = 0; j < fast.size(); ++j)
      EXPECT_EQ(fast[j], graph->value().at(j)) << "logit " << j;
  }
}

}  // namespace

TEST_P(FullModelEquivalence, ClassifierBatchOfOneMatchesGraph) {
  expectBatchOfOneMatchesGraph(nf::HeadKind::Classifier, 5,
                               42 + static_cast<std::uint64_t>(GetParam()),
                               100 + static_cast<std::uint64_t>(GetParam()));
}

TEST_P(FullModelEquivalence, RegressionBatchOfOneMatchesGraph) {
  expectBatchOfOneMatchesGraph(nf::HeadKind::Regression, 5,
                               17 + static_cast<std::uint64_t>(GetParam()),
                               300 + static_cast<std::uint64_t>(GetParam()));
}

TEST_P(FullModelEquivalence, MultilabelPredictIOOnlyMatchesGraph) {
  nf::NnffConfig cfg;
  cfg.encoder = {.vmax = 16, .maxValueTokens = 6};
  cfg.embedDim = 8;
  cfg.hiddenDim = 12;
  cfg.maxExamples = 3;
  cfg.head = nf::HeadKind::Multilabel;
  cfg.useTrace = false;
  cfg.seed = 7 + static_cast<std::uint64_t>(GetParam());
  nf::NnffModel model(cfg);
  Rng biasRng(cfg.seed);
  randomizeBiases(model.params(), biasRng);

  nf::DatasetConfig dc;
  dc.programLength = 4;
  dc.numExamples = 3;
  nf::DatasetBuilder builder(dc);
  Rng rng(200 + GetParam());
  const auto s = builder.makeSample(2, nf::BalanceMetric::CF, rng);
  ASSERT_TRUE(s.has_value());
  nn::InferenceModeGuard guard;
  const auto graph = model.forwardIOOnly(s->spec);
  const auto fast = model.predictIOOnly(s->spec);
  ASSERT_EQ(fast.size(), graph->value().cols());
  for (std::size_t j = 0; j < fast.size(); ++j)
    EXPECT_EQ(fast[j], graph->value().at(j));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullModelEquivalence, ::testing::Range(0, 4));

TEST(FastInference, IoFeaturesDetectProperties) {
  using L = std::vector<std::int32_t>;
  // sorted output, subset of input
  const auto f1 = nf::ioSummaryFeatures({netsyn::dsl::Value(L{3, 1, 2})},
                                        netsyn::dsl::Value(L{1, 2, 3}));
  EXPECT_EQ(f1[0], 1.0f);  // list output
  EXPECT_EQ(f1[2], 1.0f);  // sorted
  EXPECT_EQ(f1[4], 1.0f);  // sub-multiset
  EXPECT_EQ(f1[9], 1.0f);  // equals sort(input)
  // singleton output equal to the sum
  const auto f2 = nf::ioSummaryFeatures({netsyn::dsl::Value(L{1, 2, 3})},
                                        netsyn::dsl::Value(6));
  EXPECT_EQ(f2[0], 0.0f);
  EXPECT_EQ(f2[18], 1.0f);  // sum prototype
  // reversed
  const auto f3 = nf::ioSummaryFeatures({netsyn::dsl::Value(L{1, 2, 3})},
                                        netsyn::dsl::Value(L{3, 2, 1}));
  EXPECT_EQ(f3[10], 1.0f);
  // divisibility by 2
  const auto f4 = nf::ioSummaryFeatures({netsyn::dsl::Value(L{1, 2})},
                                        netsyn::dsl::Value(L{2, 4}));
  EXPECT_EQ(f4[11], 1.0f);
  EXPECT_EQ(f4[12], 0.0f);
}
