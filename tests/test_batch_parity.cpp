// Batched-evaluation parity: the population-batched NN forward, the
// scoreBatch overrides, the lane and scatter synthesizer grading paths, and
// the batch-aware evaluator must all agree with their per-gene
// counterparts — bitwise, since a batch of one is the single-gene path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>

#include "core/evaluator.hpp"
#include "core/ga.hpp"
#include "core/synthesizer.hpp"
#include "dsl/generator.hpp"
#include "fitness/edit.hpp"
#include "fitness/metrics.hpp"
#include "fitness/model.hpp"
#include "fitness/neural_fitness.hpp"
#include "nn/inference.hpp"
#include "nn/optim.hpp"
#include "nn/serialize.hpp"
#include "util/rng.hpp"

namespace nc = netsyn::core;
namespace nd = netsyn::dsl;
namespace nf = netsyn::fitness;
using netsyn::util::Rng;

namespace {

nf::NnffConfig smallConfig(nf::HeadKind head) {
  nf::NnffConfig cfg;
  cfg.encoder = {.vmax = 64, .maxValueTokens = 8};
  cfg.embedDim = 16;
  cfg.hiddenDim = 24;
  cfg.maxExamples = 3;
  cfg.head = head;
  cfg.useTrace = head != nf::HeadKind::Multilabel;
  cfg.seed = 7;
  return cfg;
}

/// A spec plus a random population with per-gene, per-example traces.
struct PopulationFixture {
  nd::Spec spec;
  std::vector<nd::Program> genes;
  std::vector<std::vector<nd::ExecResult>> runs;  // per gene, per example
};

/// Replaces fx's genes with `genes`, each run on every example of fx.spec.
void setGenes(PopulationFixture& fx, std::vector<nd::Program> genes) {
  fx.genes = std::move(genes);
  fx.runs.clear();
  for (const auto& g : fx.genes) {
    std::vector<nd::ExecResult> runs;
    for (const auto& ex : fx.spec.examples)
      runs.push_back(nd::run(g, ex.inputs));
    fx.runs.push_back(std::move(runs));
  }
}

/// `count` random genes for `spec`.
PopulationFixture populationOn(const nd::Spec& spec, std::size_t count,
                               Rng& rng, bool mixedLengths = false) {
  const nd::Generator gen;
  PopulationFixture fx;
  fx.spec = spec;
  const nd::InputSignature sig = fx.spec.signature();
  std::vector<nd::Program> genes;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t length = mixedLengths ? 3 + (i % 4) : 5;
    auto prog = gen.randomProgram(length, sig, rng);
    EXPECT_TRUE(prog.has_value());
    genes.push_back(std::move(*prog));
  }
  setGenes(fx, std::move(genes));
  return fx;
}

PopulationFixture makePopulation(std::size_t count, std::uint64_t seed,
                                 bool mixedLengths = false) {
  Rng rng(seed);
  const nd::Generator gen;
  const auto tc = gen.randomTestCase(5, 4, false, rng);
  EXPECT_TRUE(tc.has_value());
  return populationOn(tc->spec, count, rng, mixedLengths);
}

std::vector<const nd::Program*> genePtrs(const PopulationFixture& fx) {
  std::vector<const nd::Program*> out;
  for (const auto& g : fx.genes) out.push_back(&g);
  return out;
}

/// The whole population's logits: every gene encoded from its scattered
/// runs, then one predictBatch.
std::vector<std::vector<float>> predictAll(const nf::NnffModel& model,
                                          const PopulationFixture& fx) {
  std::vector<nf::EncodedTrace> encoded(fx.genes.size());
  std::vector<const nf::EncodedTrace*> ptrs;
  for (std::size_t b = 0; b < fx.genes.size(); ++b) {
    model.encodeTrace(fx.spec, fx.genes[b], fx.runs[b], encoded[b]);
    ptrs.push_back(&encoded[b]);
  }
  return model.predictBatch(fx.spec, genePtrs(fx), ptrs);
}

void expectSameLogits(const std::vector<std::vector<float>>& a,
                      const std::vector<std::vector<float>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t g = 0; g < a.size(); ++g) {
    ASSERT_EQ(a[g].size(), b[g].size());
    for (std::size_t j = 0; j < a[g].size(); ++j)
      EXPECT_EQ(a[g][j], b[g][j]) << "gene " << g << " logit " << j;
  }
}

/// Gene b's logits through a batch of one.
std::vector<float> predictOne(const nf::NnffModel& model,
                              const PopulationFixture& fx, std::size_t b) {
  nf::EncodedTrace encoded;
  model.encodeTrace(fx.spec, fx.genes[b], fx.runs[b], encoded);
  return model.predictBatch(fx.spec, {&fx.genes[b]}, {&encoded})[0];
}

/// Pins every gene's logits to the autograd oracle, which has no memos.
void expectMatchesOracle(const nf::NnffModel& model,
                         const PopulationFixture& fx,
                         const std::vector<std::vector<float>>& logits) {
  ASSERT_EQ(logits.size(), fx.genes.size());
  for (std::size_t b = 0; b < fx.genes.size(); ++b) {
    std::vector<std::vector<nd::Value>> traces;
    for (const auto& run : fx.runs[b]) traces.push_back(run.trace);
    const auto oracle = model.forward(fx.spec, fx.genes[b], traces);
    for (std::size_t j = 0; j < logits[b].size(); ++j)
      EXPECT_EQ(logits[b][j], oracle->value().at(j))
          << "gene " << b << " logit " << j;
  }
}

}  // namespace

// ------------------------------------------------ kernel-level parity ------

TEST(BatchKernels, TokenEncodingMatchesScalarPerRow) {
  Rng rng(5);
  netsyn::nn::ParamStore store;
  const netsyn::nn::Embedding emb(12, 6, store, rng);
  const netsyn::nn::Lstm lstm(6, 10, store, rng);
  netsyn::nn::InferenceScratch scratch;

  // Variable-length rows, including an empty one (encodes to zero).
  std::vector<std::vector<std::size_t>> tokens;
  for (std::size_t b = 0; b < 9; ++b) {
    std::vector<std::size_t> seq;
    for (std::size_t t = 0; t < b; ++t)
      seq.push_back(rng.uniform(emb.vocab()));
    tokens.push_back(std::move(seq));
  }

  std::vector<float> batched(tokens.size() * lstm.hiddenDim());
  netsyn::nn::lstmEncodeTokensBatchFast(lstm, emb, tokens, batched.data(),
                                        scratch);
  for (std::size_t b = 0; b < tokens.size(); ++b) {
    std::vector<float> single(lstm.hiddenDim());
    netsyn::nn::lstmEncodeTokensFast(lstm, emb, tokens[b], single.data(),
                                     scratch);
    for (std::size_t j = 0; j < single.size(); ++j)
      EXPECT_EQ(batched[b * lstm.hiddenDim() + j], single[j])
          << "row " << b << " unit " << j;
  }
}

namespace {

/// The scalar row loop, as a portable build runs it: z += x * W with
/// ascending i, one rounded product and one add per output, inputs equal to
/// zero skipped. This file is built with
/// -ffp-contract=off, so the loop stays unfused under FMA codegen too.
void referenceAddVecMat(const float* x, std::size_t in,
                        const netsyn::nn::Matrix& w, float* z) {
  const std::size_t out = w.cols();
  for (std::size_t i = 0; i < in; ++i) {
    const float xv = x[i];
    if (xv == 0.0f) continue;
    const float* row = w.data() + i * out;
    for (std::size_t j = 0; j < out; ++j) z[j] += xv * row[j];
  }
}

}  // namespace

TEST(BatchKernels, RowKernelMatchesScalarLoopBitwise) {
  // Every width the model uses (hiddenDim 24 gates are 96 wide) and the
  // chunk boundaries around the kernel's 12 x 8 register block: a pure
  // tail (6), tails after whole vectors (20, 41, 100), one full block
  // (96), a block plus a partial one (128) and several blocks (256).
  Rng rng(31);
  constexpr std::size_t kRows = 9;
  for (const std::size_t out : {6, 20, 41, 96, 100, 128, 256}) {
    for (const std::size_t in : {1, 16, 24, 42}) {
      netsyn::nn::Matrix w(in, out);
      for (std::size_t i = 0; i < w.size(); ++i)
        w.at(i) = static_cast<float>(rng.uniformReal(-1, 1));
      std::vector<float> x(kRows * in), z(kRows * out);
      for (std::size_t r = 0; r < kRows; ++r) {
        for (std::size_t i = 0; i < in; ++i) {
          // Rows 0 and 1 are all +0 and all -0, so a skipped input must
          // leave a -0 output as -0; other rows sprinkle zeros of both
          // signs among ordinary values.
          const std::size_t k = r * in + i;
          if (r == 0) x[k] = 0.0f;
          else if (r == 1) x[k] = -0.0f;
          else if ((k + r) % 5 == 0) x[k] = (k % 2) ? -0.0f : 0.0f;
          else x[k] = static_cast<float>(rng.uniformReal(-2, 2));
        }
        for (std::size_t j = 0; j < out; ++j)
          z[r * out + j] = (r < 2 || j % 3 == 0)
                               ? -0.0f
                               : static_cast<float>(rng.uniformReal(-1, 1));
      }
      std::vector<std::uint8_t> active(kRows, 1);
      active[3] = active[kRows - 1] = 0;  // masked rows stay untouched

      std::vector<float> expected = z;
      for (std::size_t r = 0; r < kRows; ++r)
        if (active[r])
          referenceAddVecMat(x.data() + r * in, in, w,
                             expected.data() + r * out);
      std::vector<float> batched = z;
      netsyn::nn::addVecMatBatch(x.data(), in, kRows, in, w, batched.data(),
                                 out, active.data());
      EXPECT_EQ(0, std::memcmp(batched.data(), expected.data(),
                               z.size() * sizeof(float)))
          << "batched, in " << in << " out " << out;
      std::vector<float> single = z;
      for (std::size_t r = 0; r < kRows; ++r)
        if (active[r])
          netsyn::nn::addVecMatBatch(x.data() + r * in, in, 1, in, w,
                                     single.data() + r * out, out);
      EXPECT_EQ(0, std::memcmp(single.data(), expected.data(),
                               z.size() * sizeof(float)))
          << "single rows, in " << in << " out " << out;
    }
  }
}

// ------------------------------------------------- model-level parity ------

TEST(PredictBatch, BatchOfOneMatchesPopulationRow) {
  const nf::NnffModel model(smallConfig(nf::HeadKind::Classifier));
  const auto fx = makePopulation(32, 11);
  const auto batched = predictAll(model, fx);
  ASSERT_EQ(batched.size(), fx.genes.size());
  for (std::size_t b = 0; b < fx.genes.size(); ++b) {
    const auto single = predictOne(model, fx, b);
    ASSERT_EQ(batched[b].size(), single.size());
    for (std::size_t j = 0; j < single.size(); ++j)
      EXPECT_EQ(batched[b][j], single[j]) << "gene " << b << " logit " << j;
  }
}

TEST(PredictBatch, HandlesMixedLengthPopulations) {
  const nf::NnffModel model(smallConfig(nf::HeadKind::Classifier));
  const auto fx = makePopulation(17, 12, /*mixedLengths=*/true);
  const auto batched = predictAll(model, fx);
  for (std::size_t b = 0; b < fx.genes.size(); ++b) {
    const auto single = predictOne(model, fx, b);
    for (std::size_t j = 0; j < single.size(); ++j)
      EXPECT_EQ(batched[b][j], single[j]) << "gene " << b << " logit " << j;
  }
}

TEST(PredictBatch, RepeatedCallsHitTraceMemoConsistently) {
  const nf::NnffModel model(smallConfig(nf::HeadKind::Classifier));
  const auto fx = makePopulation(8, 13);
  const auto first = predictAll(model, fx);
  const auto second = predictAll(model, fx);
  for (std::size_t b = 0; b < first.size(); ++b)
    for (std::size_t j = 0; j < first[b].size(); ++j)
      EXPECT_EQ(first[b][j], second[b][j]);
}

TEST(ModelClone, ProducesIdenticalPredictions) {
  const nf::NnffModel model(smallConfig(nf::HeadKind::Classifier));
  const auto copy = model.clone();
  const auto fx = makePopulation(4, 14);
  for (std::size_t b = 0; b < fx.genes.size(); ++b) {
    const auto a = predictOne(model, fx, b);
    const auto c = predictOne(*copy, fx, b);
    ASSERT_EQ(a.size(), c.size());
    for (std::size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j], c[j]);
  }
}

// ----------------------------------------------- fitness-level parity ------

namespace {

/// scoreBatch-vs-score parity over a fixture for any fitness function.
void expectScoreBatchParity(nf::FitnessFunction& fit,
                            const PopulationFixture& fx) {
  std::vector<const nf::EvalContext*> contexts;
  std::deque<nf::EvalContext> store;
  for (const auto& runs : fx.runs) {
    store.push_back(nf::EvalContext{fx.spec, runs});
    contexts.push_back(&store.back());
  }
  const auto batched = fit.scoreBatch(genePtrs(fx), contexts);
  ASSERT_EQ(batched.size(), fx.genes.size());
  for (std::size_t b = 0; b < fx.genes.size(); ++b) {
    const double single = fit.score(fx.genes[b], *contexts[b]);
    EXPECT_EQ(batched[b], single) << "gene " << b;
  }
}

}  // namespace

namespace {

using MakeFitness = std::function<std::unique_ptr<nf::FitnessFunction>(
    std::shared_ptr<nf::NnffModel> model, std::size_t threads)>;

/// Sharded grading is exact: at 1, 2, 3, 4 and 8 threads, scoreBatch calls
/// of 1 to 37 genes (made in turn on one fitness, so later calls meet warm
/// memos and a grown workspace set) and a call whose contexts span two
/// specs score bit for bit like the single-thread path. Explicit thread
/// counts, so each round splits into that many shards and the executor's
/// workers run them concurrently wherever the host has the cores (and
/// under TSan).
void expectThreadCountParity(const std::shared_ptr<nf::NnffModel>& model,
                             const MakeFitness& make) {
  const auto fxA = makePopulation(37, 25);
  const auto fxB = makePopulation(12, 26);
  std::deque<nf::EvalContext> store;
  std::vector<const nf::EvalContext*> ctxA, mixedCtx;
  std::vector<const nd::Program*> mixedGenes;
  for (const auto& runs : fxA.runs) {
    store.push_back(nf::EvalContext{fxA.spec, runs});
    ctxA.push_back(&store.back());
  }
  // Mixed: 10 genes on spec A, all of B's, then 5 more on A.
  for (std::size_t i = 0; i < 10; ++i) {
    mixedGenes.push_back(&fxA.genes[i]);
    mixedCtx.push_back(ctxA[i]);
  }
  for (std::size_t i = 0; i < fxB.genes.size(); ++i) {
    store.push_back(nf::EvalContext{fxB.spec, fxB.runs[i]});
    mixedGenes.push_back(&fxB.genes[i]);
    mixedCtx.push_back(&store.back());
  }
  for (std::size_t i = 10; i < 15; ++i) {
    mixedGenes.push_back(&fxA.genes[i]);
    mixedCtx.push_back(ctxA[i]);
  }
  const std::vector<std::size_t> counts = {1, 2, 5, 12, 37};
  const auto genesA = genePtrs(fxA);
  const auto callsOf = [&](nf::FitnessFunction& fit) {
    std::vector<std::vector<double>> calls;
    for (const std::size_t n : counts)
      calls.push_back(fit.scoreBatch({genesA.begin(), genesA.begin() + n},
                                     {ctxA.begin(), ctxA.begin() + n}));
    calls.push_back(fit.scoreBatch(mixedGenes, mixedCtx));
    return calls;
  };
  const auto oracle = make(model->clone(), 1);
  const auto expected = callsOf(*oracle);
  for (const std::size_t threads : {1, 2, 3, 4, 8}) {
    const auto fit = make(model->clone(), threads);
    const auto got = callsOf(*fit);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t c = 0; c < got.size(); ++c) {
      ASSERT_EQ(got[c].size(), expected[c].size());
      for (std::size_t g = 0; g < got[c].size(); ++g)
        EXPECT_EQ(got[c][g], expected[c][g])
            << threads << " threads, call " << c << ", gene " << g;
    }
  }

  // Weight update: after an Adam step the sharded grade must be a fresh
  // model's, not one from memos or spec states of the old weights.
  std::shared_ptr<nf::NnffModel> trained = model->clone();
  const auto fit = make(trained, 4);
  (void)fit->scoreBatch(genesA, ctxA);  // fills the memos
  netsyn::nn::Adam adam(trained->params(), 1e-2f);
  for (const auto& p : trained->params().params()) p->grad().fill(0.5f);
  adam.step();
  const auto after = fit->scoreBatch(genesA, ctxA);
  EXPECT_EQ(after, make(trained->clone(), 1)->scoreBatch(genesA, ctxA));
  EXPECT_NE(after, expected[counts.size() - 1])
      << "the update did not move the scores; the test is moot";
}

}  // namespace

TEST(ScoreBatch, NeuralClassifierParity) {
  auto model =
      std::make_shared<nf::NnffModel>(smallConfig(nf::HeadKind::Classifier));
  nf::NeuralFitness fit(model, "NN_CF");
  expectScoreBatchParity(fit, makePopulation(100, 21));
  expectThreadCountParity(model, [](std::shared_ptr<nf::NnffModel> m,
                                    std::size_t threads) {
    return std::make_unique<nf::NeuralFitness>(std::move(m), "NN_CF",
                                               threads);
  });
}

TEST(ScoreBatch, RegressionParity) {
  auto model =
      std::make_shared<nf::NnffModel>(smallConfig(nf::HeadKind::Regression));
  nf::RegressionFitness fit(model);
  expectScoreBatchParity(fit, makePopulation(50, 22));
  expectThreadCountParity(model, [](std::shared_ptr<nf::NnffModel> m,
                                    std::size_t threads) {
    return std::make_unique<nf::RegressionFitness>(std::move(m), threads);
  });
}

TEST(ScoreBatch, ThreadParityUnderMemoPressure) {
  // At a memo capacity of 8 entries every merge of a grading round rotates
  // the memo generations, and calls that regrade earlier genes promote
  // previous-generation entries. Scores must still be the 1-thread scores
  // bit for bit. A lookup is one per trace cell and per edit distance, so
  // hits + misses must equal the 1-thread totals too; only the split may
  // move, when two threads both miss an entry one thread would have hit.
  auto model =
      std::make_shared<nf::NnffModel>(smallConfig(nf::HeadKind::Classifier));
  const auto fx = makePopulation(37, 27);
  std::deque<nf::EvalContext> store;
  std::vector<const nf::EvalContext*> ctx;
  for (const auto& runs : fx.runs) {
    store.push_back(nf::EvalContext{fx.spec, runs});
    ctx.push_back(&store.back());
  }
  const auto genes = genePtrs(fx);
  const auto grade = [&](std::size_t threads) {
    std::shared_ptr<nf::NnffModel> m = model->clone();
    m->setMemoCapacity(8);
    nf::NeuralFitness fit(m, "NN_CF", threads);
    std::vector<std::vector<double>> calls;
    for (const std::size_t n : {1, 2, 5, 12, 37})
      calls.push_back(fit.scoreBatch({genes.begin(), genes.begin() + n},
                                     {ctx.begin(), ctx.begin() + n}));
    return std::make_pair(calls, m->memoStats());
  };
  const auto [expected, serial] = grade(1);
  ASSERT_GT(serial.traceHits, 0u);
  ASSERT_GT(serial.traceMisses, 8u) << "the memo never rotated";
  for (const std::size_t threads : {1, 2, 3, 4, 8}) {
    const auto [got, stats] = grade(threads);
    EXPECT_EQ(got, expected) << threads << " threads";
    EXPECT_EQ(stats.traceHits + stats.traceMisses,
              serial.traceHits + serial.traceMisses)
        << threads << " threads";
    EXPECT_EQ(stats.editHits + stats.editMisses,
              serial.editHits + serial.editMisses)
        << threads << " threads";
  }
}

TEST(ScoreBatch, ProbMapParity) {
  auto model =
      std::make_shared<nf::NnffModel>(smallConfig(nf::HeadKind::Multilabel));
  nf::ProbMapFitness fit(model);
  expectScoreBatchParity(fit, makePopulation(30, 23));
}

TEST(ScoreBatch, DefaultLoopCoversOracleAndEditFitness) {
  const auto fx = makePopulation(20, 24);
  nf::EditDistanceFitness edit;
  expectScoreBatchParity(edit, fx);
  nf::OracleCF oracle(fx.genes.front());
  expectScoreBatchParity(oracle, fx);
}

// ------------------------------------------------ memo eviction ------------

TEST(TraceMemo, SecondPassIsAllHitsAtDefaultCapacity) {
  nf::NnffModel model(smallConfig(nf::HeadKind::Classifier));
  const auto fx = makePopulation(12, 61);

  EXPECT_EQ(model.memoStats().traceHits, 0u);
  EXPECT_EQ(model.memoStats().traceMisses, 0u);
  (void)predictAll(model, fx);
  const auto first = model.memoStats();
  EXPECT_GT(first.traceMisses, 0u);
  EXPECT_GT(first.editMisses, 0u);
  (void)predictAll(model, fx);
  const auto second = model.memoStats();
  EXPECT_EQ(second.traceMisses, first.traceMisses)
      << "re-encoded an already-memoized trace span";
  EXPECT_EQ(second.editMisses, first.editMisses)
      << "re-computed an already-memoized edit distance";
  EXPECT_GT(second.traceHits, first.traceHits);
}

TEST(TraceMemo, CapacityBoundaryKeepsTheWorkingSetWarm) {
  // The memos used to evict by wholesale clear() at capacity: the first
  // insert past the limit threw away every live entry, so the next pass
  // over an already-encoded population started cold. Two-generation
  // eviction demotes the full map to "previous" instead, and hits there
  // promote back — a working set that fits in one generation survives the
  // boundary. The trace memo holds one entry per token prefix, so capacity
  // counts prefixes.
  nf::NnffModel model(smallConfig(nf::HeadKind::Classifier));
  const auto fx = makePopulation(12, 62);

  // The working set in memo entries, counted independently of the model:
  // every distinct token prefix of the encoded examples' trace cells.
  std::set<std::vector<std::size_t>> prefixes, values;
  for (const auto& runs : fx.runs)
    for (std::size_t i = 0; i < model.config().maxExamples; ++i)
      for (const auto& v : runs[i].trace) {
        const auto toks = model.encoder().encodeValue(v);
        values.insert(toks);
        for (std::size_t d = 1; d <= toks.size(); ++d)
          prefixes.emplace(toks.begin(), toks.begin() + d);
      }
  ASSERT_GT(prefixes.size(), values.size()) << "no prefix is shared";
  // A value whose tokens prefix an earlier value's hits, so misses can
  // undercount distinct values, never exceed them.
  (void)predictAll(model, fx);
  const std::size_t unbounded = model.memoStats().traceMisses;
  EXPECT_LE(unbounded, values.size());

  // Capacity exactly that working set: the cold pass fills the current
  // generation to the brim without rotating. setMemoCapacity clears the
  // memos and stats.
  model.setMemoCapacity(prefixes.size());
  const auto cold = predictAll(model, fx);
  const auto first = model.memoStats();
  EXPECT_EQ(first.traceMisses, unbounded) << "capacity changed the key space";

  // A second, smaller population on the same spec pushes the memo over
  // capacity: its first novel value rotates generations, demoting
  // everything the first pass encoded.
  Rng rng(63);
  const auto fxB = populationOn(fx.spec, 2, rng);
  (void)predictAll(model, fxB);
  const auto mid = model.memoStats();
  ASSERT_GT(mid.traceMisses, first.traceMisses) << "no rotation was forced";

  // Crossing back is where clear() used to start cold: with two
  // generations the whole first working set is still readable, so the
  // repeat pass adds no misses.
  const auto warm = predictAll(model, fx);
  const auto second = model.memoStats();
  EXPECT_EQ(second.traceMisses, mid.traceMisses)
      << "the rotation evicted part of the live working set";
  EXPECT_GT(second.traceHits, mid.traceHits);

  // Eviction policy must never change scores — only recompute them.
  expectSameLogits(cold, warm);
}

namespace {

using TokenSet = std::set<std::vector<std::size_t>>;

/// The token sequences of fx's encoded trace cells (`values`) and every
/// prefix of them (`prefixes`): the trace memo's keys for fx.
void traceKeys(const nf::NnffModel& model, const PopulationFixture& fx,
               TokenSet& values, TokenSet& prefixes) {
  for (const auto& runs : fx.runs)
    for (std::size_t i = 0; i < model.config().maxExamples; ++i)
      for (const auto& v : runs[i].trace) {
        const auto toks = model.encoder().encodeValue(v);
        values.insert(toks);
        for (std::size_t d = 1; d <= toks.size(); ++d)
          prefixes.emplace(toks.begin(), toks.begin() + d);
      }
}

std::size_t countNotIn(const TokenSet& a, const TokenSet& b,
                       const TokenSet& c = {}) {
  std::size_t n = 0;
  for (const auto& x : a) n += b.count(x) == 0 && c.count(x) == 0;
  return n;
}

}  // namespace

TEST(TraceMemo, PromotedEntriesSurviveTheNextRotation) {
  // A previous-generation hit is copied into the current generation, so a
  // working set that keeps being graded outlives the rotation that drops
  // the rest of its old generation. Without promotion, fx's values would
  // sit in the previous generation until C's inserts rotate it away.
  nf::NnffModel model(smallConfig(nf::HeadKind::Classifier));
  const auto fx = makePopulation(12, 64);
  Rng rng(65);
  const auto fxB = populationOn(fx.spec, 12, rng);
  const auto fxC = populationOn(fx.spec, 16, rng);
  TokenSet valuesF, F, valuesB, B, valuesC, C;
  traceKeys(model, fx, valuesF, F);
  traceKeys(model, fxB, valuesB, B);
  traceKeys(model, fxC, valuesC, C);
  TokenSet newB;  // B's entries: its prefixes fx did not add
  for (const auto& x : B)
    if (F.count(x) == 0) newB.insert(x);
  // C adds at least its prefixes fx and B lack, and at most those B and
  // fx's promoted values lack. Capacity: fx fills one generation.
  const std::size_t cMin = countNotIn(C, F, newB);
  const std::size_t cMax = countNotIn(C, newB, valuesF);
  const std::size_t cap = F.size();
  ASSERT_GT(F.size() + newB.size(), cap) << "B would not rotate";
  ASSERT_GT(newB.size() + cMin, cap) << "C would not rotate unpromoted";
  // Promoted, fx's values and B's entries fill the current generation up
  // to `head`; the rest of C's inserts must fit the next one.
  const std::size_t head = newB.size() + valuesF.size();
  ASSERT_LE(cMax, cap + (head < cap ? cap - head : 0))
      << "C would rotate twice";
  model.setMemoCapacity(cap);

  const auto cold = predictAll(model, fx);  // fits one generation
  (void)predictAll(model, fxB);  // rotates: fx's entries are previous
  const auto afterB = model.memoStats();
  // Regrading fx hits the previous generation, promoting what it reads.
  (void)predictAll(model, fx);
  ASSERT_EQ(model.memoStats().traceMisses, afterB.traceMisses);
  // C's inserts rotate once more; the promoted copies of fx's values are
  // in the generation that is kept.
  (void)predictAll(model, fxC);
  const auto afterC = model.memoStats();
  const auto warm = predictAll(model, fx);
  EXPECT_EQ(model.memoStats().traceMisses, afterC.traceMisses)
      << "a promoted entry was dropped by the next rotation";
  expectSameLogits(cold, warm);
}

// ------------------------------------------------ prefix caches -----------

TEST(PrefixCaches, WarmModelMatchesFreshCloneOnBredPopulations) {
  // The GA's real workload: each generation is bred from the last, so its
  // trace values and program prefixes mostly repeat ones graded before. A
  // model whose memos earlier generations filled must grade exactly like a
  // cold clone.
  const nf::NnffModel model(smallConfig(nf::HeadKind::Classifier));
  Rng rng(91);
  auto fx = makePopulation(24, 91);
  const nd::Generator gen;
  const nd::InputSignature sig = fx.spec.signature();
  nc::GaConfig ga;
  ga.populationSize = fx.genes.size();
  for (std::size_t g = 0; g < 6; ++g) {
    const auto warm = predictAll(model, fx);
    const auto fresh = predictAll(*model.clone(), fx);
    expectSameLogits(warm, fresh);
    nc::Population scored;
    for (std::size_t b = 0; b < fx.genes.size(); ++b)
      scored.push_back(nc::Individual{fx.genes[b], warm[b][0]});
    setGenes(fx, nc::breed(scored, ga, sig, gen, rng, nullptr));
  }
}

TEST(PrefixCaches, GenesSharingAnUncachedPrefixInOneBatch) {
  // Regression for a placeholder hazard: if a batch inserted its new
  // prefixes while still looking genes up, a sibling could "hit" an entry
  // not yet computed. Here every gene shares a prefix no earlier call
  // cached: P, P with its last step changed, P's length-3 prefix, and P
  // again.
  const nf::NnffModel model(smallConfig(nf::HeadKind::Classifier));
  auto fx = makePopulation(2, 92);
  const auto& p = fx.genes[0].functions();
  auto q = p;
  q.back() = fx.genes[1].functions().back() != p.back()
                 ? fx.genes[1].functions().back()
                 : static_cast<nd::FuncId>(p.back() == 0 ? 1 : 0);
  setGenes(fx, {nd::Program(p), nd::Program(q),
                nd::Program(std::vector<nd::FuncId>(p.begin(), p.begin() + 3)),
                nd::Program(p)});

  const auto batched = predictAll(model, fx);
  std::vector<std::vector<float>> single;
  for (std::size_t b = 0; b < fx.genes.size(); ++b)
    single.push_back(predictOne(*model.clone(), fx, b));
  expectSameLogits(batched, single);
  // A batch of one walks the same prefix machinery, so also pin the batch
  // to the autograd oracle, which has none.
  for (std::size_t b = 0; b < fx.genes.size(); ++b) {
    std::vector<std::vector<nd::Value>> traces;
    for (const auto& run : fx.runs[b]) traces.push_back(run.trace);
    const auto oracle = model.forward(fx.spec, fx.genes[b], traces);
    for (std::size_t j = 0; j < batched[b].size(); ++j)
      EXPECT_EQ(batched[b][j], oracle->value().at(j))
          << "gene " << b << " logit " << j;
  }
  // And once more, now that every prefix is cached.
  expectSameLogits(predictAll(model, fx), single);
}

TEST(PrefixCaches, StepRowsFollowTheSpecsExampleCount) {
  // A step-memo row holds one [h | c] per encoded example, so its width
  // follows the spec. Grading a spec with fewer examples, then the first
  // one again, must match the oracle each time.
  const nf::NnffModel model(smallConfig(nf::HeadKind::Classifier));
  const auto fx = makePopulation(6, 96);
  ASSERT_GE(fx.spec.size(), model.config().maxExamples);
  const auto three = predictAll(model, fx);
  expectMatchesOracle(model, fx, three);

  auto fewer = fx;
  fewer.spec.examples.resize(2);
  setGenes(fewer, fewer.genes);
  const auto two = predictAll(model, fewer);
  expectMatchesOracle(model, fewer, two);
  expectSameLogits(predictAll(model, fewer), two);

  expectSameLogits(predictAll(model, fx), three);
}

TEST(PrefixCaches, PrefixesDeeperThanOneKeyWordStayExact) {
  // The step memo keys prefixes of up to kStepKeyDepth statements; a gene
  // steps its deeper ones on every call. Genes that share a whole key word
  // and differ only past it must each grade like the oracle, cold and warm.
  const nf::NnffModel model(smallConfig(nf::HeadKind::Classifier));
  auto fx = makePopulation(1, 97);
  Rng rng(97);
  const nd::Generator gen;
  const std::size_t depth = nf::kStepKeyDepth;
  const auto p = gen.randomProgram(depth + 2, fx.spec.signature(), rng);
  const auto o = gen.randomProgram(depth + 2, fx.spec.signature(), rng);
  ASSERT_TRUE(p.has_value() && o.has_value());
  const auto other = [](nd::FuncId mine, nd::FuncId theirs) {
    return theirs != mine ? theirs
                          : static_cast<nd::FuncId>(mine == 0 ? 1 : 0);
  };
  auto q = p->functions();  // differs in its last statement
  q.back() = other(q.back(), o->functions().back());
  auto r = p->functions();  // differs in the first unkeyed statement
  r[depth] = other(r[depth], o->functions()[depth]);
  const std::vector<nd::FuncId> keyed(p->functions().begin(),
                                      p->functions().begin() + depth);
  setGenes(fx, {*p, nd::Program(q), nd::Program(r), *p, nd::Program(keyed)});

  const auto cold = predictAll(model, fx);
  expectMatchesOracle(model, fx, cold);
  EXPECT_NE(cold[0], cold[1]) << "the genes grade alike; test is moot";
  expectSameLogits(predictAll(model, fx), cold);
}

TEST(PrefixCaches, InvalidateWhenSpecContentsChangeAtSameAddress) {
  // One spec object whose contents are replaced in place: the address stays
  // the same, so caches keyed by address would serve spec A's encodings
  // (and A's program-prefix states for the same genes) for spec B.
  const nf::NnffModel model(smallConfig(nf::HeadKind::Classifier));
  auto fx = makePopulation(6, 93);
  const auto before = predictAll(model, fx);
  fx.spec = makePopulation(1, 94).spec;
  setGenes(fx, fx.genes);
  const auto after = predictAll(model, fx);
  expectSameLogits(after, predictAll(*model.clone(), fx));
  EXPECT_NE(before[0], after[0]) << "the specs grade alike; test is moot";

  const nf::NnffModel fp(smallConfig(nf::HeadKind::Multilabel));
  nd::Spec spec = makePopulation(1, 95).spec;
  const auto mapA = fp.predictIOOnly(spec);
  spec = fx.spec;
  EXPECT_EQ(fp.predictIOOnly(spec), fp.clone()->predictIOOnly(spec));
  EXPECT_NE(fp.predictIOOnly(spec), mapA);
}

TEST(PrefixCaches, WeightUpdateDropsStaleEncodings) {
  // Every inference cache derives from the weights. After an optimizer
  // step (as RankTrainer::train takes between its per-epoch accuracy
  // checks) the model must grade like a fresh clone with the new weights,
  // not from encodings memoized under the old ones.
  nf::NnffModel model(smallConfig(nf::HeadKind::Classifier));
  const auto fx = makePopulation(8, 96);
  (void)predictAll(model, fx);
  netsyn::nn::Adam adam(model.params(), 1e-2f);
  for (const auto& p : model.params().params()) p->grad().fill(0.5f);
  adam.step();
  expectSameLogits(predictAll(model, fx), predictAll(*model.clone(), fx));
}

TEST(PrefixCaches, LoadParamsDropsStaleEncodings) {
  nf::NnffModel model(smallConfig(nf::HeadKind::Classifier));
  auto other = smallConfig(nf::HeadKind::Classifier);
  other.seed = 8;
  const nf::NnffModel donor(other);
  const std::string path =
      ::testing::TempDir() + "prefix_caches_load_params.bin";
  donor.save(path);

  const auto fx = makePopulation(8, 97);
  (void)predictAll(model, fx);
  model.load(path);
  expectSameLogits(predictAll(model, fx), predictAll(donor, fx));
  std::remove(path.c_str());
}

// ------------------------------------------------ ProbMap cache fix --------

TEST(ProbMapCache, InvalidatesWhenSpecContentsChangeAtSameAddress) {
  auto model =
      std::make_shared<nf::NnffModel>(smallConfig(nf::HeadKind::Multilabel));
  nf::ProbMapFitness fit(model);
  nf::ProbMapFitness fresh(model);

  Rng rng(31);
  const nd::Generator gen;
  const auto tcA = gen.randomTestCase(5, 4, false, rng);
  const auto tcB = gen.randomTestCase(5, 4, true, rng);
  ASSERT_TRUE(tcA.has_value() && tcB.has_value());

  // One spec object whose contents are replaced in place: the address stays
  // the same, so an address-keyed cache would serve map A for spec B.
  nd::Spec spec = tcA->spec;
  const auto mapA = fit.probMap(spec);
  spec = tcB->spec;
  const auto mapB = fit.probMap(spec);
  const auto mapBFresh = fresh.probMap(spec);
  for (std::size_t j = 0; j < mapB.size(); ++j)
    EXPECT_EQ(mapB[j], mapBFresh[j]) << "stale cached map at op " << j;
  // And the two specs genuinely disagree somewhere (guards the test).
  bool anyDiff = false;
  for (std::size_t j = 0; j < mapA.size(); ++j)
    if (mapA[j] != mapB[j]) anyDiff = true;
  EXPECT_TRUE(anyDiff);
}

TEST(SpecFingerprint, DistinguishesContentsAndIgnoresAddress) {
  Rng rng(32);
  const nd::Generator gen;
  const auto tcA = gen.randomTestCase(4, 3, false, rng);
  const auto tcB = gen.randomTestCase(4, 3, false, rng);
  ASSERT_TRUE(tcA.has_value() && tcB.has_value());
  const nd::Spec copy = tcA->spec;  // different address, same contents
  EXPECT_EQ(tcA->spec.fingerprint(), copy.fingerprint());
  EXPECT_NE(tcA->spec.fingerprint(), tcB->spec.fingerprint());
}

// ------------------------------------------------ evaluator batching -------

TEST(EvaluateBatch, ChargesDistinctCandidatesOnce) {
  Rng rng(41);
  const nd::Generator gen;
  const auto tc = gen.randomTestCase(4, 3, false, rng);
  ASSERT_TRUE(tc.has_value());
  const nd::InputSignature sig = tc->spec.signature();

  std::vector<nd::Program> genes;
  for (std::size_t i = 0; i < 3; ++i)
    genes.push_back(*gen.randomProgram(4, sig, rng));

  nc::SearchBudget budget(100);
  nc::SpecEvaluator ev(tc->spec, budget);
  // a, b, a, c, b: three distinct candidates -> three budget units.
  const std::vector<const nd::Program*> batch = {&genes[0], &genes[1],
                                                 &genes[0], &genes[2],
                                                 &genes[1]};
  const auto evs = ev.evaluateBatch(batch, /*stopOnSatisfied=*/false);
  ASSERT_EQ(evs.size(), 5u);
  for (const auto& e : evs) EXPECT_TRUE(e.has_value());
  EXPECT_EQ(budget.used(), 3u);
}

TEST(EvaluateBatch, StopsAtFirstSatisfyingCandidate) {
  Rng rng(42);
  const nd::Generator gen;
  const auto tc = gen.randomTestCase(4, 3, false, rng);
  ASSERT_TRUE(tc.has_value());
  const nd::InputSignature sig = tc->spec.signature();
  const nd::Program decoy = *gen.randomProgram(4, sig, rng);

  nc::SearchBudget budget(100);
  nc::SpecEvaluator ev(tc->spec, budget);
  const std::vector<const nd::Program*> batch = {&decoy, &tc->program,
                                                 &decoy};
  const auto evs = ev.evaluateBatch(batch);
  ASSERT_TRUE(evs[1].has_value());
  EXPECT_TRUE(evs[1]->satisfied);
  EXPECT_FALSE(evs[2].has_value());  // after the solution: not examined
  EXPECT_EQ(budget.used(), 2u);
}

TEST(EvaluateBatch, ExhaustionLeavesRemainingUnexamined) {
  Rng rng(43);
  const nd::Generator gen;
  const auto tc = gen.randomTestCase(4, 3, false, rng);
  ASSERT_TRUE(tc.has_value());
  const nd::InputSignature sig = tc->spec.signature();
  std::vector<nd::Program> genes;
  for (std::size_t i = 0; i < 4; ++i)
    genes.push_back(*gen.randomProgram(4, sig, rng));

  nc::SearchBudget budget(2);
  nc::SpecEvaluator ev(tc->spec, budget);
  std::vector<const nd::Program*> batch;
  for (const auto& g : genes) batch.push_back(&g);
  const auto evs = ev.evaluateBatch(batch, /*stopOnSatisfied=*/false);
  EXPECT_TRUE(evs[0].has_value());
  EXPECT_TRUE(evs[1].has_value());
  EXPECT_FALSE(evs[2].has_value());
  EXPECT_FALSE(evs[3].has_value());
  EXPECT_EQ(budget.used(), 2u);
}

TEST(ProgramIdKey, IsExactAndWidthSafe) {
  const nd::Program a(std::vector<nd::FuncId>{1, 2});
  const nd::Program b(std::vector<nd::FuncId>{2, 1});
  const nd::Program c(std::vector<nd::FuncId>{1});
  const nd::Program d(std::vector<nd::FuncId>{1, 2});
  EXPECT_NE(a.idKey(), b.idKey());
  EXPECT_NE(a.idKey(), c.idKey());
  EXPECT_EQ(a.idKey(), d.idKey());
  EXPECT_EQ(a.idKey().size(), 2 * sizeof(nd::FuncId));
}

// ------------------------------------------- whole-synthesizer parity ------

namespace {

void expectSameResult(const nc::SynthesisResult& a,
                      const nc::SynthesisResult& b) {
  EXPECT_EQ(a.found, b.found);
  if (a.found && b.found) {
    EXPECT_EQ(a.solution, b.solution);
  }
  EXPECT_EQ(a.candidatesSearched, b.candidatesSearched);
  EXPECT_EQ(a.generations, b.generations);
  EXPECT_EQ(a.nsInvocations, b.nsInvocations);
  EXPECT_EQ(a.foundByNs, b.foundByNs);
  EXPECT_DOUBLE_EQ(a.bestFitness, b.bestFitness);
}

nc::SynthesisResult runOnce(const nd::Spec& spec, nf::FitnessPtr fit,
                            nc::NsKind nsKind, std::uint64_t seed) {
  nc::SynthesizerConfig sc;
  sc.ga.populationSize = 20;
  sc.ga.eliteCount = 3;
  sc.maxGenerations = 60;
  sc.nsWindow = 5;
  sc.nsTopN = 2;
  sc.nsKind = nsKind;
  const nc::Synthesizer syn(sc, std::move(fit));
  Rng rng(seed);
  return syn.synthesize(spec, 5, 1500, rng);
}

/// Forwards every call to the wrapped fitness but exposes no lane sink, so
/// the synthesizer grades it from scalar runs (encodeTrace) instead of lane
/// views (encodeLaneTrace).
class RunBackedFitness final : public nf::FitnessFunction {
 public:
  explicit RunBackedFitness(nf::FitnessPtr inner) : inner_(std::move(inner)) {}
  double score(const nd::Program& gene, const nf::EvalContext& ctx) override {
    return inner_->score(gene, ctx);
  }
  std::vector<double> scoreBatch(
      const std::vector<const nd::Program*>& genes,
      const std::vector<const nf::EvalContext*>& contexts) override {
    return inner_->scoreBatch(genes, contexts);
  }
  double maxScore(std::size_t targetLength) const override {
    return inner_->maxScore(targetLength);
  }
  std::string name() const override { return inner_->name(); }

 private:
  nf::FitnessPtr inner_;
};

}  // namespace

TEST(SynthesizerParity, LaneAndScatterGradingSearchIdentically) {
  auto model =
      std::make_shared<nf::NnffModel>(smallConfig(nf::HeadKind::Classifier));
  Rng rng(51);
  const nd::Generator gen;
  const auto tc = gen.randomTestCase(5, 4, false, rng);
  ASSERT_TRUE(tc.has_value());
  for (const auto nsKind : {nc::NsKind::BFS, nc::NsKind::DFS}) {
    const auto lanes =
        runOnce(tc->spec, std::make_shared<nf::NeuralFitness>(model, "NN_CF"),
                nsKind, 99);
    const auto scatter = runOnce(
        tc->spec,
        std::make_shared<RunBackedFitness>(
            std::make_shared<nf::NeuralFitness>(model, "NN_CF")),
        nsKind, 99);
    expectSameResult(lanes, scatter);
  }
}

TEST(SynthesizerParity, GradingThreadsDoNotChangeTheSearch) {
  auto model =
      std::make_shared<nf::NnffModel>(smallConfig(nf::HeadKind::Classifier));
  Rng rng(53);
  const nd::Generator gen;
  const auto tc = gen.randomTestCase(5, 4, false, rng);
  ASSERT_TRUE(tc.has_value());
  const auto search = [&](std::size_t threads) {
    return runOnce(tc->spec,
                   std::make_shared<nf::NeuralFitness>(model->clone(),
                                                       "NN_CF", threads),
                   nc::NsKind::BFS, 98);
  };
  const auto serial = search(1);
  expectSameResult(search(3), serial);
}
