// Layer tests: shapes, gradient flow through LSTM, end-to-end learning on
// toy problems, optimizer behaviour, and serialization round-trips.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "nn/layers.hpp"
#include "nn/optim.hpp"
#include "nn/serialize.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace nn = netsyn::nn;
using netsyn::util::Rng;

TEST(Layers, XavierBoundsScaleWithFanInOut) {
  Rng rng(1);
  const auto m = nn::xavierUniform(10, 10, rng);
  const float bound = std::sqrt(6.0f / 20.0f);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::fabs(m.at(i)), bound);
  }
}

TEST(Embedding, LookupReturnsTableRow) {
  Rng rng(2);
  nn::ParamStore store;
  nn::Embedding emb(5, 3, store, rng);
  const auto v = emb.lookup(2);
  EXPECT_EQ(v->value().rows(), 1u);
  EXPECT_EQ(v->value().cols(), 3u);
  EXPECT_EQ(emb.vocab(), 5u);
  EXPECT_EQ(emb.dim(), 3u);
}

TEST(Embedding, GradientFlowsOnlyToLookedUpRows) {
  Rng rng(3);
  nn::ParamStore store;
  nn::Embedding emb(4, 2, store, rng);
  auto loss = nn::meanAll(emb.lookup(1));
  store.zeroGrad();
  nn::backward(loss);
  const auto& table = store.params()[0];
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      if (r == 1) EXPECT_NE(table->grad()(r, c), 0.0f);
      else EXPECT_EQ(table->grad()(r, c), 0.0f);
    }
  }
}

TEST(Linear, OutputShapeAndAffine) {
  Rng rng(4);
  nn::ParamStore store;
  nn::Linear lin(3, 2, store, rng);
  auto y = lin.forward(nn::constant(nn::Matrix(1, 3, 1.0f)));
  EXPECT_EQ(y->value().rows(), 1u);
  EXPECT_EQ(y->value().cols(), 2u);
}

TEST(Lstm, StepAndEncodeShapes) {
  Rng rng(5);
  nn::ParamStore store;
  nn::Lstm lstm(4, 6, store, rng);
  auto st = lstm.initialState();  // packed [h | c]
  EXPECT_EQ(st->value().cols(), 12u);
  st = lstm.step(nn::constant(nn::Matrix(1, 4, 0.5f)), st);
  EXPECT_EQ(st->value().rows(), 1u);
  EXPECT_EQ(st->value().cols(), 12u);
  EXPECT_THROW(lstm.step(nn::constant(nn::Matrix(1, 5, 0.5f)), st),
               std::invalid_argument);
  EXPECT_THROW(lstm.step(nn::constant(nn::Matrix(2, 4, 0.5f)), st),
               std::invalid_argument);

  std::vector<nn::Var> seq;
  for (int i = 0; i < 5; ++i) seq.push_back(nn::constant(nn::Matrix(1, 4, 0.1f * float(i))));
  auto h = lstm.encode(seq);
  EXPECT_EQ(h->value().cols(), 6u);
}

TEST(Lstm, EmptySequenceEncodesToZero) {
  Rng rng(6);
  nn::ParamStore store;
  nn::Lstm lstm(4, 3, store, rng);
  const auto h = lstm.encode({});
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(h->value().at(i), 0.0f);
}

TEST(Lstm, HiddenStateIsBounded) {
  // h = o * tanh(c): |h| <= 1 elementwise regardless of inputs.
  Rng rng(7);
  nn::ParamStore store;
  nn::Lstm lstm(2, 4, store, rng);
  std::vector<nn::Var> seq;
  for (int i = 0; i < 20; ++i)
    seq.push_back(nn::constant(nn::Matrix(1, 2, 100.0f)));
  const auto h = lstm.encode(seq);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_LE(std::fabs(h->value().at(i)), 1.0f);
}

TEST(Lstm, ForgetBiasInitializedToOne) {
  Rng rng(8);
  nn::ParamStore store;
  nn::Lstm lstm(2, 3, store, rng);
  // Parameter order: wx, wh, b. Forget slice of b is [H, 2H).
  const auto& b = store.params()[2];
  for (std::size_t j = 3; j < 6; ++j) EXPECT_EQ(b->value().at(j), 1.0f);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(b->value().at(j), 0.0f);
}

TEST(Lstm, GradientsReachAllParameters) {
  Rng rng(9);
  nn::ParamStore store;
  nn::Lstm lstm(3, 4, store, rng);
  std::vector<nn::Var> seq = {nn::constant(nn::Matrix(1, 3, 0.7f)),
                              nn::constant(nn::Matrix(1, 3, -0.2f))};
  store.zeroGrad();
  nn::backward(nn::meanAll(lstm.encode(seq)));
  for (const auto& p : store.params()) {
    float absum = 0.0f;
    for (std::size_t i = 0; i < p->grad().size(); ++i)
      absum += std::fabs(p->grad().at(i));
    EXPECT_GT(absum, 0.0f);
  }
}

// ------------------------------------------------------- learning ---------

TEST(Learning, LinearRegressionConvergesWithSgd) {
  // Fit y = 2x - 1 with a 1->1 linear layer.
  Rng rng(10);
  nn::ParamStore store;
  nn::Linear lin(1, 1, store, rng);
  nn::Sgd opt(store, 0.05f);
  float loss_val = 0;
  for (int step = 0; step < 400; ++step) {
    store.zeroGrad();
    const float x = static_cast<float>(rng.uniformReal(-1, 1));
    nn::Matrix target(1, 1, 2.0f * x - 1.0f);
    auto loss = nn::mseLoss(lin.forward(nn::constant(nn::Matrix(1, 1, x))),
                            target);
    nn::backward(loss);
    opt.step();
    loss_val = loss->scalar();
  }
  EXPECT_LT(loss_val, 1e-2f);
}

TEST(Learning, XorWithAdamAndHiddenLayer) {
  Rng rng(11);
  nn::ParamStore store;
  nn::Linear l1(2, 8, store, rng);
  nn::Linear l2(8, 2, store, rng);
  nn::Adam opt(store, 0.02f);
  const float xs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const std::size_t ys[4] = {0, 1, 1, 0};
  for (int epoch = 0; epoch < 300; ++epoch) {
    store.zeroGrad();
    nn::Var total = nn::constant(nn::Matrix(1, 1, 0.0f));
    for (int k = 0; k < 4; ++k) {
      nn::Matrix in(1, 2);
      in.at(0) = xs[k][0];
      in.at(1) = xs[k][1];
      auto h = nn::tanhOp(l1.forward(nn::constant(in)));
      total = nn::add(total, nn::softmaxCrossEntropy(l2.forward(h), ys[k]));
    }
    nn::backward(total);
    opt.step();
  }
  int correct = 0;
  for (int k = 0; k < 4; ++k) {
    nn::Matrix in(1, 2);
    in.at(0) = xs[k][0];
    in.at(1) = xs[k][1];
    auto h = nn::tanhOp(l1.forward(nn::constant(in)));
    const auto probs = nn::softmaxValue(l2.forward(h)->value());
    const std::size_t pred = probs.at(0) > probs.at(1) ? 0 : 1;
    correct += (pred == ys[k]) ? 1 : 0;
  }
  EXPECT_EQ(correct, 4);
}

TEST(Learning, LstmLearnsLastTokenClass) {
  // Sequence of 2-dim one-hots; label = class of the last token. An LSTM
  // plus linear head should learn this quickly.
  Rng rng(12);
  nn::ParamStore store;
  nn::Lstm lstm(2, 8, store, rng);
  nn::Linear head(8, 2, store, rng);
  nn::Adam opt(store, 0.02f);
  Rng data(13);
  for (int step = 0; step < 250; ++step) {
    store.zeroGrad();
    std::vector<nn::Var> seq;
    std::size_t label = 0;
    const int len = 2 + int(data.uniform(4));
    for (int t = 0; t < len; ++t) {
      const std::size_t cls = data.uniform(2);
      nn::Matrix x(1, 2, 0.0f);
      x.at(cls) = 1.0f;
      seq.push_back(nn::constant(x));
      label = cls;
    }
    auto loss = nn::softmaxCrossEntropy(head.forward(lstm.encode(seq)), label);
    nn::backward(loss);
    opt.step();
  }
  int correct = 0;
  const int trials = 50;
  for (int k = 0; k < trials; ++k) {
    std::vector<nn::Var> seq;
    std::size_t label = 0;
    const int len = 2 + int(data.uniform(4));
    for (int t = 0; t < len; ++t) {
      const std::size_t cls = data.uniform(2);
      nn::Matrix x(1, 2, 0.0f);
      x.at(cls) = 1.0f;
      seq.push_back(nn::constant(x));
      label = cls;
    }
    const auto probs =
        nn::softmaxValue(head.forward(lstm.encode(seq))->value());
    const std::size_t pred = probs.at(0) > probs.at(1) ? 0 : 1;
    correct += (pred == label) ? 1 : 0;
  }
  EXPECT_GE(correct, 45);
}

// ------------------------------------------------------ optimizers --------

TEST(Optim, SgdMovesAgainstGradient) {
  nn::ParamStore store;
  auto p = store.make(nn::Matrix(1, 1, 5.0f));
  p->grad().at(0) = 2.0f;
  nn::Sgd opt(store, 0.1f);
  opt.step();
  EXPECT_NEAR(p->value().at(0), 4.8f, 1e-6f);
}

TEST(Optim, SgdMomentumAccumulates) {
  nn::ParamStore store;
  auto p = store.make(nn::Matrix(1, 1, 0.0f));
  nn::Sgd opt(store, 1.0f, 0.9f);
  p->grad().at(0) = 1.0f;
  opt.step();  // v=1, x=-1
  opt.step();  // v=1.9, x=-2.9
  EXPECT_NEAR(p->value().at(0), -2.9f, 1e-5f);
}

TEST(Optim, AdamFirstStepIsLearningRateSized) {
  nn::ParamStore store;
  auto p = store.make(nn::Matrix(1, 1, 1.0f));
  p->grad().at(0) = 123.0f;  // bias correction makes step ~lr regardless
  nn::Adam opt(store, 0.01f);
  opt.step();
  EXPECT_NEAR(p->value().at(0), 1.0f - 0.01f, 1e-4f);
}

TEST(Optim, AdamMinimizesQuadratic) {
  nn::ParamStore store;
  auto p = store.make(nn::Matrix(1, 1, 4.0f));
  nn::Adam opt(store, 0.1f);
  for (int i = 0; i < 300; ++i) {
    store.zeroGrad();
    auto loss = nn::mseLoss(p, nn::Matrix(1, 1, 1.5f));
    nn::backward(loss);
    opt.step();
  }
  EXPECT_NEAR(p->value().at(0), 1.5f, 1e-2f);
}

// Golden bits of the parameters and both moment estimates after three Adam
// steps on fixed inputs. Each update is a sum of products; a build that
// fuses one into a multiply-add (FMA codegen with contraction on, e.g.
// -march=native) rounds once where this one rounds twice and fails here.
TEST(Optim, AdamStepBitsAreBuildIndependent) {
  nn::ParamStore store;
  auto p = store.make(
      nn::Matrix(2, 3, {-0.6f, 0.35f, -0.1f, 0.9f, 0.15f, -1.3f}));
  const float kGrads[3][6] = {{-0.73f, 0.41f, 1.9f, -2.2f, 0.07f, 0.66f},
                              {0.52f, -0.31f, 1.3f, -1.7f, 0.91f, -0.05f},
                              {-0.2f, 0.83f, 0.47f, -0.9f, 1.15f, 0.38f}};
  nn::Adam adam(store, 0.01f);
  for (const auto& grads : kGrads) {
    for (std::size_t i = 0; i < 6; ++i) p->grad().at(i) = grads[i];
    adam.step();
  }
  const std::uint32_t kParams[] = {0xbf162c2au, 0x3eaaaeeau, 0xbe0376b3u,
                                   0x3f6dd74fu, 0x3dfc6b15u, 0xbfa96545u};
  const std::uint32_t kM[] = {0xbd046c79u, 0x3db4dbe2u, 0x3ea2c3ccu,
                              0xbed7a78au, 0x3e4f6e86u, 0x3db21818u};
  const std::uint32_t kV[] = {0x3a5cb68bu, 0x3a79bba2u, 0x3bb49d5bu,
                              0x3c0bb632u, 0x3b0d34c4u, 0x3a1877ceu};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(p->value().at(i)), kParams[i])
        << "param " << i;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(adam.firstMoments()[0].at(i)),
              kM[i])
        << "m " << i;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(adam.secondMoments()[0].at(i)),
              kV[i])
        << "v " << i;
  }
}

// ------------------------------------------- blocked kernel oracles -------

namespace {

/// Floats spread over many binades, with about one in six a signed zero, so
/// that any change to the order of one output's additions shows in its bits.
std::vector<float> spreadFloats(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) {
    const auto kind = rng.uniform(6);
    if (kind == 0) {
      x = rng.bernoulli(0.5) ? 0.0f : -0.0f;
    } else {
      x = std::ldexp(static_cast<float>(rng.uniformReal(-1.0, 1.0)),
                     static_cast<int>(rng.uniformInt(-12, 12)));
    }
  }
  return v;
}

/// out[kk] += sum_j x[j] * B[kk][j], one accumulator, ascending j.
void rowTimesTransposeOneAccumulator(float* out, const float* x,
                                     const float* b, std::size_t k,
                                     std::size_t m) {
  for (std::size_t kk = 0; kk < k; ++kk) {
    float acc = 0.0f;
    for (std::size_t j = 0; j < m; ++j) acc += x[j] * b[kk * m + j];
    out[kk] += acc;
  }
}

void expectSameBits(const std::vector<float>& got,
                    const std::vector<float>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << " " << i;
}

}  // namespace

TEST(Kernels, RowTimesTransposeMatchesOneAccumulatorLoop) {
  Rng rng(61);
  for (std::size_t k : {1, 7, 8, 9, 16, 24, 25}) {
    for (std::size_t m : {1, 5, 96}) {
      SCOPED_TRACE(testing::Message() << "k=" << k << " m=" << m);
      const auto x = spreadFloats(m, rng);
      const auto b = spreadFloats(k * m, rng);
      auto got = spreadFloats(k, rng);
      auto want = got;
      nn::addRowTimesTranspose(got.data(), x.data(), b.data(), k, m);
      rowTimesTransposeOneAccumulator(want.data(), x.data(), b.data(), k, m);
      expectSameBits(got, want, "out");
    }
  }
}

// ---------------------------------------------------- serialization -------

TEST(Serialize, RoundTripRestoresExactValues) {
  Rng rng(14);
  nn::ParamStore a;
  nn::Lstm lstmA(3, 4, a, rng);
  nn::Linear headA(4, 2, a, rng);

  const std::string path =
      (std::filesystem::temp_directory_path() / "netsyn_params_test.bin")
          .string();
  nn::saveParams(a, path);

  Rng rng2(99);  // different init
  nn::ParamStore b;
  nn::Lstm lstmB(3, 4, b, rng2);
  nn::Linear headB(4, 2, b, rng2);
  nn::loadParams(b, path);

  ASSERT_EQ(a.params().size(), b.params().size());
  for (std::size_t i = 0; i < a.params().size(); ++i)
    EXPECT_EQ(a.params()[i]->value(), b.params()[i]->value());
  std::remove(path.c_str());
}

TEST(Serialize, ShapeMismatchThrows) {
  Rng rng(15);
  nn::ParamStore a;
  nn::Linear lin(3, 4, a, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "netsyn_params_shape.bin")
          .string();
  nn::saveParams(a, path);

  nn::ParamStore b;
  nn::Linear lin2(4, 3, b, rng);
  EXPECT_THROW(nn::loadParams(b, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  nn::ParamStore s;
  EXPECT_THROW(nn::loadParams(s, "/nonexistent/netsyn.bin"),
               std::runtime_error);
}

TEST(Serialize, CorruptMagicThrows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "netsyn_bad_magic.bin")
          .string();
  {
    std::ofstream f(path, std::ios::binary);
    f << "JUNKJUNKJUNK";
  }
  nn::ParamStore s;
  EXPECT_THROW(nn::loadParams(s, path), std::runtime_error);
  std::remove(path.c_str());
}
