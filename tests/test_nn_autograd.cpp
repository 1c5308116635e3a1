// Autograd correctness: finite-difference gradient checks for every op,
// graph traversal (diamond sharing, deep chains), and loss values.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/autograd.hpp"
#include "util/rng.hpp"

namespace nn = netsyn::nn;
using netsyn::util::Rng;

namespace {

nn::Matrix randomMatrix(std::size_t r, std::size_t c, Rng& rng,
                        float scale = 1.0f) {
  nn::Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.at(i) = static_cast<float>(rng.uniformReal(-scale, scale));
  return m;
}

/// Checks analytic gradients of `lossOf(inputs)` against central finite
/// differences for every entry of every input.
void checkGradients(
    std::vector<nn::Matrix> inputs,
    const std::function<nn::Var(const std::vector<nn::Var>&)>& lossOf,
    float eps = 1e-3f, float tol = 2e-2f) {
  // Analytic gradients.
  std::vector<nn::Var> vars;
  for (const auto& m : inputs) vars.push_back(nn::parameter(m));
  nn::Var loss = lossOf(vars);
  nn::backward(loss);

  for (std::size_t v = 0; v < inputs.size(); ++v) {
    for (std::size_t i = 0; i < inputs[v].size(); ++i) {
      auto evalAt = [&](float delta) {
        std::vector<nn::Var> shifted;
        for (std::size_t w = 0; w < inputs.size(); ++w) {
          nn::Matrix m = inputs[w];
          if (w == v) m.at(i) += delta;
          shifted.push_back(nn::parameter(m));
        }
        return lossOf(shifted)->scalar();
      };
      const float numeric = (evalAt(eps) - evalAt(-eps)) / (2.0f * eps);
      const float analytic = vars[v]->grad().at(i);
      const float denom = std::max({1.0f, std::fabs(numeric),
                                    std::fabs(analytic)});
      EXPECT_NEAR(analytic / denom, numeric / denom, tol)
          << "input " << v << " entry " << i;
    }
  }
}

}  // namespace

TEST(Autograd, AddGradient) {
  Rng rng(1);
  checkGradients({randomMatrix(1, 4, rng), randomMatrix(1, 4, rng)},
                 [](const std::vector<nn::Var>& v) {
                   return nn::meanAll(nn::add(v[0], v[1]));
                 });
}

TEST(Autograd, SubGradient) {
  Rng rng(2);
  checkGradients({randomMatrix(1, 4, rng), randomMatrix(1, 4, rng)},
                 [](const std::vector<nn::Var>& v) {
                   return nn::meanAll(nn::sub(v[0], v[1]));
                 });
}

TEST(Autograd, MulElemGradient) {
  Rng rng(3);
  checkGradients({randomMatrix(1, 5, rng), randomMatrix(1, 5, rng)},
                 [](const std::vector<nn::Var>& v) {
                   return nn::meanAll(nn::mulElem(v[0], v[1]));
                 });
}

TEST(Autograd, ScaleGradient) {
  Rng rng(4);
  checkGradients({randomMatrix(2, 3, rng)},
                 [](const std::vector<nn::Var>& v) {
                   return nn::meanAll(nn::scale(v[0], -2.5f));
                 });
}

TEST(Autograd, AffineGradient) {
  // Three rows of x over one broadcast base: the base's gradient sums every
  // row's, W's sums the rows' outer products.
  Rng rng(5);
  checkGradients(
      {randomMatrix(3, 4, rng), randomMatrix(4, 5, rng),
       randomMatrix(1, 5, rng)},
      [](const std::vector<nn::Var>& v) {
        const nn::Var y = nn::affine(v[0], v[1], v[2]);
        return nn::meanAll(nn::mulElem(y, y));
      });
}

TEST(Autograd, AffineOnZeroBaseGradient) {
  Rng rng(5);
  checkGradients({randomMatrix(2, 3, rng), randomMatrix(3, 4, rng)},
                 [](const std::vector<nn::Var>& v) {
                   return nn::meanAll(nn::affine(
                       v[0], v[1], nn::constant(nn::Matrix(1, 4, 0.0f))));
                 });
}

TEST(Autograd, AffineChainGradient) {
  Rng rng(6);
  checkGradients(
      {randomMatrix(1, 3, rng), randomMatrix(3, 3, rng),
       randomMatrix(3, 2, rng)},
      [](const std::vector<nn::Var>& v) {
        const nn::Var zero3 = nn::constant(nn::Matrix(1, 3, 0.0f));
        const nn::Var zero2 = nn::constant(nn::Matrix(1, 2, 0.0f));
        return nn::meanAll(
            nn::affine(nn::affine(v[0], v[1], zero3), v[2], zero2));
      });
}

TEST(Autograd, AffineStartsEachRowAtTheBase) {
  // Each row is base + x[i] * W, the base first and the products added in
  // ascending input order, zero inputs skipped: the inference kernels'
  // order (see addRowTimesMatrix).
  Rng rng(8);
  const nn::Matrix x = randomMatrix(3, 6, rng);
  const nn::Matrix w = randomMatrix(6, 5, rng);
  const nn::Matrix b = randomMatrix(1, 5, rng);
  nn::Matrix xz = x;
  xz(1, 2) = 0.0f;
  xz(2, 0) = -0.0f;
  const nn::Var y =
      nn::affine(nn::constant(xz), nn::constant(w), nn::constant(b));
  ASSERT_EQ(y->value().rows(), 3u);
  ASSERT_EQ(y->value().cols(), 5u);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 5; ++j) {
      float want = b.at(j);
      for (std::size_t k = 0; k < 6; ++k)
        if (xz(i, k) != 0.0f) want += xz(i, k) * w(k, j);
      EXPECT_EQ(y->value()(i, j), want) << i << "," << j;
    }
}

TEST(Autograd, TanhGradient) {
  Rng rng(7);
  checkGradients({randomMatrix(1, 6, rng, 2.0f)},
                 [](const std::vector<nn::Var>& v) {
                   return nn::meanAll(nn::tanhOp(v[0]));
                 });
}

TEST(Autograd, SigmoidGradient) {
  Rng rng(8);
  checkGradients({randomMatrix(1, 6, rng, 3.0f)},
                 [](const std::vector<nn::Var>& v) {
                   return nn::meanAll(nn::sigmoidOp(v[0]));
                 });
}

TEST(Autograd, ReluGradient) {
  Rng rng(9);
  // Keep entries away from the kink at 0 for finite differences.
  nn::Matrix m = randomMatrix(1, 8, rng, 2.0f);
  for (std::size_t i = 0; i < m.size(); ++i)
    if (std::fabs(m.at(i)) < 0.05f) m.at(i) = 0.5f;
  checkGradients({m}, [](const std::vector<nn::Var>& v) {
    return nn::meanAll(nn::reluOp(v[0]));
  });
}

TEST(Autograd, ConcatColsGradient) {
  Rng rng(10);
  checkGradients({randomMatrix(1, 3, rng), randomMatrix(1, 4, rng)},
                 [](const std::vector<nn::Var>& v) {
                   return nn::meanAll(
                       nn::mulElem(nn::concatCols(v[0], v[1]),
                                   nn::concatCols(v[0], v[1])));
                 });
}

TEST(Autograd, SliceColsGradient) {
  Rng rng(11);
  checkGradients({randomMatrix(1, 6, rng)},
                 [](const std::vector<nn::Var>& v) {
                   return nn::meanAll(nn::mulElem(nn::sliceCols(v[0], 1, 3),
                                                  nn::sliceCols(v[0], 2, 3)));
                 });
}

TEST(Autograd, SelectRowGradient) {
  Rng rng(12);
  checkGradients({randomMatrix(4, 3, rng)},
                 [](const std::vector<nn::Var>& v) {
                   const auto r1 = nn::selectRow(v[0], 1);
                   const auto r3 = nn::selectRow(v[0], 3);
                   return nn::meanAll(nn::mulElem(r1, r3));
                 });
}

TEST(Autograd, SoftmaxCrossEntropyGradient) {
  Rng rng(13);
  checkGradients({randomMatrix(1, 5, rng, 2.0f)},
                 [](const std::vector<nn::Var>& v) {
                   return nn::softmaxCrossEntropy(v[0], 2);
                 });
}

TEST(Autograd, BceWithLogitsGradient) {
  Rng rng(14);
  nn::Matrix targets(1, 5);
  for (std::size_t i = 0; i < 5; ++i) targets.at(i) = (i % 2) ? 1.0f : 0.0f;
  checkGradients({randomMatrix(1, 5, rng, 2.0f)},
                 [targets](const std::vector<nn::Var>& v) {
                   return nn::bceWithLogits(v[0], targets);
                 });
}

TEST(Autograd, MseLossGradient) {
  Rng rng(15);
  nn::Matrix target(1, 3);
  target.at(0) = 1.0f;
  target.at(1) = -2.0f;
  target.at(2) = 0.5f;
  checkGradients({randomMatrix(1, 3, rng)},
                 [target](const std::vector<nn::Var>& v) {
                   return nn::mseLoss(v[0], target);
                 });
}

TEST(Autograd, DiamondGraphAccumulatesBothPaths) {
  // y = mean(x + x): dy/dx = 2/n through two paths sharing one node.
  nn::Matrix m(1, 4, 1.0f);
  auto x = nn::parameter(m);
  auto loss = nn::meanAll(nn::add(x, x));
  nn::backward(loss);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(x->grad().at(i), 2.0f / 4.0f, 1e-6f);
}

TEST(Autograd, SharedSubgraphVisitedOnce) {
  // If the shared node's backfn ran twice the gradient would be doubled.
  nn::Matrix m(1, 2, 2.0f);
  auto x = nn::parameter(m);
  auto t = nn::tanhOp(x);
  auto loss = nn::meanAll(nn::mulElem(t, t));
  nn::backward(loss);
  // d/dx mean(tanh(x)^2) = 2*tanh(x)*(1-tanh(x)^2)/n.
  const float th = std::tanh(2.0f);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_NEAR(x->grad().at(i), 2.0f * th * (1 - th * th) / 2.0f, 1e-5f);
}

TEST(Autograd, LaterBackwardSweepsAnInteriorNodeAgain) {
  // backward() marks interior nodes while it sorts them; the marks must be
  // cleared, or a later sweep through an already swept node would skip it.
  auto x = nn::parameter(nn::Matrix(1, 2, 0.5f));
  auto h = nn::scale(x, 2.0f);  // interior node shared by both losses
  nn::backward(nn::meanAll(h));
  EXPECT_EQ(x->grad().at(0), 1.0f);
  x->grad().fill(0.0f);
  nn::backward(nn::meanAll(nn::scale(h, 3.0f)));
  // h's gradient accumulates: 1/2 from the first sweep + 3/2 now.
  EXPECT_EQ(x->grad().at(0), 4.0f);
}

TEST(Autograd, DeepChainDoesNotOverflowStack) {
  // 20k-node chain exercises the iterative topological sort.
  auto x = nn::parameter(nn::Matrix(1, 1, 0.01f));
  nn::Var y = x;
  for (int i = 0; i < 20000; ++i) y = nn::scale(y, 1.0f);
  nn::backward(nn::meanAll(y));
  EXPECT_NEAR(x->grad().at(0), 1.0f, 1e-4f);
}

TEST(Autograd, BackwardRequiresScalarRoot) {
  auto x = nn::parameter(nn::Matrix(1, 3, 1.0f));
  EXPECT_THROW(nn::backward(x), std::invalid_argument);
}

TEST(Autograd, ShapeMismatchesThrow) {
  auto a = nn::parameter(nn::Matrix(1, 3, 1.0f));
  auto b = nn::parameter(nn::Matrix(1, 4, 1.0f));
  EXPECT_THROW(nn::add(a, b), std::invalid_argument);
  EXPECT_THROW(nn::mulElem(a, b), std::invalid_argument);
  EXPECT_THROW(nn::affine(a, b, b), std::invalid_argument);
  EXPECT_THROW(nn::affine(a, nn::parameter(nn::Matrix(3, 4, 1.0f)), a),
               std::invalid_argument);
  EXPECT_THROW(nn::sliceCols(a, 2, 5), std::invalid_argument);
  EXPECT_THROW(nn::selectRow(a, 1), std::invalid_argument);
  EXPECT_THROW(nn::softmaxCrossEntropy(a, 3), std::invalid_argument);
}

TEST(Autograd, SoftmaxCrossEntropyValue) {
  // Uniform logits over C classes -> loss = log(C).
  auto logits = nn::constant(nn::Matrix(1, 4, 0.0f));
  auto loss = nn::softmaxCrossEntropy(logits, 1);
  EXPECT_NEAR(loss->scalar(), std::log(4.0f), 1e-5f);
}

TEST(Autograd, BceWithLogitsValueAtZeroLogits) {
  nn::Matrix targets(1, 2);
  targets.at(0) = 0.0f;
  targets.at(1) = 1.0f;
  auto logits = nn::constant(nn::Matrix(1, 2, 0.0f));
  // sigmoid(0)=0.5 -> BCE = -log(0.5) for both entries.
  EXPECT_NEAR(nn::bceWithLogits(logits, targets)->scalar(), std::log(2.0f),
              1e-5f);
}

TEST(Autograd, BceWithLogitsStableForLargeLogits) {
  nn::Matrix targets(1, 2, 1.0f);
  nn::Matrix big(1, 2);
  big.at(0) = 80.0f;
  big.at(1) = -80.0f;
  auto loss = nn::bceWithLogits(nn::constant(big), targets);
  EXPECT_TRUE(std::isfinite(loss->scalar()));
  EXPECT_NEAR(loss->scalar(), 40.0f, 1.0f);  // (0 + 80)/2
}

TEST(Autograd, SoftmaxValueSumsToOne) {
  nn::Matrix logits(1, 5);
  for (std::size_t i = 0; i < 5; ++i) logits.at(i) = float(i) * 10.0f;
  const auto p = nn::softmaxValue(logits);
  float sum = 0;
  for (std::size_t i = 0; i < 5; ++i) sum += p.at(i);
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
  EXPECT_GT(p.at(4), 0.99f);
}

TEST(ParamStore, ZeroGradAndNorms) {
  nn::ParamStore store;
  auto p = store.make(nn::Matrix(2, 2, 1.0f));
  p->grad().fill(3.0f);
  EXPECT_NEAR(store.gradNorm(), 6.0f, 1e-5f);  // sqrt(4*9)
  store.clipGradNorm(3.0f);
  EXPECT_NEAR(store.gradNorm(), 3.0f, 1e-4f);
  store.zeroGrad();
  EXPECT_NEAR(store.gradNorm(), 0.0f, 1e-6f);
  EXPECT_EQ(store.totalParameters(), 4u);
}
