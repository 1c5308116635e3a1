// The fused LSTM cell (Lstm::step, one tape node per timestep) against its
// oracle: the same timestep composed from the primitive autograd ops,
// z = affine(h, Wh, affine(x, Wx, b)) and one op per gate. Forward values,
// every parameter's gradient, and the weights after Adam steps must agree
// bit for bit, so training through the cell reproduces the op-by-op tape
// exactly.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "nn/layers.hpp"
#include "nn/optim.hpp"
#include "util/rng.hpp"

namespace nn = netsyn::nn;
using netsyn::util::Rng;

namespace {

constexpr std::size_t kVocab = 6;
constexpr std::size_t kEmbed = 4;
constexpr std::size_t kZeroToken = 0;  // its embedding row is all zeros

/// An LSTM's parameters as tape leaves, for the reference composition.
struct RefParams {
  nn::Var wx, wh, b;
  std::size_t hd;
};

struct RefState {
  nn::Var h, c;
};

/// One timestep from the primitive ops: the oracle of the fused cell.
RefState referenceStep(const RefParams& p, const nn::Var& x,
                       const RefState& s) {
  const std::size_t H = p.hd;
  const nn::Var z = nn::affine(s.h, p.wh, nn::affine(x, p.wx, p.b));
  const nn::Var i = nn::sigmoidOp(nn::sliceCols(z, 0, H));
  const nn::Var f = nn::sigmoidOp(nn::sliceCols(z, H, H));
  const nn::Var g = nn::tanhOp(nn::sliceCols(z, 2 * H, H));
  const nn::Var o = nn::sigmoidOp(nn::sliceCols(z, 3 * H, H));
  const nn::Var c = nn::add(nn::mulElem(f, s.c), nn::mulElem(i, g));
  const nn::Var h = nn::mulElem(o, nn::tanhOp(c));
  return RefState{h, c};
}

std::vector<nn::Var> referenceEncodeAll(const RefParams& p,
                                        const std::vector<nn::Var>& xs) {
  RefState s{nn::constant(nn::Matrix(1, p.hd, 0.0f)),
             nn::constant(nn::Matrix(1, p.hd, 0.0f))};
  std::vector<nn::Var> hs;
  for (const nn::Var& x : xs) {
    s = referenceStep(p, x, s);
    hs.push_back(s.h);
  }
  return hs;
}

nn::Var referenceEncode(const RefParams& p, const std::vector<nn::Var>& xs) {
  const auto hs = referenceEncodeAll(p, xs);
  return hs.empty() ? nn::constant(nn::Matrix(1, p.hd, 0.0f)) : hs.back();
}

/// Embedding -> LSTM 1 -> LSTM 2 (the combiner shape of the fitness
/// models). Two instances built from the same seed have equal weights.
struct Model {
  nn::ParamStore store;
  nn::Embedding emb;
  nn::Lstm l1;
  nn::Lstm l2;

  Model(std::size_t hd, std::uint64_t seed)
      : Model(hd, Rng(seed)) {}

  /// Store order: embedding table, then l1's (Wx, Wh, b), then l2's.
  RefParams ref1() const { return ref(1); }
  RefParams ref2() const { return ref(4); }

  std::vector<nn::Var> embed(const std::vector<std::size_t>& tokens) const {
    std::vector<nn::Var> xs;
    for (std::size_t t : tokens) xs.push_back(emb.lookup(t));
    return xs;
  }

 private:
  RefParams ref(std::size_t first) const {
    const auto& ps = store.params();
    return RefParams{ps[first], ps[first + 1], ps[first + 2], l1.hiddenDim()};
  }

  Model(std::size_t hd, Rng rng)
      : emb(kVocab, kEmbed, store, rng),
        l1(kEmbed, hd, store, rng),
        l2(hd, hd, store, rng) {
    nn::Matrix& t = store.params()[0]->value();
    for (std::size_t j = 0; j < kEmbed; ++j) t(kZeroToken, j) = 0.0f;
  }
};

std::vector<std::size_t> tokensOfLength(std::size_t n, Rng& rng) {
  std::vector<std::size_t> tokens;
  for (std::size_t k = 0; k < n; ++k)
    tokens.push_back(static_cast<std::size_t>(rng.uniformInt(0, kVocab - 1)));
  // All-zero inputs: a zero x on the first step keeps h exactly zero, which
  // exercises the zero-skips of the h * Wh product and of Wh's gradient.
  if (n > 0) tokens[0] = kZeroToken;
  if (n > 3) tokens[3] = kZeroToken;
  return tokens;
}

nn::Matrix randomRow(std::size_t n, Rng& rng) {
  nn::Matrix m(1, n);
  for (std::size_t i = 0; i < n; ++i)
    m.at(i) = static_cast<float>(rng.uniformReal(-1.0, 1.0));
  return m;
}

/// Weighted mean of h, so every hidden unit carries its own gradient.
nn::Var lossOn(const nn::Var& h, const nn::Matrix& weights) {
  return nn::meanAll(nn::mulElem(h, nn::constant(weights)));
}

void expectBitwiseEqual(const nn::Matrix& fused, const nn::Matrix& ref,
                        const char* what) {
  ASSERT_TRUE(fused.sameShape(ref)) << what;
  for (std::size_t i = 0; i < fused.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(fused.at(i)),
              std::bit_cast<std::uint32_t>(ref.at(i)))
        << what << " entry " << i << ": " << fused.at(i) << " vs "
        << ref.at(i);
}

void expectSameParams(const Model& fused, const Model& ref, bool grads) {
  const auto& a = fused.store.params();
  const auto& b = ref.store.params();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    SCOPED_TRACE("parameter " + std::to_string(k));
    if (grads)
      expectBitwiseEqual(a[k]->grad(), b[k]->grad(), "grad");
    else
      expectBitwiseEqual(a[k]->value(), b[k]->value(), "value");
  }
}

struct Case {
  std::size_t hd;
  std::size_t length;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  for (std::size_t hd : {5, 24, 32})
    for (std::size_t len : {0, 1, 7}) out.push_back({hd, len});
  return out;
}

}  // namespace

TEST(LstmCell, EncodeMatchesPrimitiveOpsBitwise) {
  for (const Case& c : cases()) {
    SCOPED_TRACE("hd " + std::to_string(c.hd) + " length " +
                 std::to_string(c.length));
    Rng rng(100 + c.hd * 10 + c.length);
    const auto tokens = tokensOfLength(c.length, rng);
    const nn::Matrix w = randomRow(c.hd, rng);
    Model fused(c.hd, 7), ref(c.hd, 7);

    const nn::Var hFused = fused.l1.encode(fused.embed(tokens));
    const nn::Var hRef = referenceEncode(ref.ref1(), ref.embed(tokens));
    expectBitwiseEqual(hFused->value(), hRef->value(), "h");

    fused.store.zeroGrad();
    ref.store.zeroGrad();
    nn::backward(lossOn(hFused, w));
    nn::backward(lossOn(hRef, w));
    expectSameParams(fused, ref, /*grads=*/true);
  }
}

TEST(LstmCell, StackedEncodeAllMatchesPrimitiveOpsBitwise) {
  for (const Case& c : cases()) {
    SCOPED_TRACE("hd " + std::to_string(c.hd) + " length " +
                 std::to_string(c.length));
    Rng rng(200 + c.hd * 10 + c.length);
    const auto tokens = tokensOfLength(c.length, rng);
    const nn::Matrix w = randomRow(c.hd, rng);
    Model fused(c.hd, 11), ref(c.hd, 11);

    const auto l1Fused = fused.l1.encodeAll(fused.embed(tokens));
    const auto l1Ref = referenceEncodeAll(ref.ref1(), ref.embed(tokens));
    ASSERT_EQ(l1Fused.size(), l1Ref.size());
    for (std::size_t t = 0; t < l1Fused.size(); ++t)
      expectBitwiseEqual(l1Fused[t]->value(), l1Ref[t]->value(), "layer-1 h");
    const nn::Var hFused = fused.l2.encode(l1Fused);
    const nn::Var hRef = referenceEncode(ref.ref2(), l1Ref);
    expectBitwiseEqual(hFused->value(), hRef->value(), "layer-2 h");

    fused.store.zeroGrad();
    ref.store.zeroGrad();
    nn::backward(lossOn(hFused, w));
    nn::backward(lossOn(hRef, w));
    expectSameParams(fused, ref, /*grads=*/true);
  }
}

TEST(LstmCell, PackedStateCarriesHThenC) {
  Model m(5, 3);
  Rng rng(4);
  const RefParams p = m.ref1();
  nn::Lstm::State s = m.l1.initialState();
  RefState r{nn::constant(nn::Matrix(1, 5, 0.0f)),
             nn::constant(nn::Matrix(1, 5, 0.0f))};
  for (std::size_t t : tokensOfLength(4, rng)) {
    s = m.l1.step(m.emb.lookup(t), s);
    r = referenceStep(p, m.emb.lookup(t), r);
  }
  expectBitwiseEqual(nn::sliceCols(s, 0, 5)->value(), r.h->value(), "h");
  expectBitwiseEqual(nn::sliceCols(s, 5, 5)->value(), r.c->value(), "c");
}

TEST(LstmCell, AdamStepsKeepWeightsBitwiseEqual) {
  // Batches of several sequences, as the trainer builds them: one summed,
  // scaled loss per batch, one backward, one optimizer step.
  for (std::size_t hd : {5, 24, 32}) {
    SCOPED_TRACE("hd " + std::to_string(hd));
    Model fused(hd, 21), ref(hd, 21);
    nn::Adam adamFused(fused.store, 0.01f), adamRef(ref.store, 0.01f);
    Rng rng(300 + hd);
    for (int step = 0; step < 3; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      fused.store.zeroGrad();
      ref.store.zeroGrad();
      nn::Var lossFused, lossRef;
      for (std::size_t len : {7, 1, 3}) {
        const auto tokens = tokensOfLength(len, rng);
        const nn::Matrix w = randomRow(hd, rng);
        const nn::Var a =
            lossOn(fused.l2.encode(fused.l1.encodeAll(fused.embed(tokens))), w);
        const nn::Var b = lossOn(
            referenceEncode(ref.ref2(),
                            referenceEncodeAll(ref.ref1(), ref.embed(tokens))),
            w);
        lossFused = lossFused ? nn::add(lossFused, a) : a;
        lossRef = lossRef ? nn::add(lossRef, b) : b;
      }
      expectBitwiseEqual(lossFused->value(), lossRef->value(), "loss");
      nn::backward(nn::scale(lossFused, 1.0f / 3.0f));
      nn::backward(nn::scale(lossRef, 1.0f / 3.0f));
      expectSameParams(fused, ref, /*grads=*/true);
      adamFused.step();
      adamRef.step();
      expectSameParams(fused, ref, /*grads=*/false);
    }
  }
}
