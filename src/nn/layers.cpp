#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "nn/gates.hpp"

namespace netsyn::nn {

Matrix xavierUniform(std::size_t rows, std::size_t cols, util::Rng& rng) {
  const float s =
      std::sqrt(6.0f / static_cast<float>(rows + cols));
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.at(i) = static_cast<float>(rng.uniformReal(-s, s));
  return m;
}

Embedding::Embedding(std::size_t vocab, std::size_t dim, ParamStore& store,
                     util::Rng& rng)
    : vocab_(vocab), dim_(dim), table_(store.make(xavierUniform(vocab, dim, rng))) {}

Var Embedding::lookup(std::size_t token) const {
  return selectRow(table_, token);
}

Linear::Linear(std::size_t in, std::size_t out, ParamStore& store,
               util::Rng& rng)
    : in_(in),
      out_(out),
      w_(store.make(xavierUniform(in, out, rng))),
      b_(store.make(Matrix(1, out, 0.0f))) {}

Var Linear::forward(const Var& x) const { return affine(x, w_, b_); }

Lstm::Lstm(std::size_t in, std::size_t hidden, ParamStore& store,
           util::Rng& rng)
    : in_(in),
      hidden_(hidden),
      wx_(store.make(xavierUniform(in, 4 * hidden, rng))),
      wh_(store.make(xavierUniform(hidden, 4 * hidden, rng))),
      b_(store.make(Matrix(1, 4 * hidden, 0.0f))) {
  // Forget-gate bias (+1): columns [H, 2H).
  for (std::size_t j = hidden_; j < 2 * hidden_; ++j) b_->value().at(j) = 1.0f;
}

namespace {

/// One LSTM timestep as a single tape node. Parents, in this order: the
/// previous packed state [h | c], x, Wx, Wh and b. Forward and backward
/// perform exactly the float operations, in the same order, of the
/// primitive-op composition
///   z = affine(h, Wh, affine(x, Wx, b)); i, f, o = sigmoid; g = tanh;
///   c' = f*c + i*g; h' = o * tanh(c'),
/// so training through the cell reproduces the op-by-op tape bit for bit,
/// and its forward computes lstmStepFast's floats.
Var lstmCell(const Lstm::State& prev, const Var& x, const Var& wx,
             const Var& wh, const Var& b, std::size_t hd) {
  const std::size_t in = wx->value().rows();
  const std::size_t g4 = 4 * hd;
  const float* hPrev = prev->value().data();
  const float* cPrev = hPrev + hd;
  // Activations [i | f | g | o | tanh(c')], kept for the backward pass.
  // The first 4H start as b, then take x*Wx and h*Wh.
  std::vector<float> act(5 * hd);
  std::copy(b->value().data(), b->value().data() + g4, act.data());
  addRowTimesMatrix(act.data(), x->value().data(), wx->value().data(), in, g4);
  addRowTimesMatrix(act.data(), hPrev, wh->value().data(), hd, g4);
  float* ig = act.data();
  float* fg = ig + hd;
  float* gg = ig + 2 * hd;
  float* og = ig + 3 * hd;
  float* tc = ig + 4 * hd;
  sigmoidInPlace(ig, 2 * hd);  // [i | f]
  tanhInPlace(gg, hd);
  sigmoidInPlace(og, hd);
  Matrix out(1, 2 * hd);
  float* h = out.data();
  float* c = h + hd;
  for (std::size_t k = 0; k < hd; ++k) c[k] = fg[k] * cPrev[k] + ig[k] * gg[k];
  tanhOf(c, tc, hd);
  for (std::size_t k = 0; k < hd; ++k) h[k] = og[k] * tc[k];

  return makeNode(std::move(out), {prev, x, wx, wh, b},
                  [act = std::move(act), hd, in](Node& n) {
    Node& prevN = *n.parents()[0];
    Node& xN = *n.parents()[1];
    Node& wxN = *n.parents()[2];
    Node& whN = *n.parents()[3];
    Node& bN = *n.parents()[4];
    const std::size_t g4 = 4 * hd;
    const float* i = act.data();
    const float* f = i + hd;
    const float* g = i + 2 * hd;
    const float* o = i + 3 * hd;
    const float* tc = i + 4 * hd;
    const float* dhc = n.grad().data();  // [dh | dc]
    const float* hPrev = prevN.value().data();
    const float* cPrev = hPrev + hd;
    float* dPrev = prevN.requiresGrad() ? prevN.grad().data() : nullptr;
    std::vector<float> dz(g4, 0.0f);  // summed from zero, as the oracle's
    for (std::size_t k = 0; k < hd; ++k) {
      const float dh = dhc[k];
      const float dtc = dh * o[k];
      const float dc = dhc[hd + k] + dtc * (1.0f - tc[k] * tc[k]);
      const float di = dc * g[k];
      const float df = dc * cPrev[k];
      const float dg = dc * i[k];
      const float dout = dh * tc[k];
      dz[k] += di * i[k] * (1.0f - i[k]);
      dz[hd + k] += df * f[k] * (1.0f - f[k]);
      dz[2 * hd + k] += dg * (1.0f - g[k] * g[k]);
      dz[3 * hd + k] += dout * o[k] * (1.0f - o[k]);
      if (dPrev) dPrev[hd + k] += dc * f[k];
    }
    const float* dzp = dz.data();
    if (bN.requiresGrad()) accumulateRow(bN, 0, dzp);
    if (dPrev) addRowTimesTranspose(dPrev, dzp, whN.value().data(), hd, g4);
    if (whN.requiresGrad()) accumulateOuter(whN, hPrev, dzp);
    if (wxN.requiresGrad()) accumulateOuter(wxN, xN.value().data(), dzp);
    if (xN.requiresGrad())
      addRowTimesTranspose(xN.grad().data(), dzp, wxN.value().data(), in, g4);
  });
}

}  // namespace

Lstm::State Lstm::initialState() const {
  return constant(Matrix(1, 2 * hidden_, 0.0f));
}

Lstm::State Lstm::step(const Var& x, const State& state) const {
  if (x->value().rows() != 1 || x->value().cols() != in_)
    throw std::invalid_argument("Lstm::step: input " +
                                x->value().shapeString() + ", expected 1x" +
                                std::to_string(in_));
  return lstmCell(state, x, wx_, wh_, b_, hidden_);
}

Var Lstm::encode(const std::vector<Var>& sequence) const {
  State state = initialState();
  for (const Var& x : sequence) state = step(x, state);
  return sliceCols(state, 0, hidden_);
}

std::vector<Var> Lstm::encodeAll(const std::vector<Var>& sequence) const {
  std::vector<Var> hs;
  hs.reserve(sequence.size());
  State state = initialState();
  for (const Var& x : sequence) {
    state = step(x, state);
    hs.push_back(sliceCols(state, 0, hidden_));
  }
  return hs;
}

}  // namespace netsyn::nn
