#include "nn/inference.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "nn/gates.hpp"

// Cost of an LSTM step at hiddenDim 24 with 24 inputs (4-core x86
// container, gcc 12, -mavx2): ~0.6 us, of which the two 24 x 96 products
// take ~0.2 us through the row kernel (addRowTimesMatrix; ~0.5 us through
// the per-input loops it replaced) and the gate math ~0.4 us (lstmGates).

namespace netsyn::nn {

void addVecMatBatch(const float* x, std::size_t xStride, std::size_t batch,
                    std::size_t in, const Matrix& w, float* z,
                    std::size_t zStride, const std::uint8_t* active) {
  for (std::size_t b = 0; b < batch; ++b)
    if (active == nullptr || active[b] != 0)
      addRowTimesMatrix(z + b * zStride, x + b * xStride, w.data(), in,
                        w.cols());
}

void lstmStepFast(const Lstm& lstm, const float* x, float* h, float* c,
                  InferenceScratch& scratch) {
  const std::size_t hd = lstm.hiddenDim();
  const std::size_t g4 = 4 * hd;
  scratch.ensure(g4);
  float* z = scratch.z.data();
  std::memcpy(z, lstm.biasRaw().data(), g4 * sizeof(float));
  addRowTimesMatrix(z, x, lstm.weightX().data(), lstm.inDim(), g4);
  addRowTimesMatrix(z, h, lstm.weightH().data(), hd, g4);
  lstmGates(z, h, c, hd);
}

void lstmEncodeTokensFast(const Lstm& lstm, const Embedding& embedding,
                          const std::vector<std::size_t>& tokens, float* h,
                          InferenceScratch& scratch) {
  const std::size_t hd = lstm.hiddenDim();
  float* c = scratch.ensureC(hd);
  std::memset(c, 0, hd * sizeof(float));
  std::memset(h, 0, hd * sizeof(float));
  const Matrix& table = embedding.table();
  for (std::size_t t : tokens) {
    const float* x = table.data() + t * embedding.dim();
    lstmStepFast(lstm, x, h, c, scratch);
  }
}

void linearForwardFast(const Linear& linear, const float* x, float* out) {
  std::memcpy(out, linear.bias().data(), linear.outDim() * sizeof(float));
  addRowTimesMatrix(out, x, linear.weight().data(), linear.inDim(),
                    linear.outDim());
}

void lstmStepBatchFast(const Lstm& lstm, const float* x, std::size_t batch,
                       float* h, float* c, InferenceScratch& scratch,
                       const std::uint8_t* active) {
  const std::size_t in = lstm.inDim();
  const std::size_t hd = lstm.hiddenDim();
  const std::size_t g4 = 4 * hd;
  scratch.ensure(batch * g4);
  float* z = scratch.z.data();
  // Z = bias broadcast + X * Wx + H * Wh, each row through the row kernel.
  // Inactive lanes are skipped end to end: no bias copy, no gate math, no
  // product rows — their h/c state (and dead z rows) stay untouched.
  const float* bias = lstm.biasRaw().data();
  for (std::size_t b = 0; b < batch; ++b) {
    if (active != nullptr && active[b] == 0) continue;
    std::memcpy(z + b * g4, bias, g4 * sizeof(float));
  }
  addVecMatBatch(x, in, batch, in, lstm.weightX(), z, g4, active);
  addVecMatBatch(h, hd, batch, hd, lstm.weightH(), z, g4, active);
  for (std::size_t b = 0; b < batch; ++b) {
    if (active != nullptr && active[b] == 0) continue;
    lstmGates(z + b * g4, h + b * hd, c + b * hd, hd);
  }
}

void lstmEncodeTokensBatchFast(
    const Lstm& lstm, const Embedding& embedding,
    const std::vector<std::vector<std::size_t>>& tokens, float* h,
    InferenceScratch& scratch) {
  const std::size_t batch = tokens.size();
  const std::size_t hd = lstm.hiddenDim();
  const std::size_t e = embedding.dim();
  std::size_t maxLen = 0;
  for (const auto& seq : tokens) maxLen = std::max(maxLen, seq.size());
  std::memset(h, 0, batch * hd * sizeof(float));
  if (maxLen == 0) return;

  float* c = scratch.ensureC(batch * hd);
  std::memset(c, 0, batch * hd * sizeof(float));
  float* x = scratch.ensureX(batch * e);
  std::uint8_t* active = scratch.ensureActive(batch);
  const Matrix& table = embedding.table();
  for (std::size_t t = 0; t < maxLen; ++t) {
    for (std::size_t b = 0; b < batch; ++b) {
      active[b] = t < tokens[b].size() ? 1 : 0;
      if (active[b])
        std::memcpy(x + b * e, table.data() + tokens[b][t] * e,
                    e * sizeof(float));
    }
    lstmStepBatchFast(lstm, x, batch, h, c, scratch, active);
  }
}

void lstmEncodeVectorsBatchFast(const Lstm& lstm,
                                const std::vector<const float*>& xs,
                                std::size_t batch, float* h,
                                InferenceScratch& scratch) {
  const std::size_t hd = lstm.hiddenDim();
  float* c = scratch.ensureC(batch * hd);
  std::memset(c, 0, batch * hd * sizeof(float));
  std::memset(h, 0, batch * hd * sizeof(float));
  for (const float* x : xs) lstmStepBatchFast(lstm, x, batch, h, c, scratch);
}

void linearForwardBatchFast(const Linear& linear, const float* x,
                            std::size_t batch, float* out) {
  const std::size_t in = linear.inDim();
  const std::size_t o = linear.outDim();
  for (std::size_t b = 0; b < batch; ++b)
    std::memcpy(out + b * o, linear.bias().data(), o * sizeof(float));
  addVecMatBatch(x, in, batch, in, linear.weight(), out, o);
}

void reluFast(float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (x[i] < 0.0f) x[i] = 0.0f;
}

}  // namespace netsyn::nn
