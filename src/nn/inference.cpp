#include "nn/inference.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "nn/gates.hpp"

// Cost of an LSTM step at hiddenDim 32 (4-core x86 container, glibc 2.36):
// the 3x32 sigmoids and 2x32 tanhs take ~0.6 us through the 8-wide gate
// kernels of gates.hpp (~2.6 us as scalar expf/tanhf calls), against ~0.5
// us of multiply-adds here, so the matmul is now about half a step.

namespace netsyn::nn {
namespace {

/// z += x * W for row-major W (in x out).
inline void addVecMat(const float* x, std::size_t in, const Matrix& w,
                      float* z) {
  const std::size_t out = w.cols();
  for (std::size_t i = 0; i < in; ++i) {
    const float xv = x[i];
    if (xv == 0.0f) continue;
    const float* row = w.data() + i * out;
    for (std::size_t j = 0; j < out; ++j) z[j] += xv * row[j];
  }
}

/// Four rows of z += x * W sharing one pass over W: each weight row is
/// loaded once and accumulated into four outputs held in registers. The
/// weights in this model are L1-resident, so the win is load-port pressure
/// and instruction-level parallelism rather than DRAM traffic — but it is
/// the classic register-blocking shape either way. For every row the
/// accumulation order (ascending i, one multiply-add per j, skip on exact
/// zero) is addVecMat's, so results are bitwise identical.
inline void addVecMat4(const float* x0, const float* x1, const float* x2,
                       const float* x3, std::size_t in, const Matrix& w,
                       float* z0, float* z1, float* z2, float* z3) {
  const std::size_t out = w.cols();
  for (std::size_t i = 0; i < in; ++i) {
    const float a0 = x0[i], a1 = x1[i], a2 = x2[i], a3 = x3[i];
    const float* row = w.data() + i * out;
    if (a0 != 0.0f && a1 != 0.0f && a2 != 0.0f && a3 != 0.0f) {
      for (std::size_t j = 0; j < out; ++j) {
        const float r = row[j];
        z0[j] += a0 * r;
        z1[j] += a1 * r;
        z2[j] += a2 * r;
        z3[j] += a3 * r;
      }
    } else {
      // A zero entry must skip its row's accumulation (addVecMat semantics);
      // fall back to per-row loops for this i only.
      if (a0 != 0.0f)
        for (std::size_t j = 0; j < out; ++j) z0[j] += a0 * row[j];
      if (a1 != 0.0f)
        for (std::size_t j = 0; j < out; ++j) z1[j] += a1 * row[j];
      if (a2 != 0.0f)
        for (std::size_t j = 0; j < out; ++j) z2[j] += a2 * row[j];
      if (a3 != 0.0f)
        for (std::size_t j = 0; j < out; ++j) z3[j] += a3 * row[j];
    }
  }
}

}  // namespace

void addVecMatBatch(const float* x, std::size_t xStride, std::size_t batch,
                    std::size_t in, const Matrix& w, float* z,
                    std::size_t zStride, const std::uint8_t* active) {
  // Compact active rows into blocks of four so masked-out lanes cost
  // nothing and ragged tails still get the blocked path where possible.
  std::size_t idx[4];
  std::size_t n = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    if (active != nullptr && active[b] == 0) continue;
    idx[n++] = b;
    if (n < 4) continue;
    addVecMat4(x + idx[0] * xStride, x + idx[1] * xStride,
               x + idx[2] * xStride, x + idx[3] * xStride, in, w,
               z + idx[0] * zStride, z + idx[1] * zStride,
               z + idx[2] * zStride, z + idx[3] * zStride);
    n = 0;
  }
  for (std::size_t k = 0; k < n; ++k)
    addVecMat(x + idx[k] * xStride, in, w, z + idx[k] * zStride);
}

void lstmStepFast(const Lstm& lstm, const float* x, float* h, float* c,
                  InferenceScratch& scratch) {
  const std::size_t hd = lstm.hiddenDim();
  const std::size_t g4 = 4 * hd;
  scratch.ensure(g4);
  float* z = scratch.z.data();
  std::memcpy(z, lstm.biasRaw().data(), g4 * sizeof(float));
  addVecMat(x, lstm.inDim(), lstm.weightX(), z);
  addVecMat(h, hd, lstm.weightH(), z);
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

void lstmEncodeVectorsFast(const Lstm& lstm,
                           const std::vector<const float*>& xs, float* h,
                           InferenceScratch& scratch) {
  const std::size_t hd = lstm.hiddenDim();
  float* c = scratch.ensureC(hd);
  std::memset(c, 0, hd * sizeof(float));
  std::memset(h, 0, hd * sizeof(float));
  for (const float* x : xs) lstmStepFast(lstm, x, h, c, scratch);
}

void linearForwardFast(const Linear& linear, const float* x, float* out) {
  std::memcpy(out, linear.bias().data(), linear.outDim() * sizeof(float));
  addVecMat(x, linear.inDim(), linear.weight(), out);
}

void lstmStepBatchFast(const Lstm& lstm, const float* x, std::size_t batch,
                       float* h, float* c, InferenceScratch& scratch,
                       const std::uint8_t* active) {
  const std::size_t in = lstm.inDim();
  const std::size_t hd = lstm.hiddenDim();
  const std::size_t g4 = 4 * hd;
  scratch.ensure(batch * g4);
  float* z = scratch.z.data();
  // Z = bias broadcast + X * Wx + H * Wh as blocked matrix-matrix products.
  // Inactive lanes are skipped end to end: no bias copy, no gate math, no
  // matmul rows — their h/c state (and dead z rows) stay untouched.
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
