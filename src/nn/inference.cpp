#include "nn/inference.hpp"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "nn/gates.hpp"

#if defined(NETSYN_SIMD) && defined(__AVX2__)
#define NETSYN_ROWS_AVX2 1
#include <immintrin.h>
#endif

// Cost of an LSTM step at hiddenDim 24 with 24 inputs (4-core x86
// container, gcc 12, -mavx2): ~0.6 us, of which the two 24 x 96 products
// take ~0.2 us through the row kernel below (~0.5 us through the per-input
// loops it replaced) and the gate math ~0.4 us (lstmGates).

namespace netsyn::nn {
namespace {

/// z[j] += x[i] * W[i][j] for the columns j in [from, out) of row-major W
/// (in x out): ascending i, each product rounded before its add, and an
/// input equal to zero (either sign) skipped. The scalar kernel, and the
/// column tail of the AVX2 one.
inline void addVecMatCols(const float* x, std::size_t in, const float* w,
                          std::size_t out, std::size_t from, float* z) {
  for (std::size_t i = 0; i < in; ++i) {
    const float xv = x[i];
    if (xv == 0.0f) continue;
    const float* row = w + i * out;
    for (std::size_t j = from; j < out; ++j) z[j] += xv * row[j];
  }
}

#if NETSYN_ROWS_AVX2
/// Column vectors per chunk: 12 of the 16 ymm registers hold accumulators,
/// the rest the broadcast input and a weight load. 12 covers a 4 x 24 row.
constexpr std::size_t kChunkVectors = 12;

/// addVecMatCols over the 8 * sizeof...(K) columns at z and w (w's rows
/// still `out` apart), with those column vectors held in registers across
/// the whole input loop. Every lane repeats the scalar loop's operations in
/// its order, and the mul and add never fuse (-ffp-contract=off), so the
/// result is the scalar loop's bit for bit.
template <std::size_t... K>
void addVecMatChunk(std::index_sequence<K...>, const float* x,
                    std::size_t in, const float* w, std::size_t out,
                    float* z) {
  __m256 acc[] = {_mm256_loadu_ps(z + 8 * K)...};
  for (std::size_t i = 0; i < in; ++i) {
    if (x[i] == 0.0f) continue;
    const __m256 xb = _mm256_set1_ps(x[i]);
    const float* row = w + i * out;
    ((acc[K] = _mm256_add_ps(
          acc[K], _mm256_mul_ps(xb, _mm256_loadu_ps(row + 8 * K)))),
     ...);
  }
  (_mm256_storeu_ps(z + 8 * K, acc[K]), ...);
}

/// The chunk kernel for n (<= N) column vectors.
template <std::size_t N = kChunkVectors>
void addVecMatChunk(std::size_t n, const float* x, std::size_t in,
                    const float* w, std::size_t out, float* z) {
  if constexpr (N > 1)
    if (n < N) return addVecMatChunk<N - 1>(n, x, in, w, out, z);
  addVecMatChunk(std::make_index_sequence<N>(), x, in, w, out, z);
}
#endif

/// z += x * W for row-major W (in x out): the row kernel of every layer.
inline void addVecMat(const float* x, std::size_t in, const Matrix& w,
                      float* z) {
  const std::size_t out = w.cols();
  std::size_t j = 0;
#if NETSYN_ROWS_AVX2
  for (std::size_t n; (n = std::min(kChunkVectors, (out - j) / 8)) > 0;
       j += 8 * n)
    addVecMatChunk(n, x, in, w.data() + j, out, z + j);
#endif
  addVecMatCols(x, in, w.data(), out, j, z);
}

}  // namespace

void addVecMatBatch(const float* x, std::size_t xStride, std::size_t batch,
                    std::size_t in, const Matrix& w, float* z,
                    std::size_t zStride, const std::uint8_t* active) {
  for (std::size_t b = 0; b < batch; ++b)
    if (active == nullptr || active[b] != 0)
      addVecMat(x + b * xStride, in, w, z + b * zStride);
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
  // Z = bias broadcast + X * Wx + H * Wh, each row through the row kernel.
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
