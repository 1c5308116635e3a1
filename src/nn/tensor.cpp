#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#if defined(NETSYN_SIMD) && defined(__AVX2__)
#define NETSYN_ROWS_AVX2 1
#include <immintrin.h>
#endif

namespace netsyn::nn {

namespace {

/// addRowTimesMatrix over the output columns [from, m): the scalar kernel,
/// and the column tail of the AVX2 one.
void addRowTimesColumns(float* out, const float* x, const float* b,
                        std::size_t k, std::size_t m, std::size_t from) {
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float xv = x[kk];
    if (xv == 0.0f) continue;
    const float* brow = b + kk * m;
    for (std::size_t j = from; j < m; ++j) out[j] += xv * brow[j];
  }
}

#if NETSYN_ROWS_AVX2
/// Column vectors per chunk: 12 of the 16 ymm registers hold accumulators,
/// the rest the broadcast input and a weight load. 12 covers a 4 x 24 row.
constexpr std::size_t kChunkVectors = 12;

/// addRowTimesColumns over the 8 * sizeof...(K) columns at out and b (b's
/// rows still m apart), with those column vectors held in registers across
/// the whole input loop. Every lane repeats the scalar loop's operations in
/// its order, and the mul and add never fuse (-ffp-contract=off), so the
/// result is the scalar loop's bit for bit.
template <std::size_t... K>
void addRowTimesChunk(std::index_sequence<K...>, float* out, const float* x,
                      const float* b, std::size_t k, std::size_t m) {
  __m256 acc[] = {_mm256_loadu_ps(out + 8 * K)...};
  for (std::size_t kk = 0; kk < k; ++kk) {
    if (x[kk] == 0.0f) continue;
    const __m256 xb = _mm256_set1_ps(x[kk]);
    const float* brow = b + kk * m;
    ((acc[K] = _mm256_add_ps(
          acc[K], _mm256_mul_ps(xb, _mm256_loadu_ps(brow + 8 * K)))),
     ...);
  }
  (_mm256_storeu_ps(out + 8 * K, acc[K]), ...);
}

/// The chunk kernel for n (<= N) column vectors.
template <std::size_t N = kChunkVectors>
void addRowTimesChunk(std::size_t n, float* out, const float* x,
                      const float* b, std::size_t k, std::size_t m) {
  if constexpr (N > 1)
    if (n < N) return addRowTimesChunk<N - 1>(n, out, x, b, k, m);
  addRowTimesChunk(std::make_index_sequence<N>(), out, x, b, k, m);
}
#endif

}  // namespace

void addRowTimesMatrix(float* out, const float* x, const float* b,
                       std::size_t k, std::size_t m) {
  std::size_t j = 0;
#if NETSYN_ROWS_AVX2
  for (std::size_t n; (n = std::min(kChunkVectors, (m - j) / 8)) > 0;
       j += 8 * n)
    addRowTimesChunk(n, out + j, x, b + j, k, m);
#endif
  addRowTimesColumns(out, x, b, k, m, j);
}

void addRowTimesTranspose(float* out, const float* x, const float* b,
                          std::size_t k, std::size_t m) {
  // Blocks of 8 output entries run 8 independent accumulator chains through
  // one pass over x, instead of one latency-bound chain per entry. Each
  // accumulator still adds its own products in ascending j, each product
  // rounded before its add, so every entry is the one-accumulator loop's
  // bit for bit.
  constexpr std::size_t kBlock = 8;
  std::size_t kk = 0;
  for (; kk + kBlock <= k; kk += kBlock) {
    const float* brow = b + kk * m;
    float acc[kBlock] = {};
    for (std::size_t j = 0; j < m; ++j) {
      const float xj = x[j];
      for (std::size_t r = 0; r < kBlock; ++r) acc[r] += xj * brow[r * m + j];
    }
    for (std::size_t r = 0; r < kBlock; ++r) out[kk + r] += acc[r];
  }
  for (; kk < k; ++kk) {
    const float* brow = b + kk * m;
    float acc = 0.0f;
    for (std::size_t j = 0; j < m; ++j) acc += x[j] * brow[j];
    out[kk] += acc;
  }
}

void addOuter(float* c, const float* a, const float* x, std::size_t k,
              std::size_t m) {
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float av = a[kk];
    if (av == 0.0f) continue;
    float* crow = c + kk * m;
    for (std::size_t j = 0; j < m; ++j) crow[j] += av * x[j];
  }
}

Matrix softmaxValue(const Matrix& logits) {
  assert(logits.rows() == 1);
  Matrix out(1, logits.cols());
  const float mx =
      *std::max_element(logits.vec().begin(), logits.vec().end());
  float sum = 0.0f;
  for (std::size_t j = 0; j < logits.cols(); ++j) {
    out.at(j) = std::exp(logits.at(j) - mx);
    sum += out.at(j);
  }
  for (std::size_t j = 0; j < logits.cols(); ++j) out.at(j) /= sum;
  return out;
}

}  // namespace netsyn::nn
