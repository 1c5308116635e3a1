#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>

namespace netsyn::nn {

void addRowTimesMatrix(float* out, const float* x, const float* b,
                       std::size_t k, std::size_t m) {
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float xv = x[kk];
    if (xv == 0.0f) continue;
    const float* brow = b + kk * m;
    for (std::size_t j = 0; j < m; ++j) out[j] += xv * brow[j];
  }
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

Matrix matmulValue(const Matrix& a, const Matrix& b) {
  assert(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols(), 0.0f);
  const std::size_t n = a.rows(), k = a.cols(), m = b.cols();
  for (std::size_t i = 0; i < n; ++i)
    addRowTimesMatrix(c.data() + i * m, a.data() + i * k, b.data(), k, m);
  return c;
}

void addABTranspose(Matrix& c, const Matrix& a, const Matrix& b) {
  // c (n x k) += a (n x m) * b^T (m x k), b is k x m.
  assert(c.rows() == a.rows() && c.cols() == b.rows() &&
         a.cols() == b.cols());
  const std::size_t n = a.rows(), m = a.cols(), k = b.rows();
  for (std::size_t i = 0; i < n; ++i)
    addRowTimesTranspose(c.data() + i * k, a.data() + i * m, b.data(), k, m);
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
