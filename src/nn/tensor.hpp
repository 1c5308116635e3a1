// Dense row-major float matrix: the storage type of the NN substrate.
//
// The fitness-function models process one gene at a time (the GA evaluates
// genes sequentially), so all activations are small row vectors (1 x N) and
// parameters are small matrices; a minimal dense type is both sufficient and
// fast for the paper's architecture.
#pragma once

#include <cassert>
#include <cstddef>
#include <string>
#include <vector>

namespace netsyn::nn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  Matrix(std::size_t rows, std::size_t cols, std::vector<float> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    assert(data_.size() == rows_ * cols_);
  }

  static Matrix zeros(std::size_t rows, std::size_t cols) {
    return Matrix(rows, cols, 0.0f);
  }

  /// 1 x n row vector from values.
  static Matrix row(std::vector<float> values) {
    const std::size_t n = values.size();
    return Matrix(1, n, std::move(values));
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool sameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  float& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float& at(std::size_t i) { return data_[i]; }
  float at(std::size_t i) const { return data_[i]; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  const std::vector<float>& vec() const { return data_; }

  void fill(float v) {
    for (auto& x : data_) x = v;
  }

  /// In-place a += b (shapes must match).
  void addInPlace(const Matrix& b) {
    assert(sameShape(b));
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += b.data_[i];
  }

  /// In-place a += s * b.
  void axpyInPlace(float s, const Matrix& b) {
    assert(sameShape(b));
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += s * b.data_[i];
  }

  bool operator==(const Matrix&) const = default;

  std::string shapeString() const {
    return std::to_string(rows_) + "x" + std::to_string(cols_);
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

// Row kernels of the layers, for training (affine, the fused LSTM cell) and
// inference (inference.cpp) alike, so the two paths round alike.

/// out[0, m) += x[0, k) * B, B k x m row-major: per output, the products in
/// ascending input order, each rounded before its add; inputs equal to zero
/// are skipped. The one forward row kernel; its AVX2 body returns the
/// scalar loop's bits.
void addRowTimesMatrix(float* out, const float* x, const float* b,
                       std::size_t k, std::size_t m);

/// out[0, k) += x[0, m) * B^T, B k x m; one accumulator per output entry.
void addRowTimesTranspose(float* out, const float* x, const float* b,
                          std::size_t k, std::size_t m);

/// C += a^T * x for C k x m, a 1 x k, x 1 x m; zero entries of a are skipped.
void addOuter(float* c, const float* a, const float* x, std::size_t k,
              std::size_t m);

/// Numerically stable softmax of a 1 x n row vector.
Matrix softmaxValue(const Matrix& logits);

}  // namespace netsyn::nn
