// LSTM gate nonlinearities for the inference kernels (inference.hpp).
//
// At hiddenDim 32 an LSTM step makes 96 sigmoids and 64 tanhs; called one
// float at a time, libm's expf/tanhf cost ~5x the step's multiply-adds.
// These kernels apply them 8 floats at a time and return exactly what the
// scalar expressions return, bit for bit, so every score, search
// trajectory and exact guard is the same as with the scalar calls.
//
// Backend selection is compile-time, as in dsl/simd.hpp:
//   - NETSYN_SIMD + __AVX2__: 8-wide transcriptions of the
//     algorithms glibc runs behind std::tanh(float) (fdlibm tanhf/expm1f)
//     and std::exp(float) (e_expf.c in its FMA ifunc variant). The sigmoid
//     kernel also needs FMA at run time, because the libm it reproduces
//     does; without it the sigmoid runs the scalar expression.
//   - otherwise: std::tanh and nn::sigmoid per element.
// Scalar tails always run the scalar expressions. tests/test_nn_gates.cpp
// pins the vector kernels to them bitwise, and its DISABLED_Exhaustive test
// checks all 2^32 inputs of both functions.
#pragma once

#include <cmath>
#include <cstddef>

namespace netsyn::nn {

/// Logistic sigmoid, with one exp on either branch; the scalar oracle of
/// sigmoidInPlace, and the sigmoid of the autograd path.
inline float sigmoid(float x) {
  if (x >= 0.0f) return 1.0f / (1.0f + std::exp(-x));
  const float e = std::exp(x);
  return e / (1.0f + e);
}

/// x[i] := sigmoid(x[i]) for i < n, bitwise equal to nn::sigmoid.
void sigmoidInPlace(float* x, std::size_t n);

/// out[i] := std::tanh(x[i]) for i < n, bitwise; out may equal x.
void tanhOf(const float* x, float* out, std::size_t n);

/// x[i] := std::tanh(x[i]) for i < n, bitwise.
inline void tanhInPlace(float* x, std::size_t n) { tanhOf(x, x, n); }

/// The gate stage of one LSTM step. z holds the 4*hd pre-activations in the
/// layout [i | f | g | o] (Lstm::step's) and is clobbered; h and c carry the
/// previous state and receive c := f*c + i*g, h := o*tanh(c).
void lstmGates(float* z, float* h, float* c, std::size_t hd);

}  // namespace netsyn::nn
