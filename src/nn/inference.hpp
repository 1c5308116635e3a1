// Allocation-free inference kernels for the layers in layers.hpp.
//
// The genetic algorithm calls the fitness model once per examined candidate
// (up to millions of times per synthesis run at paper scale); building an
// autograd graph for those forward-only passes wastes most of the time in
// allocation. These kernels run the same math over raw float buffers held in
// a reusable `InferenceScratch`. Training builds an autograd graph, with one
// fused node per LSTM timestep (layers.hpp), in the same order (bias first,
// then the inputs ascending) through the same row kernel (nn/tensor.hpp), so
// these kernels return its forward values bit for bit; the parity tests pin
// that with exact equality.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/layers.hpp"

namespace netsyn::nn {

/// Reusable buffers for one inference thread. The batched kernels size the
/// same buffers to batch * 4H, so one scratch serves both paths. The cell
/// state, step input, and row-mask buffers the encode loops need live here
/// too, so a steady-state forward pass performs no heap allocation at all.
struct InferenceScratch {
  std::vector<float> z;             ///< gate pre-activations (B x 4H)
  std::vector<float> c;             ///< LSTM cell state (B x H)
  std::vector<float> x;             ///< embedded step inputs (B x E)
  std::vector<std::uint8_t> active; ///< per-row live mask (B)

  void ensure(std::size_t n) {
    if (z.size() < n) z.resize(n);
  }
  float* ensureC(std::size_t n) {
    if (c.size() < n) c.resize(n);
    return c.data();
  }
  float* ensureX(std::size_t n) {
    if (x.size() < n) x.resize(n);
    return x.data();
  }
  std::uint8_t* ensureActive(std::size_t n) {
    if (active.size() < n) active.resize(n);
    return active.data();
  }
};

/// h,c := one LSTM step on input x (length = lstm.inDim()).
/// h and c must have length lstm.hiddenDim() and carry the previous state.
void lstmStepFast(const Lstm& lstm, const float* x, float* h, float* c,
                  InferenceScratch& scratch);

/// h := final hidden state over a sequence of embedded tokens; h must have
/// length lstm.hiddenDim() (zero-initialized by this call).
void lstmEncodeTokensFast(const Lstm& lstm, const Embedding& embedding,
                          const std::vector<std::size_t>& tokens, float* h,
                          InferenceScratch& scratch);

/// out := x * W + b for a Linear layer (out length = linear.outDim()).
void linearForwardFast(const Linear& linear, const float* x, float* out);

/// In-place ReLU.
void reluFast(float* x, std::size_t n);

// ---- population-batched kernels --------------------------------------------
//
// The batched kernels run B rows through one layer at a time
// (Z = (b broadcast + X*Wx) + H*Wh), each row through the same row kernel as
// the single-row ones (addRowTimesMatrix), and skip rows masked out by
// `active` outright. So a batched forward is bitwise identical to B scalar
// forwards (pinned by tests/test_batch_parity.cpp), and every backend
// computes the same floats.

/// Z += X * W over `batch` rows: X is batch x xStride (first `in` columns
/// used), Z is batch x zStride (first w.cols() columns used). Rows with
/// active[b] == 0 are skipped entirely (pass nullptr for all-active).
void addVecMatBatch(const float* x, std::size_t xStride, std::size_t batch,
                    std::size_t in, const Matrix& w, float* z,
                    std::size_t zStride,
                    const std::uint8_t* active = nullptr);

/// One batched LSTM step: x is B x inDim, h and c are B x hiddenDim, all
/// row-major and carrying the previous state. When `active` is non-null,
/// rows with active[b] == 0 keep their h/c untouched — this is how
/// variable-length sequences are batched (a finished row's state freezes at
/// its own final step).
void lstmStepBatchFast(const Lstm& lstm, const float* x, std::size_t batch,
                       float* h, float* c, InferenceScratch& scratch,
                       const std::uint8_t* active = nullptr);

/// Batched variable-length token encoding: row b of `h` (B x hiddenDim)
/// receives the final hidden state of `tokens[b]` under `lstm`/`embedding`.
void lstmEncodeTokensBatchFast(
    const Lstm& lstm, const Embedding& embedding,
    const std::vector<std::vector<std::size_t>>& tokens, float* h,
    InferenceScratch& scratch);

/// Batched fixed-length vector-sequence encoding: xs[t] points at the B x
/// inDim inputs of timestep t; row b of `h` gets the final hidden state.
void lstmEncodeVectorsBatchFast(const Lstm& lstm,
                                const std::vector<const float*>& xs,
                                std::size_t batch, float* h,
                                InferenceScratch& scratch);

/// out := X * W + b broadcast for a Linear layer (X is B x inDim, out is
/// B x outDim).
void linearForwardBatchFast(const Linear& linear, const float* x,
                            std::size_t batch, float* out);

}  // namespace netsyn::nn
