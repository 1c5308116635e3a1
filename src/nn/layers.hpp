// Neural network layers: Embedding, Linear, and LSTM.
//
// These are the building blocks of the paper's fitness-function architecture
// (Figure 2): embedding layers for DSL values and function ids, LSTM encoders
// over token/trace/step/example sequences, and fully connected output heads.
// Parameters are created through a ParamStore so optimizers and the
// serializer see every trainable tensor.
#pragma once

#include <vector>

#include "nn/autograd.hpp"
#include "util/rng.hpp"

namespace netsyn::nn {

/// Xavier/Glorot uniform initialization: U(-s, s), s = sqrt(6/(fanIn+fanOut)).
Matrix xavierUniform(std::size_t rows, std::size_t cols, util::Rng& rng);

/// Token embedding: vocab x dim table; lookup(i) returns row i (1 x dim).
class Embedding {
 public:
  Embedding(std::size_t vocab, std::size_t dim, ParamStore& store,
            util::Rng& rng);

  Var lookup(std::size_t token) const;
  std::size_t vocab() const { return vocab_; }
  std::size_t dim() const { return dim_; }

  /// Raw table for the allocation-free inference path (nn/inference.hpp).
  const Matrix& table() const { return table_->value(); }

 private:
  std::size_t vocab_;
  std::size_t dim_;
  Var table_;  // vocab x dim
};

/// Fully connected layer: y = affine(x, W, b), i.e. b + x * W.
class Linear {
 public:
  Linear(std::size_t in, std::size_t out, ParamStore& store, util::Rng& rng);

  Var forward(const Var& x) const;
  std::size_t inDim() const { return in_; }
  std::size_t outDim() const { return out_; }

  /// Raw parameters for the allocation-free inference path.
  const Matrix& weight() const { return w_->value(); }
  const Matrix& bias() const { return b_->value(); }

 private:
  std::size_t in_;
  std::size_t out_;
  Var w_;  // in x out
  Var b_;  // 1 x out
};

/// Single-layer LSTM encoder.
///
/// Gate layout along the 4H axis is [i | f | g | o]; the forget-gate bias is
/// initialized to +1 (standard remedy for early vanishing gradients).
/// `encode` runs the cell over a sequence of 1 x in vectors and returns the
/// final hidden state; an empty sequence encodes to the zero vector.
///
/// A timestep is one fused cell node whose value is the packed state [h | c]
/// and whose forward and backward repeat, bit for bit, the arithmetic of
/// the same step composed from the primitive ops, z = affine(h, Wh,
/// affine(x, Wx, b)) and the gates (tests/test_nn_lstm_cell.cpp keeps that
/// composition as the oracle). Its forward is also lstmStepFast's: z starts
/// as b and adds x * Wx, then h * Wh, through the one row kernel.
class Lstm {
 public:
  Lstm(std::size_t in, std::size_t hidden, ParamStore& store, util::Rng& rng);

  /// Packed cell state [h | c], 1 x 2H; h is sliceCols(state, 0, H).
  using State = Var;

  /// Zero initial state.
  State initialState() const;

  /// One timestep: (x, state) -> state'.
  State step(const Var& x, const State& state) const;

  /// Final hidden vector of the sequence (1 x hidden).
  Var encode(const std::vector<Var>& sequence) const;

  /// Hidden vector after every timestep (sequence.size() entries). Used to
  /// stack LSTM layers (the paper's two-layer combiners in Figure 2).
  std::vector<Var> encodeAll(const std::vector<Var>& sequence) const;

  std::size_t inDim() const { return in_; }
  std::size_t hiddenDim() const { return hidden_; }

  /// Raw parameters for the allocation-free inference path.
  const Matrix& weightX() const { return wx_->value(); }
  const Matrix& weightH() const { return wh_->value(); }
  const Matrix& biasRaw() const { return b_->value(); }

 private:
  std::size_t in_;
  std::size_t hidden_;
  Var wx_;  // in x 4H
  Var wh_;  // H x 4H
  Var b_;   // 1 x 4H
};

}  // namespace netsyn::nn
