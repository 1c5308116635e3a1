// Reverse-mode automatic differentiation over Matrix values.
//
// A tiny tape: every operation builds a `Node` holding its value, its parent
// nodes, and a closure that scatters the node's output gradient into its
// parents. Only parents that require grad receive gradient: an op over
// constants alone records nothing and yields a constant. `backward(root)`
// runs a topological sweep. This is the substrate on which the LSTM fitness
// models of the paper (Figure 2) are built; it replaces the TensorFlow
// dependency of the original implementation.
//
// Conventions:
//  - Activations are row vectors (1 x n); parameters are (in x out).
//  - Losses are 1 x 1 scalars.
//  - Gradients accumulate (+=); call ParamStore::zeroGrad between steps.
//  - Every write into a parameter's gradient goes through accumulate,
//    accumulateRow or accumulateOuter, so a LeafGradLog can record it (see
//    there); a parameter's grad() fails loudly while a log is active.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "nn/tensor.hpp"

namespace netsyn::nn {

class Node;
/// Shared handle to a tape node. Ops take and return `Var`s.
using Var = std::shared_ptr<Node>;

class Node {
 public:
  Node(Matrix value, bool requires_grad)
      : value_(std::move(value)), requires_grad_(requires_grad) {}
  /// Frees the graph behind this node iteratively, so dropping a long chain
  /// needs no stack per node.
  ~Node();

  const Matrix& value() const { return value_; }
  Matrix& value() { return value_; }

  /// Gradient buffer, allocated lazily (inference-mode forwards never touch
  /// it, halving allocation traffic in the GA's hot loop). Throws
  /// std::logic_error for a parameter while a LeafGradLog is active on the
  /// calling thread: a write that bypassed the log would be lost from the
  /// replay, and a read would see a gradient the log has not applied yet.
  Matrix& grad() {
    if (isParameter()) checkLeafGradAccess();
    if (grad_.size() != value_.size())
      grad_ = Matrix(value_.rows(), value_.cols(), 0.0f);
    return grad_;
  }
  const Matrix& grad() const {
    return const_cast<Node*>(this)->grad();
  }
  bool requiresGrad() const { return requires_grad_; }

  /// A gradient-tracking leaf: a weight or bias (interior nodes that track
  /// gradient always have parents).
  bool isParameter() const { return requires_grad_ && parents_.empty(); }

  /// Index of this parameter in the ParamStore that registered it (kNoSlot
  /// when unregistered). Stores built by the same code agree on it, which is
  /// how a log recorded on one model replica replays onto another.
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();
  std::uint32_t slot() const { return slot_; }

  const std::vector<Var>& parents() const { return parents_; }

  /// Scalar convenience for 1x1 nodes (losses).
  float scalar() const { return value_(0, 0); }

 private:
  friend Var makeNode(Matrix value, std::vector<Var> parents,
                      std::function<void(Node&)> backfn);
  friend Var constant(Matrix value);
  friend Var parameter(Matrix value);
  friend void backward(const Var& root);
  friend class ParamStore;

  void checkLeafGradAccess() const;

  Matrix value_;
  Matrix grad_;
  bool requires_grad_;
  bool visited_ = false;  // backward()'s sweep mark; set on interior nodes only
  std::uint32_t slot_ = kNoSlot;
  std::vector<Var> parents_;
  std::function<void(Node&)> backfn_;  // scatters grad_ into parents
};

/// Leaf with no gradient tracking (inputs, labels).
Var constant(Matrix value);

/// Leaf with gradient tracking (weights, biases). Persisted across graphs;
/// register it in a ParamStore so optimizers can find it.
Var parameter(Matrix value);

/// Interior node factory for ops (exposed for custom ops such as the fused
/// LSTM cell in layers.cpp). Records `parents` and `backfn` only when some
/// parent requires grad; otherwise the node is a constant.
Var makeNode(Matrix value, std::vector<Var> parents,
             std::function<void(Node&)> backfn);

/// While a guard is alive, ops compute values but record no parents or
/// backward closures: the graph is not retained and `backward` must not be
/// called on its outputs. Used for the GA's fitness evaluations, which are
/// forward-only. Guards nest; the flag is thread-local.
class InferenceModeGuard {
 public:
  InferenceModeGuard();
  ~InferenceModeGuard();
  InferenceModeGuard(const InferenceModeGuard&) = delete;
  InferenceModeGuard& operator=(const InferenceModeGuard&) = delete;

 private:
  bool previous_;
};

/// True when an InferenceModeGuard is active on this thread.
bool inferenceModeEnabled();

// ---- arithmetic -------------------------------------------------------------

Var add(const Var& a, const Var& b);       ///< same shape
Var sub(const Var& a, const Var& b);       ///< same shape
Var mulElem(const Var& a, const Var& b);   ///< Hadamard, same shape
Var scale(const Var& a, float s);

/// base + x[i] * W for every row i of x: x is n x k, W k x m, and base
/// 1 x m is broadcast (n x m out). Each row starts as a copy of base and
/// adds x[i]'s products through addRowTimesMatrix (ascending inputs, zero
/// inputs skipped): the order of the inference kernels, so a layer's
/// training forward and its inference kernel return the same bits.
Var affine(const Var& x, const Var& w, const Var& base);

// ---- nonlinearities ---------------------------------------------------------

Var tanhOp(const Var& a);
Var sigmoidOp(const Var& a);
Var reluOp(const Var& a);

// ---- shape ops --------------------------------------------------------------

/// Concatenates row vectors (1 x n, 1 x m) -> (1 x n+m).
Var concatCols(const Var& a, const Var& b);

/// Slice of columns [start, start+len) of a row vector.
Var sliceCols(const Var& a, std::size_t start, std::size_t len);

/// Row `index` of a matrix as a 1 x cols vector. Gradient scatter-adds into
/// that row; this is the embedding-lookup primitive.
Var selectRow(const Var& a, std::size_t index);

/// Mean of all entries -> 1 x 1.
Var meanAll(const Var& a);

// ---- losses -----------------------------------------------------------------

/// Cross-entropy of softmax(logits) against integer `label` -> 1 x 1.
/// Fused for numerical stability; gradient is softmax - onehot.
Var softmaxCrossEntropy(const Var& logits, std::size_t label);

/// Mean binary cross-entropy of sigmoid(logits) against targets in [0,1]
/// (1 x n each) -> 1 x 1. Fused logits formulation (stable for |x| large).
Var bceWithLogits(const Var& logits, const Matrix& targets);

/// Squared error (pred - target)^2 averaged over entries -> 1 x 1.
Var mseLoss(const Var& pred, const Matrix& target);

// ---- gradient writes ---------------------------------------------------------

// The backward closures write gradients through these. On an interior node,
// or with no LeafGradLog active, they apply the write at once; on a
// parameter under an active log they record it instead.

/// grad(p) += g (g has p's shape), one row after another.
void accumulate(Node& p, const Matrix& g);

/// Row `row` of grad(p) += v[0, cols).
void accumulateRow(Node& p, std::size_t row, const float* v);

/// grad(p) += a^T x for p k x m: a is 1 x k, x is 1 x m (addOuter, zero
/// entries of a skipped).
void accumulateOuter(Node& p, const float* a, const float* x);

/// The parameter-gradient writes of backward passes, recorded as operands
/// instead of applied. Backward passes over one shared set of weights can
/// then run on several threads, each on its own model replica and into its
/// own log, and the caller applies the logs afterwards in the order a
/// single-threaded sweep would have made the writes. replay() runs the same
/// kernels on the same operands, so every gradient element receives the
/// same float additions in the same order: the result is bit-identical.
/// Parameters are addressed by Node::slot(), so a log recorded on one
/// replica replays onto any store with the same layout.
class LeafGradLog {
 public:
  /// Drops the entries (and keeps the capacity for the next pass).
  void clear();

  /// Applies the recorded writes, in recording order, to the gradients of
  /// `params` (indexed by slot), restricted to rows [part * R / parts,
  /// (part + 1) * R / parts) of each parameter with R rows. Distinct parts
  /// touch disjoint rows and may replay concurrently. Every gradient must
  /// be allocated beforehand (ParamStore::zeroGrad).
  void replay(const std::vector<Var>& params, std::size_t part,
              std::size_t parts) const;

 private:
  friend void accumulateRow(Node& p, std::size_t row, const float* v);
  friend void accumulateOuter(Node& p, const float* a, const float* x);

  /// Marks an outer-product entry in Entry::row.
  static constexpr std::uint32_t kOuter =
      std::numeric_limits<std::uint32_t>::max();
  struct Entry {
    std::uint32_t slot;  ///< the parameter
    std::uint32_t row;   ///< the row added to, or kOuter
    std::uint32_t a;     ///< offset of the added row (kOuter: of a)
    std::uint32_t x;     ///< kOuter: offset of x
  };

  static std::uint32_t slotOf(const Node& p);
  /// Offset of a copy of v[0, n) in data_. The LSTM cell hands the same
  /// gradient row to its bias, its Wh write and its Wx write, with Wh's
  /// other operand between the last two, so a repeat of either of the two
  /// previous operands' bytes shares that copy.
  std::uint32_t store(const float* v, std::size_t n);

  /// A stored operand: its offset in data_ and its length.
  struct Operand {
    std::uint32_t offset = 0;
    std::size_t size = 0;
  };

  std::vector<Entry> entries_;
  std::vector<float> data_;
  Operand recent_[2];  ///< the last operand stored, then the one before
};

/// While alive, parameter-gradient writes on this thread are recorded into
/// `log`. Scopes nest; the innermost log wins.
class LeafGradLogScope {
 public:
  explicit LeafGradLogScope(LeafGradLog& log);
  ~LeafGradLogScope();
  LeafGradLogScope(const LeafGradLogScope&) = delete;
  LeafGradLogScope& operator=(const LeafGradLogScope&) = delete;

 private:
  LeafGradLog* previous_;
};

// ---- engine -----------------------------------------------------------------

/// Seeds d(root)/d(root) = 1 and back-propagates through the whole graph.
/// `root` must be 1 x 1 (a loss).
void backward(const Var& root);

/// Registry of trainable parameters for optimizers and serialization.
class ParamStore {
 public:
  /// Creates + registers a parameter node.
  Var make(Matrix value);
  /// Registers an existing parameter node.
  void add(Var param);

  const std::vector<Var>& params() const { return params_; }
  std::size_t totalParameters() const;
  void zeroGrad();

  /// Global L2 norm of all gradients (for clipping / diagnostics).
  float gradNorm() const;
  /// Scales all gradients so the global norm is at most `max_norm`.
  void clipGradNorm(float max_norm);

  /// Weight generation: bumped by every in-place weight update (optimizer
  /// steps, loadParams; code writing values directly must call bumpVersion
  /// itself). Inference caches derived from the weights compare it to know
  /// when they went stale.
  std::uint64_t version() const { return version_; }
  void bumpVersion() { ++version_; }

 private:
  std::vector<Var> params_;
  std::uint64_t version_ = 0;
};

}  // namespace netsyn::nn
