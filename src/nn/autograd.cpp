#include "nn/autograd.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "nn/gates.hpp"

namespace netsyn::nn {

Var constant(Matrix value) {
  return std::make_shared<Node>(std::move(value), /*requires_grad=*/false);
}

Var parameter(Matrix value) {
  return std::make_shared<Node>(std::move(value), /*requires_grad=*/true);
}

namespace {
thread_local bool g_inference_mode = false;
thread_local LeafGradLog* g_leaf_log = nullptr;
/// Worklist of the outermost Node destructor running on this thread, or
/// nullptr when none runs.
thread_local std::vector<Var>* g_dying = nullptr;
}  // namespace

Node::~Node() {
  // Inside a teardown, hand the parents to its worklist: releasing them
  // here would recurse once per node of a chain.
  if (g_dying != nullptr) {
    for (Var& p : parents_) g_dying->push_back(std::move(p));
    return;
  }
  if (parents_.empty()) return;
  std::vector<Var> dying = std::move(parents_);
  g_dying = &dying;
  while (!dying.empty()) {
    Var p = std::move(dying.back());
    dying.pop_back();
    p.reset();  // a last handle runs ~Node, which appends p's parents
  }
  g_dying = nullptr;
}

void Node::checkLeafGradAccess() const {
  if (g_leaf_log != nullptr)
    throw std::logic_error(
        "parameter gradient accessed while a LeafGradLog is active: the "
        "write must go through accumulate/accumulateRow/accumulateOuter");
}

LeafGradLogScope::LeafGradLogScope(LeafGradLog& log) : previous_(g_leaf_log) {
  g_leaf_log = &log;
}

LeafGradLogScope::~LeafGradLogScope() { g_leaf_log = previous_; }

void LeafGradLog::clear() {
  entries_.clear();
  data_.clear();
  recent_[0] = recent_[1] = Operand{};
}

std::uint32_t LeafGradLog::slotOf(const Node& p) {
  if (p.slot() == Node::kNoSlot)
    throw std::logic_error("LeafGradLog: parameter not in a ParamStore");
  return p.slot();
}

std::uint32_t LeafGradLog::store(const float* v, std::size_t n) {
  for (const Operand& o : recent_)
    if (o.size == n &&
        std::memcmp(data_.data() + o.offset, v, n * sizeof(float)) == 0)
      return o.offset;
  recent_[1] = recent_[0];
  recent_[0] = {static_cast<std::uint32_t>(data_.size()), n};
  data_.insert(data_.end(), v, v + n);
  return recent_[0].offset;
}

void LeafGradLog::replay(const std::vector<Var>& params, std::size_t part,
                         std::size_t parts) const {
  for (const Entry& e : entries_) {
    Matrix& g = params[e.slot]->grad();
    const std::size_t rows = g.rows(), m = g.cols();
    const std::size_t r0 = part * rows / parts;
    const std::size_t r1 = (part + 1) * rows / parts;
    if (e.row == kOuter) {
      if (r0 < r1)
        addOuter(g.data() + r0 * m, data_.data() + e.a + r0,
                 data_.data() + e.x, r1 - r0, m);
    } else if (e.row >= r0 && e.row < r1) {
      float* out = g.data() + e.row * m;
      const float* v = data_.data() + e.a;
      for (std::size_t j = 0; j < m; ++j) out[j] += v[j];
    }
  }
}

void accumulate(Node& p, const Matrix& g) {
  if (g_leaf_log == nullptr || !p.isParameter()) {
    p.grad().addInPlace(g);
    return;
  }
  for (std::size_t r = 0; r < g.rows(); ++r)
    accumulateRow(p, r, g.data() + r * g.cols());
}

void accumulateRow(Node& p, std::size_t row, const float* v) {
  LeafGradLog* log = g_leaf_log;
  if (log == nullptr || !p.isParameter()) {
    Matrix& g = p.grad();
    float* out = g.data() + row * g.cols();
    for (std::size_t j = 0; j < g.cols(); ++j) out[j] += v[j];
    return;
  }
  const std::uint32_t slot = LeafGradLog::slotOf(p);
  const std::uint32_t at = log->store(v, p.value().cols());
  log->entries_.push_back({slot, static_cast<std::uint32_t>(row), at, 0});
}

void accumulateOuter(Node& p, const float* a, const float* x) {
  const std::size_t k = p.value().rows(), m = p.value().cols();
  LeafGradLog* log = g_leaf_log;
  if (log == nullptr || !p.isParameter()) {
    addOuter(p.grad().data(), a, x, k, m);
    return;
  }
  const std::uint32_t slot = LeafGradLog::slotOf(p);
  // x first: the LSTM cell's bias write just stored the same row.
  const std::uint32_t xAt = log->store(x, m);
  const std::uint32_t aAt = log->store(a, k);
  log->entries_.push_back({slot, LeafGradLog::kOuter, aAt, xAt});
}

InferenceModeGuard::InferenceModeGuard() : previous_(g_inference_mode) {
  g_inference_mode = true;
}

InferenceModeGuard::~InferenceModeGuard() { g_inference_mode = previous_; }

bool inferenceModeEnabled() { return g_inference_mode; }

Var makeNode(Matrix value, std::vector<Var> parents,
             std::function<void(Node&)> backfn) {
  // Value-only node in inference mode or over constants alone: no graph
  // retention, and nothing downstream scatters gradient into it.
  const bool tracked =
      !g_inference_mode &&
      std::any_of(parents.begin(), parents.end(),
                  [](const Var& p) { return p->requiresGrad(); });
  auto node = std::make_shared<Node>(std::move(value), tracked);
  if (tracked) {
    node->parents_ = std::move(parents);
    node->backfn_ = std::move(backfn);
  }
  return node;
}

namespace {

void requireSameShape(const Var& a, const Var& b, const char* op) {
  if (!a->value().sameShape(b->value()))
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                a->value().shapeString() + " vs " +
                                b->value().shapeString());
}

// Backward closures reach their inputs through the node's parents rather
// than capturing them: a capture-free closure fits std::function's inline
// buffer, and the tape takes no extra reference counts.
Node& parent(Node& n, std::size_t i) { return *n.parents()[i]; }

}  // namespace

Var add(const Var& a, const Var& b) {
  requireSameShape(a, b, "add");
  Matrix out = a->value();
  out.addInPlace(b->value());
  return makeNode(std::move(out), {a, b}, [](Node& n) {
    Node& a = parent(n, 0);
    Node& b = parent(n, 1);
    if (a.requiresGrad()) accumulate(a, n.grad());
    if (b.requiresGrad()) accumulate(b, n.grad());
  });
}

Var sub(const Var& a, const Var& b) {
  requireSameShape(a, b, "sub");
  Matrix out = a->value();
  out.axpyInPlace(-1.0f, b->value());
  return makeNode(std::move(out), {a, b}, [](Node& n) {
    Node& a = parent(n, 0);
    Node& b = parent(n, 1);
    if (a.requiresGrad()) a.grad().addInPlace(n.grad());
    if (b.requiresGrad()) b.grad().axpyInPlace(-1.0f, n.grad());
  });
}

Var mulElem(const Var& a, const Var& b) {
  requireSameShape(a, b, "mulElem");
  Matrix out = a->value();
  for (std::size_t i = 0; i < out.size(); ++i) out.at(i) *= b->value().at(i);
  return makeNode(std::move(out), {a, b}, [](Node& n) {
    Node& a = parent(n, 0);
    Node& b = parent(n, 1);
    for (std::size_t i = 0; i < n.grad().size(); ++i) {
      if (a.requiresGrad()) a.grad().at(i) += n.grad().at(i) * b.value().at(i);
      if (b.requiresGrad()) b.grad().at(i) += n.grad().at(i) * a.value().at(i);
    }
  });
}

Var scale(const Var& a, float s) {
  Matrix out = a->value();
  for (std::size_t i = 0; i < out.size(); ++i) out.at(i) *= s;
  return makeNode(std::move(out), {a}, [s](Node& n) {
    parent(n, 0).grad().axpyInPlace(s, n.grad());
  });
}

Var affine(const Var& x, const Var& w, const Var& base) {
  const Matrix& xv = x->value();
  const Matrix& bv = base->value();
  const std::size_t k = w->value().rows(), m = w->value().cols();
  if (xv.cols() != k || bv.rows() != 1 || bv.cols() != m)
    throw std::invalid_argument("affine: shapes disagree: " +
                                xv.shapeString() + " * " +
                                w->value().shapeString() + " + " +
                                bv.shapeString());
  Matrix out(xv.rows(), m);
  for (std::size_t i = 0; i < xv.rows(); ++i) {
    float* row = out.data() + i * m;
    std::copy(bv.data(), bv.data() + m, row);
    addRowTimesMatrix(row, xv.data() + i * k, w->value().data(), k, m);
  }
  return makeNode(std::move(out), {x, w, base}, [k, m](Node& n) {
    // Per row: dbase += g ; dW += x[i]^T g ; dx[i] += g W^T.
    Node& x = parent(n, 0);
    Node& w = parent(n, 1);
    Node& base = parent(n, 2);
    for (std::size_t i = 0; i < x.value().rows(); ++i) {
      const float* g = n.grad().data() + i * m;
      if (base.requiresGrad()) accumulateRow(base, 0, g);
      if (w.requiresGrad()) accumulateOuter(w, x.value().data() + i * k, g);
      if (x.requiresGrad())
        addRowTimesTranspose(x.grad().data() + i * k, g, w.value().data(), k,
                             m);
    }
  });
}

Var tanhOp(const Var& a) {
  Matrix out = a->value();
  for (std::size_t i = 0; i < out.size(); ++i) out.at(i) = std::tanh(out.at(i));
  return makeNode(std::move(out), {a}, [](Node& n) {
    Matrix& da = parent(n, 0).grad();
    for (std::size_t i = 0; i < n.grad().size(); ++i) {
      const float y = n.value().at(i);
      da.at(i) += n.grad().at(i) * (1.0f - y * y);
    }
  });
}

Var sigmoidOp(const Var& a) {
  Matrix out = a->value();
  for (std::size_t i = 0; i < out.size(); ++i) out.at(i) = sigmoid(out.at(i));
  return makeNode(std::move(out), {a}, [](Node& n) {
    Matrix& da = parent(n, 0).grad();
    for (std::size_t i = 0; i < n.grad().size(); ++i) {
      const float y = n.value().at(i);
      da.at(i) += n.grad().at(i) * y * (1.0f - y);
    }
  });
}

Var reluOp(const Var& a) {
  Matrix out = a->value();
  for (std::size_t i = 0; i < out.size(); ++i)
    out.at(i) = out.at(i) > 0.0f ? out.at(i) : 0.0f;
  return makeNode(std::move(out), {a}, [](Node& n) {
    Node& a = parent(n, 0);
    for (std::size_t i = 0; i < n.grad().size(); ++i)
      if (a.value().at(i) > 0.0f) a.grad().at(i) += n.grad().at(i);
  });
}

Var concatCols(const Var& a, const Var& b) {
  if (a->value().rows() != 1 || b->value().rows() != 1)
    throw std::invalid_argument("concatCols expects row vectors");
  const std::size_t na = a->value().cols(), nb = b->value().cols();
  Matrix out(1, na + nb);
  for (std::size_t j = 0; j < na; ++j) out.at(j) = a->value().at(j);
  for (std::size_t j = 0; j < nb; ++j) out.at(na + j) = b->value().at(j);
  return makeNode(std::move(out), {a, b}, [na, nb](Node& n) {
    Node& a = parent(n, 0);
    Node& b = parent(n, 1);
    if (a.requiresGrad())
      for (std::size_t j = 0; j < na; ++j) a.grad().at(j) += n.grad().at(j);
    if (b.requiresGrad())
      for (std::size_t j = 0; j < nb; ++j)
        b.grad().at(j) += n.grad().at(na + j);
  });
}

Var sliceCols(const Var& a, std::size_t start, std::size_t len) {
  if (a->value().rows() != 1 || start + len > a->value().cols())
    throw std::invalid_argument("sliceCols out of range");
  Matrix out(1, len);
  for (std::size_t j = 0; j < len; ++j) out.at(j) = a->value().at(start + j);
  return makeNode(std::move(out), {a}, [start, len](Node& n) {
    Matrix& da = parent(n, 0).grad();
    for (std::size_t j = 0; j < len; ++j) da.at(start + j) += n.grad().at(j);
  });
}

Var selectRow(const Var& a, std::size_t index) {
  if (index >= a->value().rows())
    throw std::invalid_argument("selectRow out of range");
  const std::size_t m = a->value().cols();
  Matrix out(1, m);
  for (std::size_t j = 0; j < m; ++j) out.at(j) = a->value()(index, j);
  return makeNode(std::move(out), {a}, [index](Node& n) {
    accumulateRow(parent(n, 0), index, n.grad().data());
  });
}

Var meanAll(const Var& a) {
  const float inv = 1.0f / static_cast<float>(a->value().size());
  float s = 0.0f;
  for (std::size_t i = 0; i < a->value().size(); ++i) s += a->value().at(i);
  Matrix out(1, 1);
  out.at(0) = s * inv;
  return makeNode(std::move(out), {a}, [inv](Node& n) {
    Matrix& da = parent(n, 0).grad();
    const float g = n.grad().at(0) * inv;
    for (std::size_t i = 0; i < da.size(); ++i) da.at(i) += g;
  });
}

Var softmaxCrossEntropy(const Var& logits, std::size_t label) {
  if (logits->value().rows() != 1 || label >= logits->value().cols())
    throw std::invalid_argument("softmaxCrossEntropy: bad label or shape");
  Matrix probs = softmaxValue(logits->value());
  Matrix out(1, 1);
  out.at(0) = -std::log(std::max(probs.at(label), 1e-12f));
  return makeNode(std::move(out), {logits},
                  [probs = std::move(probs), label](Node& n) {
    Matrix& dl = parent(n, 0).grad();
    const float g = n.grad().at(0);
    for (std::size_t j = 0; j < probs.cols(); ++j) {
      const float onehot = (j == label) ? 1.0f : 0.0f;
      dl.at(j) += g * (probs.at(j) - onehot);
    }
  });
}

Var bceWithLogits(const Var& logits, const Matrix& targets) {
  if (!logits->value().sameShape(targets))
    throw std::invalid_argument("bceWithLogits: shape mismatch");
  const std::size_t n = targets.size();
  const float inv = 1.0f / static_cast<float>(n);
  float loss = 0.0f;
  Matrix sig(1, n);
  for (std::size_t i = 0; i < n; ++i) {
    const float x = logits->value().at(i);
    const float t = targets.at(i);
    // Stable: max(x,0) - x*t + log(1 + exp(-|x|)).
    loss += std::max(x, 0.0f) - x * t + std::log1p(std::exp(-std::fabs(x)));
    sig.at(i) = sigmoid(x);
  }
  Matrix out(1, 1);
  out.at(0) = loss * inv;
  return makeNode(std::move(out), {logits},
                  [sig = std::move(sig), t = targets, inv](Node& nd) {
    Matrix& dl = parent(nd, 0).grad();
    const float g = nd.grad().at(0) * inv;
    for (std::size_t i = 0; i < sig.size(); ++i)
      dl.at(i) += g * (sig.at(i) - t.at(i));
  });
}

Var mseLoss(const Var& pred, const Matrix& target) {
  if (!pred->value().sameShape(target))
    throw std::invalid_argument("mseLoss: shape mismatch");
  const std::size_t n = target.size();
  const float inv = 1.0f / static_cast<float>(n);
  float loss = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float d = pred->value().at(i) - target.at(i);
    loss += d * d;
  }
  Matrix out(1, 1);
  out.at(0) = loss * inv;
  return makeNode(std::move(out), {pred}, [t = target, inv](Node& nd) {
    Node& p = parent(nd, 0);
    const float g = nd.grad().at(0) * inv;
    for (std::size_t i = 0; i < t.size(); ++i)
      p.grad().at(i) += g * 2.0f * (p.value().at(i) - t.at(i));
  });
}

void backward(const Var& root) {
  if (root->value().rows() != 1 || root->value().cols() != 1)
    throw std::invalid_argument("backward: root must be a 1x1 loss");

  // Iterative post-order topological sort (graphs can be thousands of nodes
  // deep for long sequences; recursion would overflow the stack). Only
  // interior nodes are pushed and marked: leaves have no backward function,
  // and parameters, the leaves threads share, are never written here. The
  // marks are cleared before any backward function runs.
  std::vector<Node*> order;
  std::vector<std::pair<Node*, std::size_t>> stack;
  if (!root->parents_.empty()) {
    root->visited_ = true;
    stack.emplace_back(root.get(), 0);
  }
  while (!stack.empty()) {
    auto& [node, next] = stack.back();
    if (next < node->parents_.size()) {
      Node* p = node->parents_[next].get();
      ++next;
      if (!p->parents_.empty() && !p->visited_) {
        p->visited_ = true;
        stack.emplace_back(p, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  for (Node* node : order) node->visited_ = false;

  root->grad().fill(1.0f);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backfn_) node->backfn_(*node);
  }
}

Var ParamStore::make(Matrix value) {
  Var p = parameter(std::move(value));
  add(p);
  return p;
}

void ParamStore::add(Var param) {
  param->slot_ = static_cast<std::uint32_t>(params_.size());
  params_.push_back(std::move(param));
}

std::size_t ParamStore::totalParameters() const {
  std::size_t n = 0;
  for (const auto& p : params_) n += p->value().size();
  return n;
}

void ParamStore::zeroGrad() {
  for (auto& p : params_) p->grad().fill(0.0f);
}

float ParamStore::gradNorm() const {
  double s = 0.0;
  for (const auto& p : params_)
    for (std::size_t i = 0; i < p->grad().size(); ++i) {
      const double g = p->grad().at(i);
      s += g * g;
    }
  return static_cast<float>(std::sqrt(s));
}

void ParamStore::clipGradNorm(float max_norm) {
  const float norm = gradNorm();
  if (norm <= max_norm || norm == 0.0f) return;
  const float scale = max_norm / norm;
  for (auto& p : params_)
    for (std::size_t i = 0; i < p->grad().size(); ++i)
      p->grad().at(i) *= scale;
}

}  // namespace netsyn::nn
