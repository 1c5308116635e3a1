// Gradient-descent optimizers over a ParamStore: SGD with momentum and Adam.
#pragma once

#include <vector>

#include "nn/autograd.hpp"

namespace netsyn::nn {

/// Optimizer interface: `step()` applies the accumulated gradients to the
/// parameters; the caller zeroes gradients between minibatches.
class Optimizer {
 public:
  virtual ~Optimizer() = default;
  virtual void step() = 0;
};

/// Stochastic gradient descent with classical momentum.
class Sgd final : public Optimizer {
 public:
  Sgd(ParamStore& store, float lr, float momentum = 0.0f);

  void step() override;
  void setLearningRate(float lr) { lr_ = lr; }
  float learningRate() const { return lr_; }

 private:
  ParamStore& store_;
  float lr_;
  float momentum_;
  std::vector<Matrix> velocity_;
};

/// Adam (Kingma & Ba, 2015) with bias correction.
class Adam final : public Optimizer {
 public:
  Adam(ParamStore& store, float lr = 1e-3f, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);

  void step() override;
  void setLearningRate(float lr) { lr_ = lr; }
  float learningRate() const { return lr_; }
  /// First and second moment estimates, one matrix per parameter in
  /// ParamStore order.
  const std::vector<Matrix>& firstMoments() const { return m_; }
  const std::vector<Matrix>& secondMoments() const { return v_; }

 private:
  ParamStore& store_;
  float lr_, beta1_, beta2_, eps_;
  long t_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace netsyn::nn
