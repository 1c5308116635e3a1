#include "nn/optim.hpp"

#include <cmath>

namespace netsyn::nn {

Sgd::Sgd(ParamStore& store, float lr, float momentum)
    : store_(store), lr_(lr), momentum_(momentum) {
  for (const auto& p : store_.params())
    velocity_.emplace_back(p->value().rows(), p->value().cols(), 0.0f);
}

void Sgd::step() {
  const auto& params = store_.params();
  for (std::size_t k = 0; k < params.size(); ++k) {
    Matrix& vel = velocity_[k];
    Node& p = *params[k];
    for (std::size_t i = 0; i < p.value().size(); ++i) {
      vel.at(i) = momentum_ * vel.at(i) + p.grad().at(i);
      p.value().at(i) -= lr_ * vel.at(i);
    }
  }
  store_.bumpVersion();
}

Adam::Adam(ParamStore& store, float lr, float beta1, float beta2, float eps)
    : store_(store), lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  for (const auto& p : store_.params()) {
    m_.emplace_back(p->value().rows(), p->value().cols(), 0.0f);
    v_.emplace_back(p->value().rows(), p->value().cols(), 0.0f);
  }
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  const auto& params = store_.params();
  for (std::size_t k = 0; k < params.size(); ++k) {
    Node& p = *params[k];
    Matrix& m = m_[k];
    Matrix& v = v_[k];
    const std::size_t n = p.value().size();
    float* w = p.value().data();
    const float* gr = p.grad().data();
    float* mv = m.data();
    float* vv = v.data();
    for (std::size_t i = 0; i < n; ++i) {
      const float g = gr[i];
      mv[i] = beta1_ * mv[i] + (1.0f - beta1_) * g;
      vv[i] = beta2_ * vv[i] + (1.0f - beta2_) * g * g;
      const float mhat = mv[i] / bc1;
      const float vhat = vv[i] / bc2;
      w[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
  store_.bumpVersion();
}

}  // namespace netsyn::nn
