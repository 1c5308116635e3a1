#include "fitness/minibatch.hpp"

#include <algorithm>
#include <atomic>

#include "util/executor.hpp"

// The runner returns the malloc arenas' free pages when it is destroyed
// (see ~MinibatchRunner). Only with glibc's allocator in charge: glibc's
// malloc_trim crashes when a sanitizer has replaced malloc.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define NETSYN_MALLOC_REPLACED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define NETSYN_MALLOC_REPLACED 1
#endif
#endif
#if defined(__GLIBC__) && !defined(NETSYN_MALLOC_REPLACED)
#define NETSYN_TRIM_ARENAS 1
#include <malloc.h>
#endif

namespace netsyn::fitness {

MinibatchRunner::MinibatchRunner(NnffModel& model, std::size_t threads)
    : model_(model), threads_(std::max<std::size_t>(1, threads)) {
  if (threads_ == 1) return;
  for (std::size_t w = 0; w < threads_; ++w) replicas_.push_back(model.clone());
  replicaVersion_.assign(threads_, model.params().version());
}

MinibatchRunner::~MinibatchRunner() {
#ifdef NETSYN_TRIM_ARENAS
  // glibc gives each executor worker its own malloc arena, and the pages of
  // the sample graphs and gradient logs freed there stay resident (0.3-0.7
  // MB per worker at ci scale). malloc_trim walks every arena, so one call
  // here returns most of them to the OS.
  if (threads_ == 1) return;
  replicas_.clear();
  logs_.clear();
  malloc_trim(0);
#endif
}

const NnffModel& MinibatchRunner::replica(std::size_t w) {
  NnffModel& r = *replicas_[w];
  const std::uint64_t version = model_.params().version();
  if (replicaVersion_[w] != version) {
    r.copyWeightsFrom(model_);
    replicaVersion_[w] = version;
  }
  return r;
}

void MinibatchRunner::step(std::size_t n, const LossFn& loss, float gradClip,
                           nn::Optimizer& opt, double& lossSum) {
  nn::ParamStore& params = model_.params();
  params.zeroGrad();
  const float scale = 1.0f / static_cast<float>(n);
  losses_.assign(n, 0.0f);
  if (threads_ == 1) {
    // The serial sweep's order, one graph alive at a time.
    for (std::size_t i = n; i-- > 0;) {
      const nn::Var l = loss(model_, i);
      losses_[i] = l->scalar();
      nn::backward(nn::scale(l, scale));
    }
  } else {
    if (logs_.size() < n) logs_.resize(n);
    std::atomic<std::size_t> next{0};
    const auto backwardSamples = [&](std::size_t w) {
      const NnffModel& m = replica(w);
      for (std::size_t i; (i = next.fetch_add(1)) < n;) {
        nn::LeafGradLog& log = logs_[i];
        log.clear();
        nn::LeafGradLogScope scope(log);
        const nn::Var l = loss(m, i);
        losses_[i] = l->scalar();
        nn::backward(nn::scale(l, scale));
      }
    };
    const auto replayPart = [&](std::size_t part) {
      for (std::size_t i = n; i-- > 0;)
        logs_[i].replay(params.params(), part, threads_);
    };
    util::Executor& executor = util::Executor::instance();
    executor.run(std::min(threads_, n), backwardSamples, threads_);
    executor.run(threads_, replayPart, threads_);
  }
  for (float l : losses_) lossSum += l;
  if (gradClip > 0.0f) params.clipGradNorm(gradClip);
  opt.step();
}

void MinibatchRunner::forEach(
    std::size_t n,
    const std::function<void(const NnffModel&, std::size_t)>& fn) {
  if (threads_ == 1) {
    nn::InferenceModeGuard guard;
    for (std::size_t i = 0; i < n; ++i) fn(model_, i);
    return;
  }
  std::atomic<std::size_t> next{0};
  const auto forwardSamples = [&](std::size_t w) {
    const NnffModel& m = replica(w);
    nn::InferenceModeGuard guard;
    for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(m, i);
  };
  util::Executor::instance().run(std::min(threads_, n), forwardSamples,
                                 threads_);
}

}  // namespace netsyn::fitness
