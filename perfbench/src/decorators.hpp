// Forwarding decorators that put spans around each layer's public entry
// points: Method::synthesize, FitnessFunction::scoreBatch,
// LaneTraceSink::beginCapture/capture and ProbMapProvider::probMap. Each
// forwards every call unchanged, so a traced search follows the exact
// trajectory of the untraced one (the fidelity check in search.cpp holds
// the benchmark to that).
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "baselines/method.hpp"
#include "fitness/fitness.hpp"
#include "fitness/neural_fitness.hpp"
#include "trace.hpp"

namespace perfbench {

/// A deterministic sample of the candidates a search graded: every
/// `stride`-th gene each fitness instance sees, keyed so the order does not
/// depend on island-thread scheduling. Replayed through a fresh evaluator
/// to measure the dsl layer (search.cpp).
class GeneSampler {
 public:
  struct Entry {
    std::size_t task = 0;
    std::size_t island = 0;
    std::size_t seq = 0;  ///< index within that fitness instance's stream
    netsyn::dsl::Program program;
  };

  explicit GeneSampler(std::size_t stride) : stride_(stride) {}
  std::size_t stride() const { return stride_; }
  void setTask(std::size_t task) { task_ = task; }
  std::size_t task() const { return task_; }
  /// A buffer for one fitness instance. Only that instance appends to it, so
  /// island threads sample without sharing a lock or a growing vector.
  std::vector<Entry>* newBuffer();
  /// All entries sorted by (task, island, seq). Call only while no search
  /// runs.
  std::vector<Entry> sorted() const;

 private:
  std::size_t stride_;
  std::size_t task_ = 0;  ///< set between synthesize calls only
  mutable std::mutex mu_;  ///< guards buffers_ (registration only)
  std::vector<std::unique_ptr<std::vector<Entry>>> buffers_;
};

/// Times LaneTraceSink calls, so the search keeps its lane-view path while
/// trace encoding shows up as its own layer.
class TimingSink final : public netsyn::fitness::LaneTraceSink {
 public:
  explicit TimingSink(netsyn::fitness::LaneTraceSink* inner) : inner_(inner) {}
  void beginCapture(const netsyn::dsl::Spec& spec, std::size_t count) override;
  void capture(std::size_t slot, const netsyn::dsl::Program& candidate,
               const netsyn::dsl::LaneTraceView& view) override;
  const netsyn::fitness::EncodedTrace& at(std::size_t slot) const override {
    return inner_->at(slot);
  }

 private:
  netsyn::fitness::LaneTraceSink* inner_;
};

class TracedFitness final : public netsyn::fitness::FitnessFunction {
 public:
  /// `layer` is GradeNn or GradeEdit; `sampler` (optional) receives the
  /// graded-candidate sample, tagged with `island`. Sampling runs in its own
  /// Sample span, so its cost is kept out of core self time.
  TracedFitness(netsyn::fitness::FitnessPtr inner, Layer layer,
                GeneSampler* sampler, std::size_t island);

  double score(const netsyn::dsl::Program& gene,
               const netsyn::fitness::EvalContext& ctx) override;
  std::vector<double> scoreBatch(
      const std::vector<const netsyn::dsl::Program*>& genes,
      const std::vector<const netsyn::fitness::EvalContext*>& contexts)
      override;
  double maxScore(std::size_t targetLength) const override {
    return inner_->maxScore(targetLength);
  }
  std::string name() const override { return inner_->name(); }
  netsyn::fitness::LaneTraceSink* laneSink() override;

 private:
  void sample(const std::vector<const netsyn::dsl::Program*>& genes);

  netsyn::fitness::FitnessPtr inner_;
  Layer layer_;
  GeneSampler* sampler_;
  std::vector<GeneSampler::Entry>* buffer_ = nullptr;  ///< owned by sampler_
  std::size_t island_;
  std::size_t seen_ = 0;
  std::unique_ptr<TimingSink> sink_;
};

class TracedProbMap final : public netsyn::fitness::ProbMapProvider {
 public:
  explicit TracedProbMap(
      std::shared_ptr<netsyn::fitness::ProbMapProvider> inner)
      : inner_(std::move(inner)) {}
  std::vector<double> probMap(const netsyn::dsl::Spec& spec) override {
    ScopedSpan span(Layer::ProbMap);
    return inner_->probMap(spec);
  }
  const netsyn::dsl::Domain& domain() const override {
    return inner_->domain();
  }

 private:
  std::shared_ptr<netsyn::fitness::ProbMapProvider> inner_;
};

class TracedMethod final : public netsyn::baselines::Method {
 public:
  explicit TracedMethod(netsyn::baselines::MethodPtr inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  netsyn::core::SynthesisResult synthesize(const netsyn::dsl::Spec& spec,
                                           std::size_t targetLength,
                                           std::size_t budgetLimit,
                                           netsyn::util::Rng& rng) override {
    ScopedSpan span(Layer::Synthesize);
    return inner_->synthesize(spec, targetLength, budgetLimit, rng);
  }

 private:
  netsyn::baselines::MethodPtr inner_;
};

}  // namespace perfbench
