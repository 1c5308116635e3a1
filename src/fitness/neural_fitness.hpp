// Learned fitness functions: the NN-FF wrappers the genetic algorithm calls.
//
// NeuralFitness wraps a Classifier-head model (f_CF or f_LCS): the gene's
// grade is the expectation of the predicted class distribution (a smoother
// ranking signal than argmax for the Roulette Wheel).
//
// ProbMapFitness wraps the Multilabel (FP) model: the probability map
// p = (p_1..p_|Sigma|) depends only on the spec, so it is computed once and
// cached; a gene's grade is sum of p_k over its functions (paper §4.2.1).
// The same map drives the FP-guided mutation operator and the
// DeepCoder-style baseline, via the ProbMapProvider interface.
//
// RegressionFitness wraps the Regression-head ablation model (§5.3.1).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dsl/domain.hpp"
#include "fitness/fitness.hpp"
#include "fitness/model.hpp"

namespace netsyn::fitness {

/// Anything that can produce Prob(op in P_t | spec) for every op of one
/// domain's vocabulary. The map is indexed by *domain-local* function index
/// (vocabulary order; equal to global FuncId for the list domain) and has
/// exactly domain().vocabSize() entries — consumers translate through
/// domain().vocabulary / localIndex().
class ProbMapProvider {
 public:
  virtual ~ProbMapProvider() = default;
  virtual std::vector<double> probMap(const dsl::Spec& spec) = 0;
  /// The domain whose vocabulary the map ranges over.
  virtual const dsl::Domain& domain() const { return dsl::listDomain(); }
};

/// LaneTraceSink that encodes views straight into NN-ready features via
/// NnffModel::encodeLaneTrace. Slots are preallocated in beginCapture so
/// at(slot) references stay stable while the generation is graded.
class ModelLaneSink final : public LaneTraceSink {
 public:
  explicit ModelLaneSink(const NnffModel* model) : model_(model) {}

  void beginCapture(const dsl::Spec& spec, std::size_t count) override {
    model_->beginLaneCapture(spec);
    spec_ = &spec;
    if (slots_.size() < count) slots_.resize(count);
  }

  void capture(std::size_t slot, const dsl::Program& candidate,
               const dsl::LaneTraceView& view) override {
    model_->encodeLaneTrace(*spec_, candidate, view, slots_[slot]);
  }

  const EncodedTrace& at(std::size_t slot) const override {
    return slots_[slot];
  }

 private:
  const NnffModel* model_;
  const dsl::Spec* spec_ = nullptr;
  std::vector<EncodedTrace> slots_;
};

/// f_CF / f_LCS: expectation of the classifier's predicted fitness class.
class NeuralFitness final : public FitnessFunction {
 public:
  NeuralFitness(std::shared_ptr<NnffModel> model, std::string name);

  /// A batch of one.
  double score(const dsl::Program& gene, const EvalContext& ctx) override;
  /// One batched forward over the whole population (NnffModel::predictBatch);
  /// run-backed contexts are encoded first (NnffModel::encodeTrace).
  std::vector<double> scoreBatch(
      const std::vector<const dsl::Program*>& genes,
      const std::vector<const EvalContext*>& contexts) override;
  double maxScore(std::size_t) const override {
    return static_cast<double>(model_->config().numClasses - 1);
  }
  std::string name() const override { return name_; }

  /// Lane-view grading is available whenever the model reads traces.
  LaneTraceSink* laneSink() override {
    return model_->config().useTrace ? &sink_ : nullptr;
  }

  /// Full predicted class distribution (used by tests and diagnostics).
  std::vector<double> classProbabilities(const dsl::Program& gene,
                                         const EvalContext& ctx) const;

 private:
  std::shared_ptr<NnffModel> model_;
  std::string name_;
  ModelLaneSink sink_{nullptr};
  std::vector<EncodedTrace> slots_;  ///< encodings of run-backed contexts
};

/// f_FP: sum of learned per-function probabilities over the gene. The map's
/// width and indexing follow the FP model's domain (NnffConfig::domain).
class ProbMapFitness final : public FitnessFunction, public ProbMapProvider {
 public:
  explicit ProbMapFitness(std::shared_ptr<NnffModel> fpModel);

  double score(const dsl::Program& gene, const EvalContext& ctx) override;
  /// Computes (or fetches) the per-spec map once for the whole population
  /// instead of once per gene.
  std::vector<double> scoreBatch(
      const std::vector<const dsl::Program*>& genes,
      const std::vector<const EvalContext*>& contexts) override;
  double maxScore(std::size_t targetLength) const override {
    return static_cast<double>(targetLength);  // all probabilities <= 1
  }
  std::string name() const override { return "NN_FP"; }

  /// Cached per-spec probability map (domain-local order). Invalidation is
  /// by content fingerprint, not by address: a different spec allocated
  /// where the old one lived must not return a stale map.
  std::vector<double> probMap(const dsl::Spec& spec) override;

  const dsl::Domain& domain() const override { return *domain_; }

 private:
  std::shared_ptr<NnffModel> model_;
  const dsl::Domain* domain_;  ///< resolved from the model's config
  bool hasCachedMap_ = false;
  std::uint64_t cachedFingerprint_ = 0;
  std::vector<double> cachedMap_;
};

/// §5.3.1 ablation: raw scalar prediction as fitness (clamped to >= 0 so it
/// remains a valid Roulette Wheel weight).
class RegressionFitness final : public FitnessFunction {
 public:
  explicit RegressionFitness(std::shared_ptr<NnffModel> model);

  /// A batch of one, like NeuralFitness.
  double score(const dsl::Program& gene, const EvalContext& ctx) override;
  std::vector<double> scoreBatch(
      const std::vector<const dsl::Program*>& genes,
      const std::vector<const EvalContext*>& contexts) override;
  double maxScore(std::size_t targetLength) const override {
    return static_cast<double>(targetLength);
  }
  std::string name() const override { return "NN_Regression"; }

  LaneTraceSink* laneSink() override {
    return model_->config().useTrace ? &sink_ : nullptr;
  }

 private:
  std::shared_ptr<NnffModel> model_;
  ModelLaneSink sink_{nullptr};
  std::vector<EncodedTrace> slots_;  ///< encodings of run-backed contexts
};

}  // namespace netsyn::fitness
