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
//
// The two trace-reading wrappers grade through a BatchGrader, which spreads
// a scoreBatch call's genes over model replicas on several threads. A gene's
// logits depend only on the spec, the weights and its own trace features,
// so the scores are the same bits at any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dsl/domain.hpp"
#include "fitness/fitness.hpp"
#include "fitness/model.hpp"
#include "util/gang.hpp"

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

/// Grading threads for each of `searches` searches running at once on this
/// host: max(1, hardware threads / searches).
std::size_t gradeThreads(std::size_t searches = 1);

/// Logits of a scoreBatch call's genes, on up to `threads` threads.
/// Run-backed contexts are first encoded on the calling thread
/// (NnffModel::encodeTrace). The genes are then split into contiguous
/// shards of at least kMinGenesPerShard genes, one per thread; shard s runs
/// NnffModel::predictBatch on model s, where model 0 is the primary and the
/// others are its clones, re-copied whenever the primary's weight version
/// moves. Per-gene logits are independent of the batch they ride in and of
/// the models' memo state (pinned by tests/test_batch_parity.cpp), so the
/// result is bitwise the single-thread one.
class BatchGrader {
 public:
  /// Smallest shard worth a thread. An untuned starting point: waking a
  /// worker has a fixed cost that a shard must outweigh, but the crossover
  /// has not been measured.
  static constexpr std::size_t kMinGenesPerShard = 3;

  BatchGrader(std::shared_ptr<NnffModel> model, std::size_t threads);

  std::vector<std::vector<float>> logits(
      const std::vector<const dsl::Program*>& genes,
      const std::vector<const EvalContext*>& contexts);

 private:
  std::shared_ptr<NnffModel> model_;
  std::size_t threads_;
  std::vector<EncodedTrace> slots_;  ///< encodings of run-backed contexts
  std::vector<const EncodedTrace*> encoded_;  ///< each gene's features
  std::unique_ptr<util::Gang> gang_;  ///< shards 1, 2, ...; the caller joins
  std::vector<std::unique_ptr<NnffModel>> replicas_;  ///< models 1, 2, ...
  std::vector<std::uint64_t> replicaVersion_;  ///< primary version copied
};

/// f_CF / f_LCS: expectation of the classifier's predicted fitness class.
class NeuralFitness final : public FitnessFunction {
 public:
  /// `threads` grade each scoreBatch call (BatchGrader).
  NeuralFitness(std::shared_ptr<NnffModel> model, std::string name,
                std::size_t threads = gradeThreads());

  /// A batch of one.
  double score(const dsl::Program& gene, const EvalContext& ctx) override;
  /// One batched forward over the whole population (BatchGrader).
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
  BatchGrader grader_;
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
  explicit RegressionFitness(std::shared_ptr<NnffModel> model,
                             std::size_t threads = gradeThreads());

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
  BatchGrader grader_;
};

}  // namespace netsyn::fitness
