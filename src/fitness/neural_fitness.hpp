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
// a scoreBatch call's trace encoding and prediction over several threads
// against one set of memos. A gene's logits depend only on the spec, the
// weights and its own trace features, so the scores are the same bits at
// any thread count.
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

/// LaneTraceSink that copies each view's cells into a per-generation arena
/// (NnffModel::captureLaneCells), so the executor may reuse its lane
/// buffers as soon as capture() returns. The features are encoded later, in
/// the grading round of the BatchGrader it is handed to: a slot reads as
/// encoded only once a scoreBatch call has graded it. Slots are
/// preallocated in beginCapture so at(slot) references stay stable while
/// the generation is graded.
class ModelLaneSink final : public LaneTraceSink {
 public:
  explicit ModelLaneSink(const NnffModel* model) : model_(model) {}

  void beginCapture(const dsl::Spec& spec, std::size_t count) override;
  void capture(std::size_t slot, const dsl::Program& candidate,
               const dsl::LaneTraceView& view) override;
  const EncodedTrace& at(std::size_t slot) const override {
    return slots_[slot];
  }

  /// A captured trace handed out for encoding: write the features of
  /// `cells` (which index `words`) into `out`. Null `out`: nothing to do.
  struct Captured {
    EncodedTrace* out = nullptr;
    const CapturedCell* cells = nullptr;
    const std::int32_t* words = nullptr;
  };
  /// If `e` is a slot captured since it was last handed out, hands it out
  /// (once); the caller must encode it before anything reads the slot.
  Captured take(const EncodedTrace* e);

 private:
  const NnffModel* model_;
  const dsl::Spec* spec_ = nullptr;
  std::vector<EncodedTrace> slots_;
  std::vector<std::size_t> firstCell_;  ///< slot's first cell in cells_
  std::vector<std::uint8_t> pending_;   ///< captured, not yet handed out
  TraceCells cells_;                    ///< this generation's arena
};

/// Grading threads for each of `searches` searches running at once on this
/// host: max(1, hardware threads / searches).
std::size_t gradeThreads(std::size_t searches = 1);

/// Logits of a scoreBatch call's genes, on up to `threads` threads. Each
/// maximal run of contexts sharing a spec is graded in one round against
/// the model's shared memos (NnffModel::beginGrading ... mergeWorkspace).
/// The genes are split into contiguous shards of at least
/// kMinGenesPerShard genes, one per participant: a task that the calling
/// thread and the gang's workers claim, each on its own
/// NnffModel::Workspace. A participant first claims genes to encode from a
/// shared cursor (lane slots handed out by the sink, and run-backed
/// contexts), then predicts its own shard, encoding any gene of it still
/// unclaimed and waiting only for genes another running participant is
/// encoding. After the round the caller merges the workspaces into the
/// memos in shard order. Per-gene logits are independent of the batch they
/// ride in and of the memo state (pinned by tests/test_batch_parity.cpp),
/// so the result is bitwise the single-thread one.
class BatchGrader {
 public:
  /// Smallest shard worth a participant: a woken worker costs a fixed
  /// wake-up and per-call setup that its share of encoding and predicting
  /// must outweigh. On a 4-core x86 host (perfbench netsyn_list, shard
  /// sizes alternated call by call), mean grading-call wall time at 2 and
  /// 4 genes per shard was 0.2-2% and 5-10% above that at 3.
  static constexpr std::size_t kMinGenesPerShard = 3;

  /// `sink` (optional) is the lane sink whose captured slots reach this
  /// grader's contexts, still to be encoded; it must outlive the grader.
  BatchGrader(std::shared_ptr<NnffModel> model, ModelLaneSink* sink,
              std::size_t threads);
  BatchGrader(const BatchGrader&) = delete;
  BatchGrader& operator=(const BatchGrader&) = delete;

  std::vector<std::vector<float>> logits(
      const std::vector<const dsl::Program*>& genes,
      const std::vector<const EvalContext*>& contexts);

 private:
  /// Grades genes [begin, end), which share one spec, into out.
  void gradeRound(const std::vector<const dsl::Program*>& genes,
                  const std::vector<const EvalContext*>& contexts,
                  std::size_t begin, std::size_t end,
                  std::vector<std::vector<float>>& out);

  /// One encoding: a handed-out lane slot (`cells` set) or a run-backed
  /// context (`cells` null) of gene `gene`, written to `out`.
  struct Job {
    EncodedTrace* out;
    const CapturedCell* cells;
    const std::int32_t* words;
    std::size_t gene;
  };

  std::shared_ptr<NnffModel> model_;
  ModelLaneSink* sink_;
  std::size_t threads_;
  std::vector<EncodedTrace> slots_;  ///< encodings of run-backed contexts
  std::vector<const EncodedTrace*> encoded_;  ///< each gene's features
  std::vector<Job> jobs_;
  std::vector<std::size_t> jobOf_;  ///< gene -> its job; npos: ready
  util::HelpFirstJobs claims_;       ///< who encodes which job
  std::unique_ptr<util::Gang> gang_;  ///< participants 1, 2, ...
  std::vector<std::unique_ptr<NnffModel::Workspace>> workspaces_;
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
