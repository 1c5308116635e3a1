#include "fitness/neural_fitness.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

namespace netsyn::fitness {
namespace {

/// Stable softmax over raw logits.
std::vector<double> softmaxOfLogits(const std::vector<float>& logits) {
  const float mx = *std::max_element(logits.begin(), logits.end());
  std::vector<double> probs(logits.size());
  double sum = 0.0;
  for (std::size_t j = 0; j < logits.size(); ++j) {
    probs[j] = std::exp(static_cast<double>(logits[j] - mx));
    sum += probs[j];
  }
  for (double& p : probs) p /= sum;
  return probs;
}

double expectationFromLogits(const std::vector<float>& logits) {
  const auto probs = softmaxOfLogits(logits);
  double expectation = 0.0;
  for (std::size_t j = 0; j < probs.size(); ++j)
    expectation += static_cast<double>(j) * probs[j];
  return expectation;
}

/// Points encoded[i] at gene i's trace features: its context's lane
/// encoding, or the encoding of its runs, read in place, into slots[i]
/// (reused across calls, so steady-state grading allocates no trace
/// storage).
void encodeContexts(const NnffModel& model,
                    const std::vector<const dsl::Program*>& genes,
                    const std::vector<const EvalContext*>& contexts,
                    std::vector<EncodedTrace>& slots,
                    std::vector<const EncodedTrace*>& encoded) {
  if (slots.size() < genes.size()) slots.resize(genes.size());
  encoded.resize(genes.size());
  for (std::size_t i = 0; i < genes.size(); ++i) {
    const EvalContext& ctx = *contexts[i];
    if (ctx.encoded == nullptr)
      model.encodeTrace(ctx.spec, *genes[i], ctx.runs, slots[i]);
    encoded[i] = ctx.encoded ? ctx.encoded : &slots[i];
  }
}

/// out[i] := the logits of gene i for i in [begin, end): one predictBatch
/// per maximal run of contexts sharing a spec (in the GA every context
/// shares the generation's spec, so this is one batch).
void predictRange(const NnffModel& model,
                  const std::vector<const dsl::Program*>& genes,
                  const std::vector<const EvalContext*>& contexts,
                  const std::vector<const EncodedTrace*>& encoded,
                  std::size_t begin, std::size_t end,
                  std::vector<std::vector<float>>& out) {
  while (begin < end) {
    const dsl::Spec& spec = contexts[begin]->spec;
    std::size_t stop = begin + 1;
    while (stop < end && &contexts[stop]->spec == &spec) ++stop;
    auto logits = model.predictBatch(
        spec, {genes.begin() + begin, genes.begin() + stop},
        {encoded.begin() + begin, encoded.begin() + stop});
    std::move(logits.begin(), logits.end(), out.begin() + begin);
    begin = stop;
  }
}

/// Logits of every gene on the calling thread: the oracle sharded grading
/// reproduces.
std::vector<std::vector<float>> batchLogits(
    const NnffModel& model, const std::vector<const dsl::Program*>& genes,
    const std::vector<const EvalContext*>& contexts,
    std::vector<EncodedTrace>& slots,
    std::vector<const EncodedTrace*>& encoded) {
  std::vector<std::vector<float>> out(genes.size());
  encodeContexts(model, genes, contexts, slots, encoded);
  predictRange(model, genes, contexts, encoded, 0, genes.size(), out);
  return out;
}

}  // namespace

std::size_t gradeThreads(std::size_t searches) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::max<std::size_t>(1, hw / std::max<std::size_t>(1, searches));
}

BatchGrader::BatchGrader(std::shared_ptr<NnffModel> model,
                         std::size_t threads)
    : model_(std::move(model)), threads_(std::max<std::size_t>(1, threads)) {}

std::vector<std::vector<float>> BatchGrader::logits(
    const std::vector<const dsl::Program*>& genes,
    const std::vector<const EvalContext*>& contexts) {
  const std::size_t n = genes.size();
  const std::size_t shards =
      std::clamp<std::size_t>(n / kMinGenesPerShard, 1, threads_);
  if (shards == 1)
    return batchLogits(*model_, genes, contexts, slots_, encoded_);
  std::vector<std::vector<float>> out(n);
  encodeContexts(*model_, genes, contexts, slots_, encoded_);
  // The gang and the replicas grow to the most shards a call has needed,
  // not to threads_: workers that no call would feed are never started.
  if (replicas_.size() < shards - 1)
    gang_ = std::make_unique<util::Gang>(shards - 1);
  const std::uint64_t version = model_->params().version();
  while (replicas_.size() < shards - 1) {
    replicas_.push_back(model_->clone());
    replicaVersion_.push_back(version);
  }
  for (std::size_t r = 0; r + 1 < shards; ++r) {
    if (replicaVersion_[r] == version) continue;
    replicas_[r]->copyWeightsFrom(*model_);
    replicaVersion_[r] = version;
  }
  gang_->runWithCaller(shards, [&](std::size_t s) {
    const NnffModel& m = s == 0 ? *model_ : *replicas_[s - 1];
    predictRange(m, genes, contexts, encoded_, n * s / shards,
                 n * (s + 1) / shards, out);
  });
  return out;
}

NeuralFitness::NeuralFitness(std::shared_ptr<NnffModel> model,
                             std::string name, std::size_t threads)
    : model_(std::move(model)),
      name_(std::move(name)),
      sink_(model_.get()),
      grader_(model_, threads) {
  if (model_->config().head != HeadKind::Classifier)
    throw std::invalid_argument("NeuralFitness requires a Classifier head");
}

std::vector<double> NeuralFitness::classProbabilities(
    const dsl::Program& gene, const EvalContext& ctx) const {
  std::vector<EncodedTrace> slot;
  std::vector<const EncodedTrace*> encoded;
  return softmaxOfLogits(
      batchLogits(*model_, {&gene}, {&ctx}, slot, encoded)[0]);
}

double NeuralFitness::score(const dsl::Program& gene,
                            const EvalContext& ctx) {
  return scoreBatch({&gene}, {&ctx})[0];
}

std::vector<double> NeuralFitness::scoreBatch(
    const std::vector<const dsl::Program*>& genes,
    const std::vector<const EvalContext*>& contexts) {
  const auto logits = grader_.logits(genes, contexts);
  std::vector<double> out(logits.size());
  for (std::size_t i = 0; i < logits.size(); ++i)
    out[i] = expectationFromLogits(logits[i]);
  return out;
}

ProbMapFitness::ProbMapFitness(std::shared_ptr<NnffModel> fpModel)
    : model_(std::move(fpModel)),
      domain_(&dsl::resolveDomain(model_->config().domain)) {
  if (model_->config().head != HeadKind::Multilabel ||
      model_->config().useTrace)
    throw std::invalid_argument(
        "ProbMapFitness requires an IO-only Multilabel model");
  if (model_->outDim() != domain_->vocabSize())
    throw std::invalid_argument(
        "ProbMapFitness: multilabel width != domain vocabulary size");
}

std::vector<double> ProbMapFitness::probMap(const dsl::Spec& spec) {
  const std::uint64_t fp = spec.fingerprint();
  if (hasCachedMap_ && cachedFingerprint_ == fp) return cachedMap_;
  const auto logits = model_->predictIOOnly(spec);
  cachedMap_.resize(domain_->vocabSize());
  for (std::size_t j = 0; j < cachedMap_.size(); ++j) {
    cachedMap_[j] =
        1.0 / (1.0 + std::exp(-static_cast<double>(logits[j])));
  }
  hasCachedMap_ = true;
  cachedFingerprint_ = fp;
  return cachedMap_;
}

double ProbMapFitness::score(const dsl::Program& gene,
                             const EvalContext& ctx) {
  const auto map = probMap(ctx.spec);
  double total = 0.0;
  for (dsl::FuncId f : gene.functions()) total += map[domain_->localIndex(f)];
  return total;
}

std::vector<double> ProbMapFitness::scoreBatch(
    const std::vector<const dsl::Program*>& genes,
    const std::vector<const EvalContext*>& contexts) {
  std::vector<double> out(genes.size());
  std::size_t begin = 0;
  while (begin < genes.size()) {
    std::size_t end = begin + 1;
    while (end < genes.size() &&
           &contexts[end]->spec == &contexts[begin]->spec)
      ++end;
    const auto map = probMap(contexts[begin]->spec);
    for (std::size_t i = begin; i < end; ++i) {
      double total = 0.0;
      for (dsl::FuncId f : genes[i]->functions())
        total += map[domain_->localIndex(f)];
      out[i] = total;
    }
    begin = end;
  }
  return out;
}

RegressionFitness::RegressionFitness(std::shared_ptr<NnffModel> model,
                                     std::size_t threads)
    : model_(std::move(model)), sink_(model_.get()), grader_(model_, threads) {
  if (model_->config().head != HeadKind::Regression)
    throw std::invalid_argument("RegressionFitness requires Regression head");
}

double RegressionFitness::score(const dsl::Program& gene,
                                const EvalContext& ctx) {
  return scoreBatch({&gene}, {&ctx})[0];
}

std::vector<double> RegressionFitness::scoreBatch(
    const std::vector<const dsl::Program*>& genes,
    const std::vector<const EvalContext*>& contexts) {
  const auto preds = grader_.logits(genes, contexts);
  std::vector<double> out(preds.size());
  for (std::size_t i = 0; i < preds.size(); ++i)
    out[i] = std::max(0.0, static_cast<double>(preds[i][0]));
  return out;
}

}  // namespace netsyn::fitness
