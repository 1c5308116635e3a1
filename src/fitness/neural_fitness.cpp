#include "fitness/neural_fitness.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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

/// Logits of every gene: one predictBatch per maximal run of contexts
/// sharing a spec (in the GA every context shares the generation's spec, so
/// this is one batch). Lane-encoded contexts are fed as they are; run-backed
/// ones are first encoded from their ExecResults, read in place, into
/// `slots` (reused across calls, so steady-state grading allocates no trace
/// storage).
std::vector<std::vector<float>> batchLogits(
    const NnffModel& model, const std::vector<const dsl::Program*>& genes,
    const std::vector<const EvalContext*>& contexts,
    std::vector<EncodedTrace>& slots) {
  std::vector<std::vector<float>> out(genes.size());
  if (slots.size() < genes.size()) slots.resize(genes.size());
  std::size_t begin = 0;
  while (begin < genes.size()) {
    const dsl::Spec& spec = contexts[begin]->spec;
    std::size_t end = begin + 1;
    while (end < genes.size() && &contexts[end]->spec == &spec) ++end;
    std::vector<const dsl::Program*> progs(genes.begin() + begin,
                                           genes.begin() + end);
    std::vector<const EncodedTrace*> encoded(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      if (contexts[i]->encoded == nullptr)
        model.encodeTrace(spec, *genes[i], contexts[i]->runs, slots[i]);
      encoded[i - begin] =
          contexts[i]->encoded ? contexts[i]->encoded : &slots[i];
    }
    auto logits = model.predictBatch(spec, progs, encoded);
    std::move(logits.begin(), logits.end(), out.begin() + begin);
    begin = end;
  }
  return out;
}

}  // namespace

NeuralFitness::NeuralFitness(std::shared_ptr<NnffModel> model,
                             std::string name)
    : model_(std::move(model)), name_(std::move(name)), sink_(model_.get()) {
  if (model_->config().head != HeadKind::Classifier)
    throw std::invalid_argument("NeuralFitness requires a Classifier head");
}

std::vector<double> NeuralFitness::classProbabilities(
    const dsl::Program& gene, const EvalContext& ctx) const {
  std::vector<EncodedTrace> slot;
  return softmaxOfLogits(batchLogits(*model_, {&gene}, {&ctx}, slot)[0]);
}

double NeuralFitness::score(const dsl::Program& gene,
                            const EvalContext& ctx) {
  return scoreBatch({&gene}, {&ctx})[0];
}

std::vector<double> NeuralFitness::scoreBatch(
    const std::vector<const dsl::Program*>& genes,
    const std::vector<const EvalContext*>& contexts) {
  const auto logits = batchLogits(*model_, genes, contexts, slots_);
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

RegressionFitness::RegressionFitness(std::shared_ptr<NnffModel> model)
    : model_(std::move(model)), sink_(model_.get()) {
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
  const auto preds = batchLogits(*model_, genes, contexts, slots_);
  std::vector<double> out(preds.size());
  for (std::size_t i = 0; i < preds.size(); ++i)
    out[i] = std::max(0.0, static_cast<double>(preds[i][0]));
  return out;
}

}  // namespace netsyn::fitness
