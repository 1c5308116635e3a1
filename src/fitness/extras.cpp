#include "fitness/extras.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace netsyn::fitness {
namespace {

std::vector<double> softmaxOf(const std::vector<float>& logits) {
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

/// `model`'s logits for one gene: a batch of one over its encoded runs.
std::vector<float> logitsOf(const NnffModel& model, const dsl::Program& gene,
                            const EvalContext& ctx) {
  EncodedTrace encoded;
  model.encodeTrace(ctx.spec, gene, ctx.runs, encoded);
  return model.predictBatch(ctx.spec, {&gene}, {&encoded})[0];
}

}  // namespace

std::vector<float> bigramTargets(const dsl::Program& program) {
  std::vector<float> targets(kBigramDim, 0.0f);
  for (std::size_t k = 0; k + 1 < program.length(); ++k) {
    const auto a = static_cast<std::size_t>(program.at(k));
    const auto b = static_cast<std::size_t>(program.at(k + 1));
    targets[a * dsl::kNumFunctions + b] = 1.0f;
  }
  return targets;
}

TwoTierFitness::TwoTierFitness(std::shared_ptr<NnffModel> gate,
                               std::shared_ptr<NnffModel> value)
    : gate_(std::move(gate)), value_(std::move(value)) {
  if (gate_->config().head != HeadKind::Classifier ||
      gate_->config().numClasses != 2)
    throw std::invalid_argument(
        "TwoTierFitness gate must be a 2-class Classifier");
  if (value_->config().head != HeadKind::Classifier)
    throw std::invalid_argument(
        "TwoTierFitness value model must be a Classifier");
}

double TwoTierFitness::gateProbability(const dsl::Program& gene,
                                       const EvalContext& ctx) const {
  // class 1 = "fitness is non-zero"
  return softmaxOf(logitsOf(*gate_, gene, ctx))[1];
}

double TwoTierFitness::score(const dsl::Program& gene,
                             const EvalContext& ctx) {
  if (gateProbability(gene, ctx) < 0.5) return 0.0;
  const auto probs = softmaxOf(logitsOf(*value_, gene, ctx));
  double expectation = 0.0;
  for (std::size_t j = 0; j < probs.size(); ++j)
    expectation += static_cast<double>(j) * probs[j];
  return expectation;
}

BigramFitness::BigramFitness(std::shared_ptr<NnffModel> bigramModel)
    : model_(std::move(bigramModel)) {
  if (model_->config().head != HeadKind::Multilabel ||
      model_->config().useTrace || model_->outDim() != kBigramDim)
    throw std::invalid_argument(
        "BigramFitness requires an IO-only Multilabel model with 41^2 "
        "outputs");
}

const std::vector<double>& BigramFitness::pairMap(const dsl::Spec& spec) {
  const std::uint64_t fp = spec.fingerprint();
  if (hasCachedMap_ && cachedFingerprint_ == fp) return cachedMap_;
  const auto logits = model_->predictIOOnly(spec);
  cachedMap_.resize(kBigramDim);
  for (std::size_t j = 0; j < kBigramDim; ++j) {
    cachedMap_[j] =
        1.0 / (1.0 + std::exp(-static_cast<double>(logits[j])));
  }
  hasCachedMap_ = true;
  cachedFingerprint_ = fp;
  return cachedMap_;
}

double BigramFitness::score(const dsl::Program& gene,
                            const EvalContext& ctx) {
  const auto& map = pairMap(ctx.spec);
  double total = 0.0;
  for (std::size_t k = 0; k + 1 < gene.length(); ++k) {
    const auto a = static_cast<std::size_t>(gene.at(k));
    const auto b = static_cast<std::size_t>(gene.at(k + 1));
    total += map[a * dsl::kNumFunctions + b];
  }
  return total;
}

}  // namespace netsyn::fitness
