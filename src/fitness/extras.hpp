// The additional fitness-function designs of paper §5.3.1.
//
// Two-tier fitness: a first ("gate") network predicts whether a gene's
// fitness is zero; a second predicts the actual non-zero value. The paper
// reports that gate mispredictions eliminate enough good genes to reduce
// NetSyn's synthesis rate — this implementation lets the ablation bench
// reproduce that comparison.
//
// Bigram model: a multilabel network predicts which adjacent function
// *pairs* appear in the target (41x41 outputs, of which >99% are zero); a
// gene's fitness is the sum of its adjacent-pair probabilities. The paper
// found the resulting system comparable to DeepCoder with large drops on
// singleton programs.
#pragma once

#include <cstdint>
#include <memory>

#include "fitness/fitness.hpp"
#include "fitness/model.hpp"

namespace netsyn::fitness {

/// Multi-hot target vector for the bigram model: entry a*41+b is 1 when the
/// program contains function a immediately followed by function b.
std::vector<float> bigramTargets(const dsl::Program& program);

/// Width of the bigram output layer (41 * 41).
inline constexpr std::size_t kBigramDim =
    dsl::kNumFunctions * dsl::kNumFunctions;

/// §5.3.1 two-tier fitness: gate (classes {zero, nonzero}) then value.
///
/// score = 0 when the gate predicts "zero fitness"; otherwise the value
/// model's class expectation. Both models use the trace branch.
class TwoTierFitness final : public FitnessFunction {
 public:
  /// `gate` must be a 2-class Classifier; `value` a Classifier whose classes
  /// are the fitness values (trained on non-zero-label samples).
  TwoTierFitness(std::shared_ptr<NnffModel> gate,
                 std::shared_ptr<NnffModel> value);

  double score(const dsl::Program& gene, const EvalContext& ctx) override;
  double maxScore(std::size_t) const override {
    return static_cast<double>(value_->config().numClasses - 1);
  }
  std::string name() const override { return "NN_TwoTier"; }

  /// Gate decision for diagnostics: P(fitness > 0 | gene).
  double gateProbability(const dsl::Program& gene,
                         const EvalContext& ctx) const;

 private:
  std::shared_ptr<NnffModel> gate_;
  std::shared_ptr<NnffModel> value_;
};

/// §5.3.1 bigram fitness: sum of predicted adjacent-pair probabilities.
/// IO-only like the FP map (the prediction conditions on the spec alone),
/// cached per spec.
class BigramFitness final : public FitnessFunction {
 public:
  explicit BigramFitness(std::shared_ptr<NnffModel> bigramModel);

  double score(const dsl::Program& gene, const EvalContext& ctx) override;
  double maxScore(std::size_t targetLength) const override {
    return targetLength == 0 ? 0.0 : static_cast<double>(targetLength - 1);
  }
  std::string name() const override { return "NN_Bigram"; }

  /// The full predicted pair-probability map for `spec`, cached by content
  /// fingerprint (like ProbMapFitness::probMap): a different spec built at
  /// the old one's address must not return a stale map.
  const std::vector<double>& pairMap(const dsl::Spec& spec);

 private:
  std::shared_ptr<NnffModel> model_;
  bool hasCachedMap_ = false;
  std::uint64_t cachedFingerprint_ = 0;
  std::vector<double> cachedMap_;
};

}  // namespace netsyn::fitness
