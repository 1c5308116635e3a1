// Training and evaluation loops for the NN-FF models.
//
// Supervision depends on the model head:
//   Classifier -> cross-entropy against the (clamped) CF or LCS label,
//   Multilabel -> binary cross-entropy against the target's 41-way
//                 function-presence vector (the FP probability map),
//   Regression -> squared error against the raw metric value (§5.3.1
//                 ablation).
// Evaluation produces the artifacts of Figure 7: confusion matrices for the
// classifiers and thresholded per-function accuracy for the FP model.
#pragma once

#include <functional>
#include <vector>

#include "fitness/dataset.hpp"
#include "fitness/model.hpp"
#include "util/stats.hpp"

namespace netsyn::fitness {

class MinibatchRunner;  // minibatch.hpp

/// How the oracle metric maps onto classifier labels.
enum class LabelTransform : std::uint8_t {
  Identity,       ///< label = metric value, clamped to numClasses-1
  ZeroVsNonzero,  ///< label = (metric == 0 ? 0 : 1), the §5.3.1 gate tier
};

struct TrainConfig {
  std::size_t epochs = 5;
  std::size_t batchSize = 8;
  float learningRate = 1e-3f;  ///< Adam
  float gradClip = 5.0f;       ///< global-norm clip; <= 0 disables
  BalanceMetric labelMetric = BalanceMetric::CF;  ///< classifier/regression
  LabelTransform labelTransform = LabelTransform::Identity;
  std::uint64_t shuffleSeed = 7;
  /// Most threads of the process-wide util::Executor a minibatch or the
  /// validation pass runs on (0 = the executor's concurrency, at most
  /// batchSize: a minibatch has no work for more). Purely a
  /// throughput knob: the trained weights and every statistic are
  /// bit-identical for every value (fitness/minibatch.hpp), so it is
  /// neither serialized nor a CLI flag.
  std::size_t threads = 0;
};

struct EpochStats {
  std::size_t epoch = 0;
  double trainLoss = 0.0;
  double valLoss = 0.0;
  double valAccuracy = 0.0;  ///< head-appropriate accuracy (see trainer.cpp)
  /// valAccuracy of a constant predictor (Trainer::baseRate): the floor a
  /// useful model has to beat.
  double valBaseRate = 0.0;
};

class Trainer {
 public:
  explicit Trainer(TrainConfig config = {}) : config_(config) {}

  const TrainConfig& config() const { return config_; }

  /// Most threads train() and evaluate() run on (TrainConfig::threads, 0
  /// resolved).
  std::size_t threads() const;

  /// Trains `model` in place; returns per-epoch statistics. `onEpoch` (if
  /// set) observes each epoch's stats (used by the Figure 7c bench). Each
  /// minibatch runs data-parallel on threads() workers with weights
  /// bit-identical to the single-threaded sweep (fitness/minibatch.hpp).
  std::vector<EpochStats> train(
      NnffModel& model, const std::vector<Sample>& trainSet,
      const std::vector<Sample>& valSet,
      const std::function<void(const EpochStats&)>& onEpoch = {}) const;

  /// Supervised label of `sample` for this trainer's metric, clamped to the
  /// classifier range.
  std::size_t classLabel(const NnffModel& model, const Sample& sample) const;

  /// Loss of one sample under the model's head (builds a graph when not in
  /// inference mode).
  nn::Var sampleLoss(const NnffModel& model, const Sample& sample) const;

  /// Mean loss + accuracy on a dataset (inference mode, one forward per
  /// sample, spread over threads() workers and summed in sample order).
  std::pair<double, double> evaluate(const NnffModel& model,
                                     const std::vector<Sample>& set) const;

  /// Accuracy, as evaluate() scores it, of the best constant predictor: the
  /// majority label's rate for the Classifier and Regression heads, the
  /// all-absent hit rate for the Multilabel head. Independent of weights.
  double baseRate(const NnffModel& model,
                  const std::vector<Sample>& set) const;

  /// Row-normalizable confusion matrix over the classifier's classes
  /// (Figure 7a-b). Requires a Classifier head.
  util::ConfusionMatrix confusion(const NnffModel& model,
                                  const std::vector<Sample>& set) const;

  /// FP accuracy per the paper: a function's probability is "correct" when
  /// (p >= 0.5) matches its presence in the target. Averaged over all
  /// (sample, function) pairs. Requires a Multilabel head.
  static double multilabelAccuracy(const NnffModel& model,
                                   const std::vector<Sample>& set);

  /// Mean absolute prediction error of a Regression head (for the §5.3.1
  /// comparison against classification).
  double regressionMae(const NnffModel& model,
                       const std::vector<Sample>& set) const;

 private:
  /// The head's output for `sample`: forward(), or forwardIOOnly() for the
  /// multilabel head.
  nn::Var headOutput(const NnffModel& model, const Sample& sample) const;
  /// The head's loss on that output.
  nn::Var lossOf(const NnffModel& model, const Sample& sample,
                 const nn::Var& out) const;
  /// Regression target: the sample's metric value.
  float regressionLabel(const Sample& sample) const;
  /// evaluate() on `runner`'s workers.
  std::pair<double, double> evaluate(MinibatchRunner& runner,
                                     const std::vector<Sample>& set) const;

  TrainConfig config_;
};

}  // namespace netsyn::fitness
