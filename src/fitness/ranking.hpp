// §5.3.1 relative-ordering ablation: train a network to *order* genes
// instead of scoring them.
//
// The paper: "the ultimate goal of the fitness score is to provide an order
// among genes for the Roulette Wheel algorithm... we attempted to have the
// neural network predict this ordering directly. However, we were not able
// to train a network to predict this relative ordering whose accuracy was
// higher than the one for absolute fitness scores."
//
// We implement the natural formulation (RankNet): the Regression-head model
// produces a scalar score s(g); a pair (a, b) graded against the same spec
// is trained with BCE(sigmoid(s_a - s_b), [metric_a > metric_b]). The
// trained model plugs into the GA through RegressionFitness.
#pragma once

#include <functional>
#include <vector>

#include "fitness/dataset.hpp"
#include "fitness/model.hpp"

namespace netsyn::fitness {

struct RankTrainConfig {
  std::size_t epochs = 4;
  std::size_t batchSize = 8;
  float learningRate = 1e-2f;
  float gradClip = 5.0f;
  std::uint64_t shuffleSeed = 7;
};

struct RankEpochStats {
  std::size_t epoch = 0;
  double trainLoss = 0.0;
  double valPairAccuracy = 0.0;  ///< fraction of val pairs ordered correctly
};

class RankTrainer {
 public:
  explicit RankTrainer(RankTrainConfig config = {}) : config_(config) {}

  const RankTrainConfig& config() const { return config_; }

  /// Trains `model` (Regression head required) on ordered pairs; returns
  /// per-epoch statistics. Minibatches run data-parallel on up to batchSize
  /// threads of the process-wide util::Executor, with weights bit-identical
  /// to the single-threaded sweep (fitness/minibatch.hpp).
  std::vector<RankEpochStats> train(
      NnffModel& model, const std::vector<PairSample>& trainSet,
      const std::vector<PairSample>& valSet,
      const std::function<void(const RankEpochStats&)>& onEpoch = {}) const;

  /// Fraction of pairs whose predicted score ordering matches the oracle
  /// metric ordering (fast inference path).
  static double pairAccuracy(const NnffModel& model,
                             const std::vector<PairSample>& set);

 private:
  RankTrainConfig config_;
};

}  // namespace netsyn::fitness
