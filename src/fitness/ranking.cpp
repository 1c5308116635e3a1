#include "fitness/ranking.hpp"

#include <algorithm>
#include <stdexcept>

#include "fitness/minibatch.hpp"
#include "nn/optim.hpp"
#include "util/executor.hpp"

namespace netsyn::fitness {

std::vector<RankEpochStats> RankTrainer::train(
    NnffModel& model, const std::vector<PairSample>& trainSet,
    const std::vector<PairSample>& valSet,
    const std::function<void(const RankEpochStats&)>& onEpoch) const {
  if (model.config().head != HeadKind::Regression)
    throw std::invalid_argument("RankTrainer requires a Regression head");
  if (trainSet.empty()) throw std::invalid_argument("empty pair set");

  MinibatchRunner runner(
      model, std::min(util::Executor::instance().concurrency(),
                      std::max<std::size_t>(1, config_.batchSize)));
  nn::Adam opt(model.params(), config_.learningRate);
  util::Rng shuffler(config_.shuffleSeed);
  std::vector<std::size_t> order(trainSet.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  std::vector<RankEpochStats> history;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    shuffler.shuffle(order);
    double epochLoss = 0.0;
    for (std::size_t start = 0; start < order.size();
         start += config_.batchSize) {
      const std::size_t end =
          std::min(order.size(), start + config_.batchSize);
      runner.step(
          end - start,
          [&](const NnffModel& m, std::size_t i) {
            const PairSample& p = trainSet[order[start + i]];
            const nn::Var sa = m.forward(p.spec, p.a, p.tracesA);
            const nn::Var sb = m.forward(p.spec, p.b, p.tracesB);
            const nn::Matrix label(1, 1,
                                   p.metricA > p.metricB ? 1.0f : 0.0f);
            return nn::bceWithLogits(nn::sub(sa, sb), label);
          },
          config_.gradClip, opt, epochLoss);
    }

    RankEpochStats stats;
    stats.epoch = epoch;
    stats.trainLoss = epochLoss / static_cast<double>(trainSet.size());
    if (!valSet.empty()) stats.valPairAccuracy = pairAccuracy(model, valSet);
    history.push_back(stats);
    if (onEpoch) onEpoch(stats);
  }
  return history;
}

double RankTrainer::pairAccuracy(const NnffModel& model,
                                 const std::vector<PairSample>& set) {
  if (set.empty()) return 0.0;
  std::size_t correct = 0;
  EncodedTrace ea, eb;
  for (const PairSample& p : set) {
    model.encodeTrace(p.spec, p.a, p.tracesA, ea);
    model.encodeTrace(p.spec, p.b, p.tracesB, eb);
    const auto scores = model.predictBatch(p.spec, {&p.a, &p.b}, {&ea, &eb});
    const bool predictedAFirst = scores[0][0] > scores[1][0];
    const bool actualAFirst = p.metricA > p.metricB;
    correct += (predictedAFirst == actualAFirst) ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(set.size());
}

}  // namespace netsyn::fitness
