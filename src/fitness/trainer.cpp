#include "fitness/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fitness/extras.hpp"
#include "fitness/minibatch.hpp"
#include "nn/optim.hpp"
#include "util/executor.hpp"

namespace netsyn::fitness {

std::size_t Trainer::classLabel(const NnffModel& model,
                                const Sample& sample) const {
  const std::size_t raw =
      config_.labelMetric == BalanceMetric::CF ? sample.cf : sample.lcs;
  if (config_.labelTransform == LabelTransform::ZeroVsNonzero)
    return raw == 0 ? 0 : 1;
  return std::min(raw, model.config().numClasses - 1);
}

namespace {

/// Multilabel targets of `sample` for a head `out` wide: per-function
/// presence, or adjacent-pair presence for the bigram model (§5.3.1).
std::vector<float> multilabelTargets(const Sample& sample, std::size_t out) {
  if (out == sample.funcPresence.size()) return sample.funcPresence;
  auto pairs = bigramTargets(sample.target);
  if (pairs.size() != out)
    throw std::invalid_argument("unsupported multilabel width");
  return pairs;
}

/// Fraction of the multilabel head's functions whose (p >= 0.5) matches
/// their presence in the target.
double multilabelHitRate(const nn::Matrix& logits,
                         const std::vector<float>& targets) {
  std::size_t hits = 0;
  for (std::size_t j = 0; j < targets.size(); ++j) {
    const bool predicted = logits.at(j) >= 0.0f;  // p >= 0.5
    const bool present = targets[j] >= 0.5f;
    hits += (predicted == present) ? 1 : 0;
  }
  return static_cast<double>(hits) / static_cast<double>(targets.size());
}

std::size_t argmaxClass(const nn::Matrix& logits) {
  const auto probs = nn::softmaxValue(logits);
  std::size_t argmax = 0;
  for (std::size_t j = 1; j < probs.cols(); ++j)
    if (probs.at(j) > probs.at(argmax)) argmax = j;
  return argmax;
}

}  // namespace

float Trainer::regressionLabel(const Sample& sample) const {
  return static_cast<float>(
      config_.labelMetric == BalanceMetric::CF ? sample.cf : sample.lcs);
}

nn::Var Trainer::headOutput(const NnffModel& model,
                            const Sample& sample) const {
  if (model.config().head == HeadKind::Multilabel)
    return model.forwardIOOnly(sample.spec);
  return model.forward(sample.spec, sample.candidate, sample.traces);
}

nn::Var Trainer::lossOf(const NnffModel& model, const Sample& sample,
                        const nn::Var& out) const {
  switch (model.config().head) {
    case HeadKind::Classifier:
      return nn::softmaxCrossEntropy(out, classLabel(model, sample));
    case HeadKind::Multilabel: {
      const auto targets = multilabelTargets(sample, model.outDim());
      return nn::bceWithLogits(out, nn::Matrix::row(targets));
    }
    case HeadKind::Regression:
      return nn::mseLoss(out, nn::Matrix(1, 1, regressionLabel(sample)));
  }
  throw std::logic_error("unknown head");
}

nn::Var Trainer::sampleLoss(const NnffModel& model,
                            const Sample& sample) const {
  return lossOf(model, sample, headOutput(model, sample));
}

std::size_t Trainer::threads() const {
  if (config_.threads != 0) return config_.threads;
  return std::min(util::Executor::instance().concurrency(),
                  std::max<std::size_t>(1, config_.batchSize));
}

std::vector<EpochStats> Trainer::train(
    NnffModel& model, const std::vector<Sample>& trainSet,
    const std::vector<Sample>& valSet,
    const std::function<void(const EpochStats&)>& onEpoch) const {
  if (trainSet.empty()) throw std::invalid_argument("empty training set");

  MinibatchRunner runner(model, threads());
  nn::Adam opt(model.params(), config_.learningRate);
  util::Rng shuffler(config_.shuffleSeed);
  std::vector<std::size_t> order(trainSet.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const double valBaseRate = baseRate(model, valSet);

  std::vector<EpochStats> history;
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
            return sampleLoss(m, trainSet[order[start + i]]);
          },
          config_.gradClip, opt, epochLoss);
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.trainLoss = epochLoss / static_cast<double>(trainSet.size());
    if (!valSet.empty()) {
      const auto [loss, acc] = evaluate(runner, valSet);
      stats.valLoss = loss;
      stats.valAccuracy = acc;
      stats.valBaseRate = valBaseRate;
    }
    history.push_back(stats);
    if (onEpoch) onEpoch(stats);
  }
  return history;
}

std::pair<double, double> Trainer::evaluate(
    const NnffModel& model, const std::vector<Sample>& set) const {
  if (set.empty()) return {0.0, 0.0};
  // A runner holds the model it trains, so a const model is evaluated
  // through a copy.
  const auto copy = model.clone();
  MinibatchRunner runner(*copy, threads());
  return evaluate(runner, set);
}

std::pair<double, double> Trainer::evaluate(
    MinibatchRunner& runner, const std::vector<Sample>& set) const {
  if (set.empty()) return {0.0, 0.0};
  // Per sample: its loss and its accuracy credit, from one forward.
  std::vector<std::pair<float, double>> scored(set.size());
  runner.forEach(set.size(), [&](const NnffModel& model, std::size_t i) {
    const Sample& s = set[i];
    const nn::Var out = headOutput(model, s);
    double credit = 0.0;
    switch (model.config().head) {
      case HeadKind::Classifier:
        credit = (argmaxClass(out->value()) == classLabel(model, s)) ? 1.0
                                                                    : 0.0;
        break;
      case HeadKind::Multilabel:
        credit = multilabelHitRate(out->value(),
                                   multilabelTargets(s, model.outDim()));
        break;
      case HeadKind::Regression:
        // "Accurate" when the rounded prediction hits the label.
        credit = (std::lround(out->value().at(0)) ==
                  std::lround(regressionLabel(s)))
                     ? 1.0
                     : 0.0;
        break;
    }
    scored[i] = {lossOf(model, s, out)->scalar(), credit};
  });
  double totalLoss = 0.0;
  double correct = 0.0;
  for (const auto& [loss, credit] : scored) {
    totalLoss += loss;
    correct += credit;
  }
  return {totalLoss / static_cast<double>(set.size()),
          correct / static_cast<double>(set.size())};
}

double Trainer::baseRate(const NnffModel& model,
                         const std::vector<Sample>& set) const {
  if (set.empty()) return 0.0;
  const double n = static_cast<double>(set.size());
  if (model.config().head == HeadKind::Multilabel) {
    // Predicting every function absent hits exactly the absent ones.
    double hits = 0.0;
    for (const Sample& s : set)
      hits += multilabelHitRate(
          nn::Matrix(1, model.outDim(), -1.0f),
          multilabelTargets(s, model.outDim()));
    return hits / n;
  }
  std::vector<std::size_t> counts;
  for (const Sample& s : set) {
    const std::size_t label =
        model.config().head == HeadKind::Classifier
            ? classLabel(model, s)
            : static_cast<std::size_t>(std::lround(regressionLabel(s)));
    if (label >= counts.size()) counts.resize(label + 1, 0);
    ++counts[label];
  }
  return static_cast<double>(*std::max_element(counts.begin(), counts.end())) /
         n;
}

util::ConfusionMatrix Trainer::confusion(const NnffModel& model,
                                         const std::vector<Sample>& set) const {
  if (model.config().head != HeadKind::Classifier)
    throw std::logic_error("confusion() requires a Classifier head");
  nn::InferenceModeGuard guard;
  util::ConfusionMatrix cm(model.config().numClasses);
  for (const Sample& s : set) {
    const auto logits = model.forward(s.spec, s.candidate, s.traces);
    cm.add(classLabel(model, s), argmaxClass(logits->value()));
  }
  return cm;
}

double Trainer::multilabelAccuracy(const NnffModel& model,
                                   const std::vector<Sample>& set) {
  if (model.config().head != HeadKind::Multilabel)
    throw std::logic_error("multilabelAccuracy requires a Multilabel head");
  if (set.empty()) return 0.0;
  nn::InferenceModeGuard guard;
  double correct = 0.0;
  for (const Sample& s : set) {
    const auto logits = model.forwardIOOnly(s.spec);
    correct += multilabelHitRate(logits->value(),
                                 multilabelTargets(s, model.outDim()));
  }
  return correct / static_cast<double>(set.size());
}

double Trainer::regressionMae(const NnffModel& model,
                              const std::vector<Sample>& set) const {
  if (model.config().head != HeadKind::Regression)
    throw std::logic_error("regressionMae requires a Regression head");
  if (set.empty()) return 0.0;
  nn::InferenceModeGuard guard;
  double total = 0.0;
  for (const Sample& s : set) {
    const auto pred = model.forward(s.spec, s.candidate, s.traces);
    total += std::fabs(static_cast<double>(pred->value().at(0)) -
                       static_cast<double>(regressionLabel(s)));
  }
  return total / static_cast<double>(set.size());
}

}  // namespace netsyn::fitness
