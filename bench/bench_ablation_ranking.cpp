// Reproduces the §5.3.1 relative-ordering ablation: a network trained to
// predict which of two genes is closer to the target (RankNet over the
// Regression head) compared against the ordering implied by the absolute
// fitness classifier.
//
// Paper shape to verify: the relative-ordering model's pair accuracy does
// not exceed the accuracy obtainable from absolute fitness scores ("we were
// not able to train a network to predict this relative ordering whose
// accuracy was higher than the one for absolute fitness scores").
#include <cmath>

#include "bench_common.hpp"
#include "fitness/ranking.hpp"

using namespace netsyn;

namespace {

/// Ordering accuracy of the absolute classifier: order each pair by the
/// class expectation of the cached f_CF model.
double classifierPairAccuracy(const fitness::NnffModel& model,
                              const std::vector<fitness::PairSample>& set) {
  fitness::EncodedTrace encoded;
  auto expectation = [&](const dsl::Program& gene, const dsl::Spec& spec,
                         const std::vector<std::vector<dsl::Value>>& traces) {
    model.encodeTrace(spec, gene, traces, encoded);
    const auto logits = model.predictBatch(spec, {&gene}, {&encoded})[0];
    const float mx = *std::max_element(logits.begin(), logits.end());
    double num = 0.0, den = 0.0;
    for (std::size_t j = 0; j < logits.size(); ++j) {
      const double p = std::exp(static_cast<double>(logits[j] - mx));
      num += static_cast<double>(j) * p;
      den += p;
    }
    return num / den;
  };
  std::size_t correct = 0;
  for (const auto& p : set) {
    const double sa = expectation(p.a, p.spec, p.tracesA);
    const double sb = expectation(p.b, p.spec, p.tracesB);
    correct += ((sa > sb) == (p.metricA > p.metricB)) ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(set.size());
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParse args(argc, argv);
  auto config = harness::ExperimentConfig::fromArgs(args);
  // Pairs cost two forward passes each; a smaller corpus keeps the default
  // run to a couple of minutes.
  const auto numPairs = static_cast<std::size_t>(
      args.getInt("train-pairs", 1500));
  bench::banner("§5.3.1 ablation: relative-ordering (ranking) model", config);

  const auto models = harness::loadOrTrainAll(config);

  fitness::DatasetConfig dc;
  dc.programLength = config.trainingLength;
  dc.numExamples = config.modelConfig.maxExamples;
  util::Rng rng(config.seed + 91);
  std::fprintf(stderr, "[ranking] building %zu training pairs...\n",
               numPairs);
  const auto trainPairs =
      fitness::buildPairs(dc, numPairs, fitness::BalanceMetric::CF, rng);
  const auto valPairs =
      fitness::buildPairs(dc, 300, fitness::BalanceMetric::CF, rng);

  auto rankModel = harness::buildModel(config, fitness::HeadKind::Regression);
  fitness::RankTrainConfig rc;
  rc.epochs = config.trainConfig.epochs / 2 + 1;
  rc.learningRate = config.trainConfig.learningRate;
  fitness::RankTrainer trainer(rc);
  std::fprintf(stderr, "[ranking] training RankNet...\n");
  trainer.train(*rankModel, trainPairs, valPairs,
                [](const fitness::RankEpochStats& e) {
                  std::fprintf(stderr,
                               "[ranking]   epoch %zu: loss %.4f acc %.3f\n",
                               e.epoch, e.trainLoss, e.valPairAccuracy);
                });

  const double rankAcc =
      fitness::RankTrainer::pairAccuracy(*rankModel, valPairs);
  const double absAcc = classifierPairAccuracy(*models.cf, valPairs);

  util::Table table({"Ordering source", "Pair accuracy"});
  table.newRow().add("Absolute fitness (f_CF expectation)").addPercent(absAcc, 1);
  table.newRow().add("Relative-ordering RankNet").addPercent(rankAcc, 1);
  bench::emit(table, args, "ablation_ranking.csv");
  return 0;
}
