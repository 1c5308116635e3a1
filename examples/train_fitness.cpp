// Train a neural fitness function (paper Phase 1, Figure 1 left).
//
// Generates a balanced corpus of (target program, candidate, traces, oracle
// fitness) samples, trains the Figure-2 LSTM model to predict the oracle
// metric, reports the validation confusion matrix, and saves the weights.
//
//   $ ./train_fitness [--metric=cf|lcs|fp] [--train-programs=4000]
//                     [--epochs=6] [--out=model.bin] [--scale=ci]
#include <cstdio>
#include <exception>

#include "harness/models.hpp"
#include "util/argparse.hpp"

using namespace netsyn;

// The real body; main() wraps it so flag-parse errors (bad --lengths,
// non-numeric --budget, unknown --domain...) print their message instead of
// tearing the process down through std::terminate.
int run(int argc, char** argv) {
  const util::ArgParse args(argc, argv);
  auto config = harness::ExperimentConfig::fromArgs(args);
  // Keep the no-argument run light: a few thousand programs train in about
  // a minute; pass --train-programs/--epochs to scale up.
  if (!args.has("train-programs")) config.trainingPrograms = 3000;
  if (!args.has("epochs")) config.trainConfig.epochs = 5;

  const std::string metricName = args.getString("metric", "cf");
  const std::string out = args.getString("out", "nnff_" + metricName + ".bin");

  fitness::HeadKind head = fitness::HeadKind::Classifier;
  fitness::BalanceMetric metric = fitness::BalanceMetric::CF;
  if (metricName == "lcs") {
    metric = fitness::BalanceMetric::LCS;
  } else if (metricName == "fp") {
    head = fitness::HeadKind::Multilabel;
  } else if (metricName != "cf") {
    std::fprintf(stderr, "unknown --metric=%s (cf|lcs|fp)\n",
                 metricName.c_str());
    return 1;
  }

  std::printf("Building corpus: %zu train / %zu val programs of length %zu\n",
              config.trainingPrograms, config.validationPrograms,
              config.trainingLength);
  const auto trainSet = harness::buildCorpus(config, config.trainingPrograms,
                                             metric, config.seed + 17);
  const auto valSet = harness::buildCorpus(config, config.validationPrograms,
                                           metric, config.seed + 31);

  auto model = harness::buildModel(config, head);
  std::printf("Model: %zu parameters, head=%s\n",
              model->params().totalParameters(), metricName.c_str());

  fitness::TrainConfig tc = config.trainConfig;
  tc.labelMetric = metric;
  fitness::Trainer trainer(tc);
  trainer.train(*model, trainSet, valSet, [](const fitness::EpochStats& e) {
    std::printf(
        "epoch %zu: train loss %.4f, val loss %.4f, val acc %.3f (base "
        "rate %.3f)\n",
        e.epoch, e.trainLoss, e.valLoss, e.valAccuracy, e.valBaseRate);
  });

  if (head == fitness::HeadKind::Classifier) {
    std::printf("\nValidation confusion matrix (rows = true %s):\n%s",
                metricName.c_str(),
                trainer.confusion(*model, valSet).toString().c_str());
  } else {
    std::printf("\nValidation FP accuracy (p>=0.5 vs presence): %.3f\n",
                fitness::Trainer::multilabelAccuracy(*model, valSet));
  }

  model->save(out);
  std::printf("Saved weights to %s\n", out.c_str());
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
