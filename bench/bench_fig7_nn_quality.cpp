// Reproduces Figure 7: quality of the neural fitness functions on held-out
// validation data.
//   (a) confusion matrix of the f_CF classifier
//   (b) confusion matrix of the f_LCS classifier
//   (c) f_FP accuracy over training epochs
//
// Paper shape to verify: the classifiers are strong on the extreme classes
// (score <= 1 and score >= 4, i.e. "mostly wrong" and "close enough") and
// weak mid-range; the FP model's accuracy climbs toward ~0.9 and plateaus.
#include "bench_common.hpp"

using namespace netsyn;

int main(int argc, char** argv) {
  const util::ArgParse args(argc, argv);
  auto config = harness::ExperimentConfig::fromArgs(args);
  bench::banner("Figure 7: NN fitness-function quality", config);

  const auto models = harness::loadOrTrainAll(config);
  fitness::Trainer cfTrainer(
      [&] {
        auto tc = config.trainConfig;
        tc.labelMetric = fitness::BalanceMetric::CF;
        return tc;
      }());
  fitness::Trainer lcsTrainer(
      [&] {
        auto tc = config.trainConfig;
        tc.labelMetric = fitness::BalanceMetric::LCS;
        return tc;
      }());

  const auto valCf = harness::buildCorpus(config, config.validationPrograms,
                                          fitness::BalanceMetric::CF,
                                          config.seed + 31);
  const auto valLcs = harness::buildCorpus(config, config.validationPrograms,
                                           fitness::BalanceMetric::LCS,
                                           config.seed + 31);

  const auto cfCm = cfTrainer.confusion(*models.cf, valCf);
  std::printf("(a) f_CF confusion matrix (row-normalized, %zu samples):\n%s",
              valCf.size(), cfCm.toString().c_str());
  std::printf("    accuracy %.3f, within-1 %.3f, extremes(0-1,4-5) "
              "within-1 behaviour shown above\n\n",
              cfCm.accuracy(), cfCm.withinK(1));

  const auto lcsCm = lcsTrainer.confusion(*models.lcs, valLcs);
  std::printf("(b) f_LCS confusion matrix (row-normalized, %zu samples):\n%s",
              valLcs.size(), lcsCm.toString().c_str());
  std::printf("    accuracy %.3f, within-1 %.3f\n\n", lcsCm.accuracy(),
              lcsCm.withinK(1));

  // (c) FP accuracy per epoch: retrain a fresh FP model so the trajectory is
  // observable (the cached model only has final weights).
  auto epochsCfg = config;
  if (!args.has("train-programs"))
    epochsCfg.trainingPrograms = std::min<std::size_t>(
        config.trainingPrograms, 2000);
  auto fpModel =
      harness::buildModel(epochsCfg, fitness::HeadKind::Multilabel);
  const auto fpTrain =
      harness::buildCorpus(epochsCfg, epochsCfg.trainingPrograms,
                           fitness::BalanceMetric::CF, epochsCfg.seed + 57);
  const auto fpVal =
      harness::buildCorpus(epochsCfg, epochsCfg.validationPrograms,
                           fitness::BalanceMetric::CF, epochsCfg.seed + 71);
  util::Table epochTable(
      {"epoch", "train loss", "val loss", "val accuracy", "val base rate"});
  fitness::Trainer fpTrainer(epochsCfg.trainConfig);
  fpTrainer.train(*fpModel, fpTrain, fpVal, [&](const fitness::EpochStats& e) {
    epochTable.newRow()
        .addInt(static_cast<long>(e.epoch))
        .addDouble(e.trainLoss, 4)
        .addDouble(e.valLoss, 4)
        .addDouble(e.valAccuracy, 4)
        .addDouble(e.valBaseRate, 4);
  });
  std::printf("(c) f_FP accuracy over epochs (%zu training programs):\n",
              epochsCfg.trainingPrograms);
  bench::emit(epochTable, args, "fig7_fp_epochs.csv");
  return 0;
}
