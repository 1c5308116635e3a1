#include "harness/models.hpp"

#include <cstdio>
#include <filesystem>

#include "util/timer.hpp"

namespace netsyn::harness {

TrainedModels TrainedModels::clone() const {
  TrainedModels copy;
  if (cf) copy.cf = cf->clone();
  if (lcs) copy.lcs = lcs->clone();
  if (fp) copy.fp = fp->clone();
  return copy;
}

std::shared_ptr<fitness::NnffModel> buildModel(const ExperimentConfig& config,
                                               fitness::HeadKind head) {
  fitness::NnffConfig mc = config.modelConfig;  // carries encoder + domain
  mc.head = head;
  mc.useTrace = (head != fitness::HeadKind::Multilabel);
  // The IO-only FP model is cheap (no per-step branch): give it every
  // example. The trace models keep the configured cap, which bounds the
  // GA's per-candidate inference cost.
  if (head == fitness::HeadKind::Multilabel)
    mc.maxExamples = config.examplesPerProgram;
  return std::make_shared<fitness::NnffModel>(mc);
}

std::vector<fitness::Sample> buildCorpus(const ExperimentConfig& config,
                                         std::size_t count,
                                         fitness::BalanceMetric metric,
                                         std::uint64_t seed) {
  fitness::DatasetConfig dc;
  dc.programLength = config.trainingLength;
  dc.numExamples = config.examplesPerProgram;
  dc.generator = config.synthesizer.generator;  // domain + value shapes
  fitness::DatasetBuilder builder(dc);
  util::Rng rng(seed);
  return builder.build(count, metric, rng);
}

std::string modelCachePath(const ExperimentConfig& config,
                           const std::string& tag) {
  // Non-list domains get their own cache namespace: the weight shapes
  // differ (vocab-sized embeddings, wider token tables), so a list cache
  // must never be loaded into a str model or vice versa. The list path is
  // unchanged so existing caches stay valid.
  const std::string domainTag =
      config.domainName == "list" ? "" : config.domainName + "_";
  return config.modelDir + "/" + config.scaleName + "_" + domainTag + tag +
         ".bin";
}

bool loadOrTrain(const ExperimentConfig& config, fitness::NnffModel& model,
                 fitness::BalanceMetric metric, const std::string& tag,
                 bool quiet) {
  const std::string path = modelCachePath(config, tag);
  if (std::filesystem::exists(path)) {
    try {
      model.load(path);
      if (!quiet) std::printf("[models] loaded %s from cache\n", path.c_str());
      return true;
    } catch (const std::exception& e) {
      if (!quiet)
        std::printf("[models] cache %s unusable (%s); retraining\n",
                    path.c_str(), e.what());
    }
  }

  util::Timer timer;
  if (!quiet)
    std::printf("[models] training %s: %zu programs, %zu epochs...\n",
                tag.c_str(), config.trainingPrograms,
                config.trainConfig.epochs);
  const auto trainSet =
      buildCorpus(config, config.trainingPrograms, metric, config.seed + 17);
  const auto valSet = buildCorpus(config, config.validationPrograms, metric,
                                  config.seed + 31);
  fitness::TrainConfig tc = config.trainConfig;
  tc.labelMetric = metric;
  fitness::Trainer trainer(tc);
  trainer.train(model, trainSet, valSet, [&](const fitness::EpochStats& e) {
    if (!quiet)
      std::printf(
          "[models]   %s epoch %zu: train %.3f val %.3f acc %.3f (base rate "
          "%.3f)\n",
          tag.c_str(), e.epoch, e.trainLoss, e.valLoss, e.valAccuracy,
          e.valBaseRate);
  });
  if (!quiet)
    std::printf("[models] trained %s in %.1fs on %zu threads\n", tag.c_str(),
                timer.seconds(), trainer.threads());

  std::filesystem::create_directories(config.modelDir);
  model.save(path);
  return false;
}

TrainedModels loadOrTrainAll(const ExperimentConfig& config, bool quiet) {
  TrainedModels models;
  models.cf = buildModel(config, fitness::HeadKind::Classifier);
  loadOrTrain(config, *models.cf, fitness::BalanceMetric::CF, "cf", quiet);
  models.lcs = buildModel(config, fitness::HeadKind::Classifier);
  loadOrTrain(config, *models.lcs, fitness::BalanceMetric::LCS, "lcs", quiet);
  models.fp = buildModel(config, fitness::HeadKind::Multilabel);
  loadOrTrain(config, *models.fp, fitness::BalanceMetric::CF, "fp", quiet);
  return models;
}

}  // namespace netsyn::harness
