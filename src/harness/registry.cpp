#include "harness/registry.hpp"

#include "fitness/neural_fitness.hpp"

namespace netsyn::harness {

namespace {

/// Per-island grading kit for one NetSyn variant: every island gets its own
/// model clones (NnffModel inference scratch is not thread-safe), exactly
/// like the per-worker clones of the parallel experiment runner, and grades
/// on its own thread only (the islands are the parallelism). Invoked
/// lazily — only Islands-strategy searches ever call it.
core::IslandFitnessFactory netSynIslandFactory(const TrainedModels& models,
                                               NetSynVariant variant) {
  return [models, variant](std::size_t) {
    auto fp = std::make_shared<fitness::ProbMapFitness>(models.fp->clone());
    fitness::FitnessPtr fit;
    switch (variant) {
      case NetSynVariant::CF:
        fit = std::make_shared<fitness::NeuralFitness>(models.cf->clone(),
                                                       "NN_CF", 1);
        break;
      case NetSynVariant::LCS:
        fit = std::make_shared<fitness::NeuralFitness>(models.lcs->clone(),
                                                       "NN_LCS", 1);
        break;
      case NetSynVariant::FP:
        fit = fp;
        break;
    }
    return core::IslandFitness{std::move(fit), fp};
  };
}

}  // namespace

core::SynthesizerConfig methodSearchConfig(const ExperimentConfig& config,
                                           const std::string& method) {
  core::SynthesizerConfig sc = config.synthesizer;
  sc.useNeighborhoodSearch = true;
  sc.nsKind = core::NsKind::BFS;
  // §5.1: the NetSyn variants mutate FP-guided; Edit and the Oracles keep
  // uniform mutation (they carry no probability map).
  sc.fpGuidedMutation = method.rfind("NetSyn_", 0) == 0;
  if (method != "Edit" && method != "Oracle_CF" && method != "Oracle_LCS" &&
      method != "NetSyn_CF" && method != "NetSyn_LCS" && method != "NetSyn_FP")
    throw std::invalid_argument("unknown GA method '" + method + "'");
  return sc;
}

baselines::MethodPtr makeNetSyn(const ExperimentConfig& config,
                                const TrainedModels& models,
                                NetSynVariant variant) {
  const char* name = variant == NetSynVariant::CF    ? "NetSyn_CF"
                     : variant == NetSynVariant::LCS ? "NetSyn_LCS"
                                                     : "NetSyn_FP";
  const core::SynthesizerConfig sc = methodSearchConfig(config, name);

  auto fpProvider = std::make_shared<fitness::ProbMapFitness>(models.fp);
  const auto islandFactory = netSynIslandFactory(models, variant);
  switch (variant) {
    case NetSynVariant::CF:
      return std::make_shared<baselines::SynthesizerMethod>(
          "NetSyn_CF", sc,
          std::make_shared<fitness::NeuralFitness>(models.cf, "NN_CF"),
          fpProvider, islandFactory);
    case NetSynVariant::LCS:
      return std::make_shared<baselines::SynthesizerMethod>(
          "NetSyn_LCS", sc,
          std::make_shared<fitness::NeuralFitness>(models.lcs, "NN_LCS"),
          fpProvider, islandFactory);
    case NetSynVariant::FP:
      return std::make_shared<baselines::SynthesizerMethod>(
          "NetSyn_FP", sc, fpProvider, fpProvider, islandFactory);
  }
  throw std::logic_error("unknown NetSyn variant");
}

baselines::MethodPtr makeEdit(const ExperimentConfig& config) {
  // Same framework as NetSyn, hand-crafted fitness graded with the domain's
  // output metric.
  const core::SynthesizerConfig sc = methodSearchConfig(config, "Edit");
  const dsl::Domain* domain = sc.generator.domain;
  return std::make_shared<baselines::SynthesizerMethod>(
      "Edit", sc, std::make_shared<fitness::EditDistanceFitness>(domain),
      nullptr, [domain](std::size_t) {
        // Stateless hand-crafted fitness: a fresh instance per island keeps
        // its internal memo tables thread-private.
        return core::IslandFitness{
            std::make_shared<fitness::EditDistanceFitness>(domain), nullptr};
      });
}

baselines::MethodPtr makeOracle(const ExperimentConfig& config,
                                fitness::BalanceMetric metric) {
  const core::SynthesizerConfig sc = methodSearchConfig(
      config,
      metric == fitness::BalanceMetric::CF ? "Oracle_CF" : "Oracle_LCS");
  return std::make_shared<OracleMethod>(sc, metric);
}

std::vector<baselines::MethodPtr> makeAllMethods(
    const ExperimentConfig& config, const TrainedModels& models) {
  // One instance per factory, so the method list/order lives in exactly one
  // place (makeAllMethodFactories).
  std::vector<baselines::MethodPtr> methods;
  for (const auto& factory : makeAllMethodFactories(config, models))
    methods.push_back(factory());
  return methods;
}

baselines::MethodFactory makeNetSynFactory(const ExperimentConfig& config,
                                           const TrainedModels& models,
                                           NetSynVariant variant) {
  // Capture the trained models by value (shared ownership); every factory
  // call clones the models the variant actually grades with, so each
  // instance owns its inference scratch.
  return [config, models, variant]() {
    TrainedModels own;
    own.fp = models.fp->clone();  // every variant mutates with the FP map
    if (variant == NetSynVariant::CF) own.cf = models.cf->clone();
    if (variant == NetSynVariant::LCS) own.lcs = models.lcs->clone();
    return makeNetSyn(config, own, variant);
  };
}

baselines::MethodFactory makeEditFactory(const ExperimentConfig& config) {
  return [config]() { return makeEdit(config); };
}

baselines::MethodFactory makeOracleFactory(const ExperimentConfig& config,
                                           fitness::BalanceMetric metric) {
  return [config, metric]() { return makeOracle(config, metric); };
}

std::vector<baselines::MethodFactory> makeAllMethodFactories(
    const ExperimentConfig& config, const TrainedModels& models) {
  std::vector<baselines::MethodFactory> factories;
  factories.push_back([config]() {
    return std::make_shared<baselines::PushGpMethod>(
        config.synthesizer.ga, config.synthesizer.generator);
  });
  factories.push_back(makeEditFactory(config));
  factories.push_back([models]() {
    return std::make_shared<baselines::DeepCoderMethod>(
        std::make_shared<fitness::ProbMapFitness>(models.fp->clone()));
  });
  factories.push_back([models]() {
    return std::make_shared<baselines::PcCoderMethod>(
        std::make_shared<fitness::ProbMapFitness>(models.fp->clone()));
  });
  factories.push_back([models]() {
    return std::make_shared<baselines::RobustFillMethod>(
        std::make_shared<fitness::ProbMapFitness>(models.fp->clone()));
  });
  factories.push_back(makeNetSynFactory(config, models, NetSynVariant::FP));
  factories.push_back(makeNetSynFactory(config, models, NetSynVariant::LCS));
  factories.push_back(makeNetSynFactory(config, models, NetSynVariant::CF));
  factories.push_back(makeOracleFactory(config, fitness::BalanceMetric::LCS));
  return factories;
}

}  // namespace netsyn::harness
