// Harness tests: configuration presets and overrides, workload generation,
// percentile-row math, the runner, and the method registry.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>

#include "harness/config.hpp"
#include "harness/models.hpp"
#include "harness/registry.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "nn/optim.hpp"

namespace nb = netsyn::baselines;
namespace nc = netsyn::core;
namespace nd = netsyn::dsl;
namespace nf = netsyn::fitness;
namespace nh = netsyn::harness;
namespace nu = netsyn::util;

// ------------------------------------------------------------ config ------

TEST(Config, CiAndPaperPresets) {
  const auto ci = nh::ExperimentConfig::forScale("ci");
  EXPECT_EQ(ci.scaleName, "ci");
  EXPECT_LT(ci.searchBudget, 100000u);

  const auto paper = nh::ExperimentConfig::forScale("paper");
  EXPECT_EQ(paper.searchBudget, 3000000u);          // §5
  EXPECT_EQ(paper.runsPerProgram, 10u);             // K = 10
  EXPECT_EQ(paper.programsPerLength, 100u);         // §5
  EXPECT_EQ(paper.trainingPrograms, 4200000u);      // §5
  EXPECT_EQ(paper.synthesizer.ga.populationSize, 100u);  // Appendix B
  EXPECT_EQ(paper.synthesizer.ga.eliteCount, 5u);
  EXPECT_EQ(paper.synthesizer.maxGenerations, 30000u);
  EXPECT_EQ(paper.programLengths,
            (std::vector<std::size_t>{5, 7, 10}));

  EXPECT_THROW(nh::ExperimentConfig::forScale("huge"),
               std::invalid_argument);
}

TEST(Config, FlagOverrides) {
  const char* argv[] = {"prog",           "--scale=ci",
                        "--budget=1234",  "--runs=7",
                        "--lengths=3,6",  "--programs-per-length=2",
                        "--seed=99",      "--model-dir=/tmp/zz"};
  nu::ArgParse args(8, argv);
  const auto cfg = nh::ExperimentConfig::fromArgs(args);
  EXPECT_EQ(cfg.searchBudget, 1234u);
  EXPECT_EQ(cfg.runsPerProgram, 7u);
  EXPECT_EQ(cfg.programLengths, (std::vector<std::size_t>{3, 6}));
  EXPECT_EQ(cfg.programsPerLength, 2u);
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_EQ(cfg.modelDir, "/tmp/zz");
}

TEST(Config, BadLengthsThrow) {
  const char* argv[] = {"prog", "--lengths=0"};
  nu::ArgParse args(2, argv);
  EXPECT_THROW(nh::ExperimentConfig::fromArgs(args), std::invalid_argument);
}

TEST(Config, IslandFlagsSelectTheIslandStrategy) {
  const char* argv[] = {"prog",
                        "--islands=4",
                        "--migration-interval=7",
                        "--migration-size=3",
                        "--topology=full",
                        "--island-threads=2",
                        "--island-hetero"};
  nu::ArgParse args(7, argv);
  const auto cfg = nh::ExperimentConfig::fromArgs(args);
  EXPECT_EQ(cfg.synthesizer.strategy, nc::SearchStrategy::Islands);
  EXPECT_EQ(cfg.synthesizer.islands.count, 4u);
  EXPECT_EQ(cfg.synthesizer.islands.migrationInterval, 7u);
  EXPECT_EQ(cfg.synthesizer.islands.migrationSize, 3u);
  EXPECT_EQ(cfg.synthesizer.islands.topology, nc::Topology::FullyConnected);
  EXPECT_EQ(cfg.synthesizer.islands.threads, 2u);
  EXPECT_TRUE(cfg.synthesizer.islands.heterogeneous);

  // Without --islands the strategy stays single-population.
  const char* argvNone[] = {"prog"};
  nu::ArgParse none(1, argvNone);
  EXPECT_EQ(nh::ExperimentConfig::fromArgs(none).synthesizer.strategy,
            nc::SearchStrategy::SinglePopulation);

  const char* argvBad[] = {"prog", "--islands=2", "--topology=mesh"};
  nu::ArgParse bad(3, argvBad);
  EXPECT_THROW(nh::ExperimentConfig::fromArgs(bad), std::invalid_argument);

  // Negative values must be rejected, not wrapped through size_t into
  // "never migrate"-sized numbers.
  const char* argvNeg[] = {"prog", "--islands=2", "--migration-interval=-5"};
  nu::ArgParse neg(3, argvNeg);
  EXPECT_THROW(nh::ExperimentConfig::fromArgs(neg), std::invalid_argument);
  const char* argvNegT[] = {"prog", "--island-threads=-1"};
  nu::ArgParse negT(2, argvNegT);
  EXPECT_THROW(nh::ExperimentConfig::fromArgs(negT), std::invalid_argument);
}

TEST(Config, JsonRoundTripPreservesEveryIslandField) {
  auto cfg = nh::ExperimentConfig::forScale("ci");
  cfg.programLengths = {3, 6, 9};
  cfg.programsPerLength = 12;
  cfg.searchBudget = 4321;
  cfg.runsPerProgram = 5;
  cfg.workers = 6;
  cfg.seed = 987654321;
  cfg.modelDir = "some/model \"dir\"";
  cfg.trainConfig.epochs = 50;
  cfg.trainConfig.batchSize = 13;
  cfg.trainConfig.learningRate = 2.5e-3f;
  cfg.synthesizer.ga.populationSize = 64;
  cfg.synthesizer.ga.crossoverRate = 0.55;
  cfg.synthesizer.ga.mutationRate = 0.15;
  cfg.synthesizer.maxGenerations = 777;
  cfg.synthesizer.nsKind = nc::NsKind::DFS;
  cfg.synthesizer.strategy = nc::SearchStrategy::Islands;
  cfg.synthesizer.islands.count = 8;
  cfg.synthesizer.islands.migrationInterval = 12;
  cfg.synthesizer.islands.migrationSize = 4;
  cfg.synthesizer.islands.topology = nc::Topology::FullyConnected;
  cfg.synthesizer.islands.threads = 3;
  cfg.synthesizer.islands.heterogeneous = true;
  nc::IslandTweak tweakA;  // explicit portfolio must survive the trip
  tweakA.mutationRateScale = 1.5;
  tweakA.nsKind = nc::NsKind::DFS;
  nc::IslandTweak tweakB;
  tweakB.crossoverRateScale = 0.75;
  tweakB.fpGuidedMutation = false;
  cfg.synthesizer.islands.tweaks = {tweakA, tweakB};

  const auto back = nh::ExperimentConfig::fromJson(cfg.toJson());
  EXPECT_EQ(back.scaleName, cfg.scaleName);
  EXPECT_EQ(back.programLengths, cfg.programLengths);
  EXPECT_EQ(back.programsPerLength, cfg.programsPerLength);
  EXPECT_EQ(back.examplesPerProgram, cfg.examplesPerProgram);
  EXPECT_EQ(back.runsPerProgram, cfg.runsPerProgram);
  EXPECT_EQ(back.searchBudget, cfg.searchBudget);
  EXPECT_EQ(back.trainingPrograms, cfg.trainingPrograms);
  EXPECT_EQ(back.validationPrograms, cfg.validationPrograms);
  EXPECT_EQ(back.trainingLength, cfg.trainingLength);
  EXPECT_EQ(back.trainConfig.epochs, cfg.trainConfig.epochs);
  EXPECT_EQ(back.trainConfig.batchSize, cfg.trainConfig.batchSize);
  EXPECT_FLOAT_EQ(back.trainConfig.learningRate, cfg.trainConfig.learningRate);
  EXPECT_EQ(back.workers, cfg.workers);
  EXPECT_EQ(back.seed, cfg.seed);
  EXPECT_EQ(back.modelDir, cfg.modelDir);
  EXPECT_EQ(back.synthesizer.ga.populationSize,
            cfg.synthesizer.ga.populationSize);
  EXPECT_EQ(back.synthesizer.ga.eliteCount, cfg.synthesizer.ga.eliteCount);
  EXPECT_DOUBLE_EQ(back.synthesizer.ga.crossoverRate,
                   cfg.synthesizer.ga.crossoverRate);
  EXPECT_DOUBLE_EQ(back.synthesizer.ga.mutationRate,
                   cfg.synthesizer.ga.mutationRate);
  EXPECT_EQ(back.synthesizer.maxGenerations, cfg.synthesizer.maxGenerations);
  EXPECT_EQ(back.synthesizer.nsKind, cfg.synthesizer.nsKind);
  EXPECT_EQ(back.synthesizer.strategy, cfg.synthesizer.strategy);
  EXPECT_EQ(back.synthesizer.islands.count, cfg.synthesizer.islands.count);
  EXPECT_EQ(back.synthesizer.islands.migrationInterval,
            cfg.synthesizer.islands.migrationInterval);
  EXPECT_EQ(back.synthesizer.islands.migrationSize,
            cfg.synthesizer.islands.migrationSize);
  EXPECT_EQ(back.synthesizer.islands.topology,
            cfg.synthesizer.islands.topology);
  EXPECT_EQ(back.synthesizer.islands.threads, cfg.synthesizer.islands.threads);
  EXPECT_EQ(back.synthesizer.islands.heterogeneous,
            cfg.synthesizer.islands.heterogeneous);
  ASSERT_EQ(back.synthesizer.islands.tweaks.size(), 2u);
  const auto& ta = back.synthesizer.islands.tweaks[0];
  EXPECT_DOUBLE_EQ(ta.mutationRateScale, 1.5);
  EXPECT_DOUBLE_EQ(ta.crossoverRateScale, 1.0);
  ASSERT_TRUE(ta.nsKind.has_value());
  EXPECT_EQ(*ta.nsKind, nc::NsKind::DFS);
  EXPECT_FALSE(ta.fpGuidedMutation.has_value());
  const auto& tb = back.synthesizer.islands.tweaks[1];
  EXPECT_DOUBLE_EQ(tb.crossoverRateScale, 0.75);
  EXPECT_FALSE(tb.nsKind.has_value());
  ASSERT_TRUE(tb.fpGuidedMutation.has_value());
  EXPECT_FALSE(*tb.fpGuidedMutation);
}

TEST(Config, FromJsonRejectsMalformedInput) {
  EXPECT_THROW(nh::ExperimentConfig::fromJson("not json"),
               std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson("{\"seed\": }"),
               std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson("{\"seed\": 1} trailing"),
               std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson("{\"workers\": \"six\"}"),
               std::invalid_argument);
  EXPECT_THROW(
      nh::ExperimentConfig::fromJson(
          "{\"synthesizer\": {\"islands\": {\"topology\": \"mesh\"}}}"),
      std::invalid_argument);
  // Integer fields must be plain digit runs — no exponents (stoull would
  // silently read "1e4" as 1), no signs (no wrap-around), no overflow.
  EXPECT_THROW(nh::ExperimentConfig::fromJson("{\"search_budget\": 1e4}"),
               std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson("{\"workers\": -4}"),
               std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson(
                   "{\"seed\": 99999999999999999999999999}"),
               std::invalid_argument);
  EXPECT_THROW(
      nh::ExperimentConfig::fromJson(
          "{\"synthesizer\": {\"mutation_rate\": 1e999}}"),
      std::invalid_argument);
  // Range sanity must fail at load time, not deep inside the search.
  EXPECT_THROW(nh::ExperimentConfig::fromJson(
                   "{\"synthesizer\": {\"population_size\": 0}}"),
               std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson(
                   "{\"synthesizer\": {\"islands\": {\"count\": 0}}}"),
               std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson("{\"program_lengths\": [4, 0]}"),
               std::invalid_argument);
}

TEST(Config, JsonEscapesControlCharactersPerRfc8259) {
  auto cfg = nh::ExperimentConfig::forScale("ci");
  cfg.modelDir = "models\nrun\t2\x01" "end";
  const std::string json = cfg.toJson();
  // No raw control characters may appear inside the document.
  for (char c : json) EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_EQ(nh::ExperimentConfig::fromJson(json).modelDir, cfg.modelDir);
}

// ---------------------------------------------------------- workload ------

TEST(Workload, HalfSingletonHalfListAndDeterministic) {
  auto cfg = nh::ExperimentConfig::forScale("ci");
  cfg.programsPerLength = 6;
  const auto a = nh::makeWorkload(cfg, 4);
  const auto b = nh::makeWorkload(cfg, 4);
  ASSERT_EQ(a.size(), 6u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].target, b[i].target);  // deterministic under the seed
    EXPECT_EQ(a[i].length, 4u);
    EXPECT_EQ(a[i].singleton, i < 3);
    EXPECT_EQ(a[i].target.outputType(),
              a[i].singleton ? nd::Type::Int : nd::Type::List);
    EXPECT_EQ(a[i].spec.size(), cfg.examplesPerProgram);
    EXPECT_TRUE(nd::satisfiesSpec(a[i].target, a[i].spec));
  }
}

TEST(Workload, FullWorkloadCoversAllLengths) {
  auto cfg = nh::ExperimentConfig::forScale("ci");
  cfg.programsPerLength = 2;
  cfg.programLengths = {3, 4, 5};
  const auto w = nh::makeFullWorkload(cfg);
  ASSERT_EQ(w.size(), 6u);
  EXPECT_EQ(w[0].length, 3u);
  EXPECT_EQ(w[5].length, 5u);
}

// ----------------------------------------------------- percentile math ----

namespace {

nh::MethodReport syntheticReport(std::vector<double> costs,
                                 std::size_t unsolved,
                                 std::size_t budget) {
  nh::MethodReport report;
  report.method = "stub";
  report.budget = budget;
  for (double c : costs) {
    nh::ProgramResult pr;
    pr.runs.push_back(
        {true, static_cast<std::size_t>(c), c, 1, {}});
    report.programs.push_back(pr);
  }
  for (std::size_t i = 0; i < unsolved; ++i) {
    nh::ProgramResult pr;
    pr.runs.push_back({false, budget, 1.0, 1, {}});
    report.programs.push_back(pr);
  }
  return report;
}

}  // namespace

TEST(PercentileRow, ComputesBudgetFractions) {
  // 10 programs: 5 solved at 100,200,300,400,500 candidates; 5 unsolved.
  const auto report =
      syntheticReport({100, 200, 300, 400, 500}, 5, 1000);
  const auto row = nh::percentileRow(report, /*useTime=*/false);
  EXPECT_NEAR(row[0], 0.1, 1e-9);  // 10% of programs -> cheapest (100/1000)
  EXPECT_NEAR(row[4], 0.5, 1e-9);  // 50% -> 500/1000
  for (std::size_t i = 5; i < 10; ++i) EXPECT_TRUE(std::isnan(row[i]));
}

TEST(PercentileRow, TimeVariantUsesSeconds) {
  const auto report = syntheticReport({1.0, 2.0}, 0, 100);
  const auto row = nh::percentileRow(report, /*useTime=*/true);
  EXPECT_NEAR(row[4], 1.0, 1e-9);   // 50% of 2 programs -> 1st cheapest
  EXPECT_NEAR(row[9], 2.0, 1e-9);   // 100% -> 2nd
}

TEST(PercentileRow, AllUnsolvedIsAllNaN) {
  const auto report = syntheticReport({}, 4, 100);
  const auto row = nh::percentileRow(report, false);
  for (double v : row) EXPECT_TRUE(std::isnan(v));
}

TEST(ProgramResult, RateAndMeansOverFoundRuns) {
  nh::ProgramResult pr;
  pr.runs.push_back({true, 100, 1.0, 10, {}});
  pr.runs.push_back({false, 500, 5.0, 50, {}});
  pr.runs.push_back({true, 300, 3.0, 30, {}});
  EXPECT_NEAR(pr.synthesisRate(), 2.0 / 3.0, 1e-9);
  EXPECT_TRUE(pr.synthesized());
  EXPECT_NEAR(pr.meanCandidatesWhenFound(), 200.0, 1e-9);
  EXPECT_NEAR(pr.meanSecondsWhenFound(), 2.0, 1e-9);
  EXPECT_NEAR(pr.meanGenerationsWhenFound(), 20.0, 1e-9);
}

// -------------------------------------------------------------- runner ----

namespace {

/// Stub method: succeeds iff the target ends with a list function, spending
/// a fixed candidate count.
class StubMethod final : public nb::Method {
 public:
  std::string name() const override { return "Stub"; }
  nc::SynthesisResult synthesize(const nd::Spec& spec, std::size_t,
                                 std::size_t budget,
                                 netsyn::util::Rng&) override {
    nc::SynthesisResult r;
    r.found = spec.examples.front().output.isList();
    r.candidatesSearched = r.found ? 42 : budget;
    r.generations = 3;
    ++calls;
    return r;
  }
  int calls = 0;
};

}  // namespace

TEST(Runner, RunsKTimesPerProgramAndAggregates) {
  auto cfg = nh::ExperimentConfig::forScale("ci");
  cfg.programsPerLength = 4;  // 2 singleton + 2 list
  cfg.runsPerProgram = 3;
  const auto workload = nh::makeWorkload(cfg, 4);
  StubMethod method;
  const auto report = nh::runMethod(method, workload, cfg, false);
  EXPECT_EQ(method.calls, 12);
  EXPECT_EQ(report.programs.size(), 4u);
  // Stub solves exactly the list programs -> 50%.
  EXPECT_NEAR(report.synthesizedFraction(), 0.5, 1e-9);
  EXPECT_NEAR(report.meanSynthesisRate(), 0.5, 1e-9);
  EXPECT_NEAR(report.meanGenerations(), 3.0, 1e-9);
}

TEST(Runner, OracleMethodReceivesTarget) {
  auto cfg = nh::ExperimentConfig::forScale("ci");
  cfg.programsPerLength = 2;
  cfg.runsPerProgram = 1;
  cfg.searchBudget = 20000;
  cfg.synthesizer.ga.populationSize = 30;
  const auto workload = nh::makeWorkload(cfg, 3);
  auto oracle = nh::makeOracle(cfg, nf::BalanceMetric::LCS);
  const auto report = nh::runMethod(*oracle, workload, cfg, false);
  // Oracle fitness on length-3 targets should solve essentially everything.
  EXPECT_GE(report.synthesizedFraction(), 0.5);
}

TEST(Runner, IslandMethodsReportPerIslandStatsDeterministically) {
  // Registry-built oracle methods running the island strategy across the
  // parallel experiment runner: per-island stats must land in the report
  // and, like every other deterministic field, be identical for any worker
  // count.
  auto cfg = nh::ExperimentConfig::forScale("ci");
  cfg.programsPerLength = 2;
  cfg.runsPerProgram = 2;
  cfg.searchBudget = 4000;
  cfg.synthesizer.ga.populationSize = 16;
  cfg.synthesizer.maxGenerations = 200;
  cfg.synthesizer.strategy = nc::SearchStrategy::Islands;
  cfg.synthesizer.islands.count = 2;
  cfg.synthesizer.islands.migrationInterval = 3;
  const auto workload = nh::makeWorkload(cfg, 3);
  const auto factory = nh::makeOracleFactory(cfg, nf::BalanceMetric::CF);

  cfg.workers = 1;
  const auto sequential = nh::runMethod(factory, workload, cfg, false);
  cfg.workers = 3;
  const auto parallel = nh::runMethod(factory, workload, cfg, false);

  ASSERT_EQ(sequential.programs.size(), parallel.programs.size());
  for (std::size_t p = 0; p < sequential.programs.size(); ++p) {
    const auto& runsA = sequential.programs[p].runs;
    const auto& runsB = parallel.programs[p].runs;
    ASSERT_EQ(runsA.size(), runsB.size());
    for (std::size_t k = 0; k < runsA.size(); ++k) {
      EXPECT_EQ(runsA[k].found, runsB[k].found);
      EXPECT_EQ(runsA[k].candidates, runsB[k].candidates);
      ASSERT_EQ(runsA[k].islands.size(), 2u);
      ASSERT_EQ(runsB[k].islands.size(), 2u);
      std::size_t evals = 0;
      for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(runsA[k].islands[i].evals, runsB[k].islands[i].evals);
        EXPECT_EQ(runsA[k].islands[i].immigrants,
                  runsB[k].islands[i].immigrants);
        EXPECT_EQ(runsA[k].islands[i].bestFitness,
                  runsB[k].islands[i].bestFitness);
        evals += runsA[k].islands[i].evals;
      }
      EXPECT_EQ(evals, runsA[k].candidates);
      EXPECT_EQ(runsA[k].migrationsAccepted(), runsB[k].migrationsAccepted());
    }
  }
  EXPECT_GE(sequential.synthesizedFraction(), 0.5);  // oracle still solves
}

// ------------------------------------------------------------- models -----

TEST(Models, BuildModelHeadsAndFpExampleWidth) {
  auto cfg = nh::ExperimentConfig::forScale("ci");
  cfg.modelConfig.embedDim = 8;
  cfg.modelConfig.hiddenDim = 10;
  const auto cls = nh::buildModel(cfg, nf::HeadKind::Classifier);
  EXPECT_TRUE(cls->config().useTrace);
  EXPECT_EQ(cls->config().maxExamples, cfg.modelConfig.maxExamples);
  const auto fp = nh::buildModel(cfg, nf::HeadKind::Multilabel);
  EXPECT_FALSE(fp->config().useTrace);
  EXPECT_EQ(fp->config().maxExamples, cfg.examplesPerProgram);
}

namespace {

/// Every parameter value's bit pattern, in ParamStore order.
std::vector<std::uint32_t> paramBits(const nf::NnffModel& model) {
  std::vector<std::uint32_t> bits;
  for (const auto& p : model.params().params())
    for (const float v : p->value().vec())
      bits.push_back(std::bit_cast<std::uint32_t>(v));
  return bits;
}

/// The model's logits on `sample` (IO-only models ignore the candidate).
std::vector<float> logitsOn(const nf::NnffModel& model,
                            const nf::Sample& sample) {
  const auto out =
      model.config().useTrace
          ? model.forward(sample.spec, sample.candidate, sample.traces)
          : model.forwardIOOnly(sample.spec);
  return out->value().vec();
}

}  // namespace

TEST(Models, LoadOrTrainCachesToDisk) {
  auto cfg = nh::ExperimentConfig::forScale("ci");
  cfg.trainingPrograms = 30;
  cfg.validationPrograms = 10;
  cfg.trainConfig.epochs = 1;
  cfg.modelConfig.embedDim = 6;
  cfg.modelConfig.hiddenDim = 8;
  cfg.modelDir =
      (std::filesystem::temp_directory_path() / "netsyn_cache_test").string();
  std::filesystem::remove_all(cfg.modelDir);

  auto model = nh::buildModel(cfg, nf::HeadKind::Classifier);
  const bool fromCache1 =
      nh::loadOrTrain(cfg, *model, nf::BalanceMetric::CF, "cf", true);
  EXPECT_FALSE(fromCache1);
  EXPECT_TRUE(std::filesystem::exists(nh::modelCachePath(cfg, "cf")));

  auto model2 = nh::buildModel(cfg, nf::HeadKind::Classifier);
  const bool fromCache2 =
      nh::loadOrTrain(cfg, *model2, nf::BalanceMetric::CF, "cf", true);
  EXPECT_TRUE(fromCache2);
  EXPECT_EQ(paramBits(*model2), paramBits(*model));

  // A truncated cache is unusable: the model is retrained and the cache
  // rewritten whole.
  const std::string path = nh::modelCachePath(cfg, "cf");
  const auto fullSize = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, fullSize / 2);
  auto retrained = nh::buildModel(cfg, nf::HeadKind::Classifier);
  EXPECT_FALSE(
      nh::loadOrTrain(cfg, *retrained, nf::BalanceMetric::CF, "cf", true));
  EXPECT_EQ(std::filesystem::file_size(path), fullSize);

  // loadOrTrainAll fills all three: cf from the rewritten cache, lcs and fp
  // trained and cached.
  const nh::TrainedModels all = nh::loadOrTrainAll(cfg, true);
  ASSERT_TRUE(all.cf && all.lcs && all.fp);
  EXPECT_EQ(paramBits(*all.cf), paramBits(*retrained));
  EXPECT_TRUE(all.lcs->config().useTrace);
  EXPECT_FALSE(all.fp->config().useTrace);
  EXPECT_TRUE(std::filesystem::exists(nh::modelCachePath(cfg, "lcs")));
  EXPECT_TRUE(std::filesystem::exists(nh::modelCachePath(cfg, "fp")));

  // clone() makes deep copies: the same predictions, and a weight update
  // on a copy leaves the original untouched.
  const nh::TrainedModels copy = all.clone();
  const nf::Sample sample =
      nh::buildCorpus(cfg, 2, nf::BalanceMetric::CF, 5).front();
  for (const auto& [original, clone] :
       {std::pair{all.cf, copy.cf}, std::pair{all.lcs, copy.lcs},
        std::pair{all.fp, copy.fp}}) {
    ASSERT_TRUE(clone);
    EXPECT_NE(clone.get(), original.get());
    EXPECT_EQ(logitsOn(*clone, sample), logitsOn(*original, sample));
  }
  const auto before = paramBits(*all.lcs);
  netsyn::nn::Adam adam(copy.lcs->params(), 1e-2f);
  for (const auto& p : copy.lcs->params().params()) p->grad().fill(0.5f);
  adam.step();
  EXPECT_NE(paramBits(*copy.lcs), before);
  EXPECT_EQ(paramBits(*all.lcs), before);
  std::filesystem::remove_all(cfg.modelDir);
}

// ------------------------------------------------------------ registry ----

TEST(Registry, AllMethodsHaveUniqueNames) {
  auto cfg = nh::ExperimentConfig::forScale("ci");
  cfg.modelConfig.embedDim = 6;
  cfg.modelConfig.hiddenDim = 8;
  nh::TrainedModels models;
  models.cf = nh::buildModel(cfg, nf::HeadKind::Classifier);
  models.lcs = nh::buildModel(cfg, nf::HeadKind::Classifier);
  models.fp = nh::buildModel(cfg, nf::HeadKind::Multilabel);
  const auto methods = nh::makeAllMethods(cfg, models);
  EXPECT_GE(methods.size(), 9u);
  std::set<std::string> names;
  for (const auto& m : methods) names.insert(m->name());
  EXPECT_EQ(names.size(), methods.size());
  EXPECT_TRUE(names.count("NetSyn_CF"));
  EXPECT_TRUE(names.count("DeepCoder"));
  EXPECT_TRUE(names.count("Oracle_LCS"));
}

TEST(Registry, NetSynVariantsUseNsAndFpMutation) {
  auto cfg = nh::ExperimentConfig::forScale("ci");
  cfg.modelConfig.embedDim = 6;
  cfg.modelConfig.hiddenDim = 8;
  nh::TrainedModels models;
  models.cf = nh::buildModel(cfg, nf::HeadKind::Classifier);
  models.lcs = nh::buildModel(cfg, nf::HeadKind::Classifier);
  models.fp = nh::buildModel(cfg, nf::HeadKind::Multilabel);
  // Construction itself validates the wiring (fpGuidedMutation requires a
  // ProbMapProvider; NeuralFitness requires a classifier head).
  for (auto variant : {nh::NetSynVariant::CF, nh::NetSynVariant::LCS,
                       nh::NetSynVariant::FP}) {
    EXPECT_NO_THROW(nh::makeNetSyn(cfg, models, variant));
  }
}
