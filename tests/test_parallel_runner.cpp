// Parallel experiment runner: workers=N must produce the same MethodReport
// as the sequential runner (wall-clock seconds aside), independent of
// scheduling, the factory path must agree with the legacy single-method
// path, and a search's exception must reach the caller at any worker count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

#include "harness/registry.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"

namespace nb = netsyn::baselines;
namespace nh = netsyn::harness;

namespace {

nh::ExperimentConfig tinyConfig() {
  auto cfg = nh::ExperimentConfig::forScale("ci");
  cfg.programLengths = {4};
  cfg.programsPerLength = 4;
  cfg.examplesPerProgram = 3;
  cfg.runsPerProgram = 3;
  cfg.searchBudget = 800;
  cfg.synthesizer.ga.populationSize = 16;
  cfg.synthesizer.maxGenerations = 200;
  return cfg;
}

/// Everything except the wall-clock seconds fields.
void expectSameDeterministicFields(const nh::MethodReport& a,
                                   const nh::MethodReport& b) {
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.budget, b.budget);
  ASSERT_EQ(a.programs.size(), b.programs.size());
  for (std::size_t p = 0; p < a.programs.size(); ++p) {
    const auto& pa = a.programs[p];
    const auto& pb = b.programs[p];
    EXPECT_EQ(pa.programId, pb.programId);
    EXPECT_EQ(pa.length, pb.length);
    EXPECT_EQ(pa.singleton, pb.singleton);
    EXPECT_EQ(pa.target, pb.target);
    ASSERT_EQ(pa.runs.size(), pb.runs.size());
    for (std::size_t k = 0; k < pa.runs.size(); ++k) {
      EXPECT_EQ(pa.runs[k].found, pb.runs[k].found)
          << "program " << p << " run " << k;
      EXPECT_EQ(pa.runs[k].candidates, pb.runs[k].candidates)
          << "program " << p << " run " << k;
      EXPECT_EQ(pa.runs[k].generations, pb.runs[k].generations)
          << "program " << p << " run " << k;
    }
  }
}

}  // namespace

TEST(ParallelRunner, MatchesSequentialReport) {
  auto cfg = tinyConfig();
  const auto workload = nh::makeFullWorkload(cfg);
  const auto factory = nh::makeEditFactory(cfg);

  cfg.workers = 1;
  const auto sequential = nh::runMethod(factory, workload, cfg, false);
  cfg.workers = 4;
  const auto parallel = nh::runMethod(factory, workload, cfg, false);
  expectSameDeterministicFields(sequential, parallel);
}

TEST(ParallelRunner, FactoryPathMatchesLegacySingleInstancePath) {
  auto cfg = tinyConfig();
  const auto workload = nh::makeFullWorkload(cfg);
  const auto factory = nh::makeEditFactory(cfg);

  const auto method = factory();
  const auto legacy = nh::runMethod(*method, workload, cfg, false);
  cfg.workers = 3;
  const auto pooled = nh::runMethod(factory, workload, cfg, false);
  expectSameDeterministicFields(legacy, pooled);
}

TEST(ParallelRunner, SchedulingIsIrrelevantAcrossRepeats) {
  auto cfg = tinyConfig();
  cfg.workers = 4;
  const auto workload = nh::makeFullWorkload(cfg);
  const auto factory = nh::makeEditFactory(cfg);
  const auto first = nh::runMethod(factory, workload, cfg, false);
  const auto second = nh::runMethod(factory, workload, cfg, false);
  expectSameDeterministicFields(first, second);
}

TEST(ParallelRunner, TargetAwareOracleWorksOnThePool) {
  auto cfg = tinyConfig();
  cfg.programsPerLength = 2;
  cfg.runsPerProgram = 2;
  const auto workload = nh::makeFullWorkload(cfg);
  const auto factory =
      nh::makeOracleFactory(cfg, netsyn::fitness::BalanceMetric::CF);

  cfg.workers = 1;
  const auto sequential = nh::runMethod(factory, workload, cfg, false);
  cfg.workers = 4;
  const auto parallel = nh::runMethod(factory, workload, cfg, false);
  expectSameDeterministicFields(sequential, parallel);
  // The oracle should actually synthesize something on this easy workload;
  // guards against a pool that never sets the target.
  EXPECT_GT(parallel.synthesizedFraction(), 0.0);
}

TEST(ParallelRunner, WorkersFlagParsesAndDefaults) {
  EXPECT_EQ(tinyConfig().workers, 1u);
  const char* argv[] = {"prog", "--workers=6"};
  const netsyn::util::ArgParse args(2, argv);
  const auto cfg = nh::ExperimentConfig::fromArgs(args);
  EXPECT_EQ(cfg.workers, 6u);
}

namespace {

/// A method whose first search throws, like a search that hits ga.cpp's or
/// search_state.cpp's invalid-argument checks; every later search takes
/// 50 ms and finds nothing. `searches` counts the searches started.
class ThrowingMethod final : public nb::Method {
 public:
  explicit ThrowingMethod(std::shared_ptr<std::atomic<int>> searches)
      : searches_(std::move(searches)) {}
  std::string name() const override { return "Throwing"; }
  netsyn::core::SynthesisResult synthesize(const netsyn::dsl::Spec&,
                                           std::size_t, std::size_t,
                                           netsyn::util::Rng&) override {
    if (searches_->fetch_add(1) == 0)
      throw std::runtime_error("search failed");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return {};
  }

 private:
  std::shared_ptr<std::atomic<int>> searches_;
};

}  // namespace

TEST(Runner, ParallelRunRethrowsASearchException) {
  auto cfg = tinyConfig();
  const auto workload = nh::makeFullWorkload(cfg);
  ASSERT_GT(workload.size() * cfg.runsPerProgram, 4u);
  // One worker or several: the caller sees the search's exception, the
  // process keeps running, and the run stops there. Each other worker
  // finishes the one search it started before the throw, and starts no
  // more.
  for (const std::size_t workers : {1, 2, 4}) {
    const auto searches = std::make_shared<std::atomic<int>>(0);
    const nb::MethodFactory factory = [searches] {
      return std::make_shared<ThrowingMethod>(searches);
    };
    cfg.workers = workers;
    EXPECT_THROW(nh::runMethod(factory, workload, cfg, false),
                 std::runtime_error)
        << workers << " workers";
    EXPECT_LE(searches->load(), static_cast<int>(workers))
        << workers << " workers";
  }
}
