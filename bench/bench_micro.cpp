// Micro-benchmarks (google-benchmark) for the performance-critical
// components: DSL interpretation, dead-code analysis, program generation,
// oracle metrics, NN forward passes (autograd graph vs the allocation-free
// inference path), fitness scoring, GA breeding, and neighborhood search.
#include <benchmark/benchmark.h>

#include "core/evaluator.hpp"
#include "core/ga.hpp"
#include "core/neighborhood.hpp"
#include "dsl/dce.hpp"
#include "dsl/generator.hpp"
#include "dsl/interpreter.hpp"
#include "dsl/lanes.hpp"
#include "fitness/dataset.hpp"
#include "fitness/edit.hpp"
#include "fitness/metrics.hpp"
#include "fitness/model.hpp"
#include "fitness/neural_fitness.hpp"
#include "util/rng.hpp"

using namespace netsyn;

namespace {

dsl::Generator::TestCase makeCase(std::size_t length, std::uint64_t seed) {
  util::Rng rng(seed);
  const dsl::Generator gen;
  return *gen.randomTestCase(length, 5, false, rng);
}

fitness::NnffConfig benchModelConfig(fitness::HeadKind head) {
  fitness::NnffConfig cfg;
  cfg.encoder = {.vmax = 64, .maxValueTokens = 8};
  cfg.embedDim = 16;
  cfg.hiddenDim = 24;
  cfg.maxExamples = 3;
  cfg.head = head;
  cfg.useTrace = head != fitness::HeadKind::Multilabel;
  return cfg;
}

void BM_InterpreterRun(benchmark::State& state) {
  const auto tc = makeCase(static_cast<std::size_t>(state.range(0)), 1);
  const auto& inputs = tc.spec.examples[0].inputs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsl::run(tc.program, inputs));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterpreterRun)->Arg(5)->Arg(10);

void BM_InterpreterEvalNoTrace(benchmark::State& state) {
  const auto tc = makeCase(5, 2);
  const auto& inputs = tc.spec.examples[0].inputs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsl::eval(tc.program, inputs));
  }
}
BENCHMARK(BM_InterpreterEvalNoTrace);

void BM_ExecutorPooled(benchmark::State& state) {
  // The zero-allocation engine on the same workload as BM_InterpreterRun:
  // cached plan, pooled result storage refilled in place.
  const auto tc = makeCase(static_cast<std::size_t>(state.range(0)), 1);
  const auto& inputs = tc.spec.examples[0].inputs;
  const dsl::InputSignature sig = tc.spec.signature();
  dsl::Executor executor;
  dsl::ExecResult pooled;
  for (auto _ : state) {
    dsl::executePlan(executor.planFor(tc.program, sig), inputs, pooled);
    benchmark::DoNotOptimize(pooled);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecutorPooled)->Arg(5)->Arg(10);

void BM_ExecutorPlanCompile(benchmark::State& state) {
  const auto tc = makeCase(static_cast<std::size_t>(state.range(0)), 4);
  const dsl::InputSignature sig = tc.spec.signature();
  dsl::ExecPlan plan;
  for (auto _ : state) {
    dsl::compilePlanInto(tc.program, sig, plan);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_ExecutorPlanCompile)->Arg(5)->Arg(10);

// --------------------------------------------- lane-executor breakdown ----
//
// Per-function-family throughput, scalar statement-major executePlanMulti
// vs the SIMD lane view, on fixed pipelines of one op family at a time.
// When the aggregate interpreter-bench ratio moves, these rows localize the
// regression to a kernel family instead of the aggregate number. Arg(n) is
// the example count per gene execution (8 = one full AVX2 vector, 32 = the
// lane limit).

/// One (program, signature, inputs) workload executed whole-spec at a time,
/// through either multi-example path.
class LaneWorkload {
 public:
  LaneWorkload(const char* source, std::size_t examples)
      : program_(*dsl::Program::fromString(source)), sig_({dsl::Type::List}) {
    util::Rng rng(21);
    const dsl::Generator gen;
    inputs_.reserve(examples);
    for (std::size_t j = 0; j < examples; ++j) {
      inputs_.push_back(gen.randomInputs(sig_, rng));
      inputSets_.push_back(&inputs_[j]);
    }
    runs_.resize(examples);
    plan_ = &executor_.planFor(program_, sig_);
  }

  void runScalar() {
    dsl::executePlanMulti(*plan_, inputSets_.data(), inputSets_.size(),
                          runs_.data());
  }
  void runLanes() {
    // inputs_ is owned and immutable, so the pinned-ingest fast path is
    // sound — this measures the executor exactly as SpecEvaluator runs it
    // (inputs pinned once per spec).
    dsl::executePlanMultiLanesView(*plan_, inputSets_.data(),
                                   inputSets_.size(), view_, trace_,
                                   /*reuseIngest=*/true);
    benchmark::DoNotOptimize(view_);
  }
  std::size_t examples() const { return inputSets_.size(); }

 private:
  dsl::Program program_;
  dsl::InputSignature sig_;
  dsl::Executor executor_;
  const dsl::ExecPlan* plan_ = nullptr;
  std::vector<std::vector<dsl::Value>> inputs_;
  std::vector<const std::vector<dsl::Value>*> inputSets_;
  std::vector<dsl::ExecResult> runs_;
  dsl::SoATrace trace_;
  dsl::LaneTraceView view_;
};

const char* laneFamilySource(int family) {
  switch (family) {
    case 0:  // map: element-wise arithmetic, the widen/clamp SIMD kernels
      return "MAP(+1) | MAP(*2) | MAP(/3) | MAP(*(-1)) | MAP(^2)";
    case 1:  // zipwith: two-list element-wise kernels
      return "ZIPWITH(+) | ZIPWITH(*) | ZIPWITH(max) | ZIPWITH(-) | "
             "ZIPWITH(min)";
    case 2:  // filter/delete: per-lane branchless compaction
      return "FILTER(>0) | FILTER(even) | DELETE | FILTER(<0) | FILTER(odd)";
    case 3:  // scanl1: sequential recurrence, vector only across the copy
      return "SCANL1(+) | SCANL1(max) | SCANL1(*) | SCANL1(min) | SCANL1(-)";
    case 4:  // aggregates: list -> int reductions
      return "SUM | MAXIMUM | MINIMUM | COUNT(>0) | SEARCH";
    case 5:  // reorder/slice: memmove-bound block ops
      return "SORT | REVERSE | TAKE | DROP | INSERT";
    default:
      return "";
  }
}

const char* laneFamilyName(int family) {
  const char* names[] = {"map",    "zipwith",   "filter",
                         "scanl1", "aggregate", "reorder"};
  return names[family];
}

void BM_LaneFamilyScalar(benchmark::State& state) {
  LaneWorkload w(laneFamilySource(static_cast<int>(state.range(0))),
                 static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) w.runScalar();
  state.SetItemsProcessed(state.iterations() * w.examples());
  state.SetLabel(laneFamilyName(static_cast<int>(state.range(0))));
}

void BM_LaneFamilySimd(benchmark::State& state) {
  LaneWorkload w(laneFamilySource(static_cast<int>(state.range(0))),
                 static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) w.runLanes();
  state.SetItemsProcessed(state.iterations() * w.examples());
  state.SetLabel(std::string(laneFamilyName(static_cast<int>(state.range(0)))) +
                 "/" + dsl::Executor::backendName());
}

void laneFamilyArgs(benchmark::internal::Benchmark* b) {
  for (int family = 0; family < 6; ++family)
    for (int examples : {8, 32}) b->Args({family, examples});
}
BENCHMARK(BM_LaneFamilyScalar)->Apply(laneFamilyArgs);
BENCHMARK(BM_LaneFamilySimd)->Apply(laneFamilyArgs);

void BM_EvaluatorEvaluate(benchmark::State& state) {
  // Full evaluator path (plan cache + executePlanMulti + recycle pool) on a
  // 10-example spec — the GA's per-candidate execution cost.
  util::Rng rng(14);
  const dsl::Generator gen;
  const auto tc = *gen.randomTestCase(5, 10, false, rng);
  const dsl::InputSignature sig = tc.spec.signature();
  core::SearchBudget budget(1u << 30);
  core::SpecEvaluator evaluator(tc.spec, budget, /*dedup=*/false);
  const auto candidate = *gen.randomProgram(5, sig, rng);
  for (auto _ : state) {
    auto ev = evaluator.evaluate(candidate);
    benchmark::DoNotOptimize(ev);
    evaluator.recycle(std::move(*ev));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvaluatorEvaluate);

void BM_DeadCodeAnalysis(benchmark::State& state) {
  const auto tc = makeCase(static_cast<std::size_t>(state.range(0)), 3);
  const dsl::InputSignature sig = tc.spec.signature();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsl::liveMask(tc.program, sig));
  }
}
BENCHMARK(BM_DeadCodeAnalysis)->Arg(5)->Arg(10);

void BM_RandomFullyLiveProgram(benchmark::State& state) {
  util::Rng rng(4);
  const dsl::Generator gen;
  const dsl::InputSignature sig = {dsl::Type::List};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gen.randomProgram(static_cast<std::size_t>(state.range(0)), sig, rng));
  }
}
BENCHMARK(BM_RandomFullyLiveProgram)->Arg(5)->Arg(10);

void BM_OracleMetrics(benchmark::State& state) {
  const auto a = makeCase(10, 5).program;
  const auto b = makeCase(10, 6).program;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fitness::commonFunctions(a, b));
    benchmark::DoNotOptimize(fitness::longestCommonSubsequence(a, b));
  }
}
BENCHMARK(BM_OracleMetrics);

void BM_EditDistanceFitness(benchmark::State& state) {
  const auto tc = makeCase(5, 7);
  const auto candidate = makeCase(5, 8).program;
  std::vector<dsl::ExecResult> runs;
  for (const auto& ex : tc.spec.examples)
    runs.push_back(dsl::run(candidate, ex.inputs));
  fitness::EditDistanceFitness fit;
  const fitness::EvalContext ctx{tc.spec, runs};
  for (auto _ : state) {
    benchmark::DoNotOptimize(fit.score(candidate, ctx));
  }
}
BENCHMARK(BM_EditDistanceFitness);

void BM_NnffForwardGraph(benchmark::State& state) {
  const fitness::NnffModel model(benchModelConfig(fitness::HeadKind::Classifier));
  fitness::DatasetBuilder builder;
  util::Rng rng(9);
  const auto s = *builder.makeSample(3, fitness::BalanceMetric::CF, rng);
  nn::InferenceModeGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forward(s.spec, s.candidate, s.traces));
  }
}
BENCHMARK(BM_NnffForwardGraph);

void BM_NnffPredictBatch(benchmark::State& state) {
  const fitness::NnffModel model(benchModelConfig(fitness::HeadKind::Classifier));
  fitness::DatasetBuilder builder;
  util::Rng rng(9);
  const auto s = *builder.makeSample(3, fitness::BalanceMetric::CF, rng);
  // A population of copies of the sample's candidate; Arg(1) is the
  // single-gene path, so genes/sec across args show the batching gain.
  const auto batch = static_cast<std::size_t>(state.range(0));
  fitness::EncodedTrace encoded;
  model.encodeTrace(s.spec, s.candidate, s.traces, encoded);
  std::vector<const dsl::Program*> genes(batch, &s.candidate);
  std::vector<const fitness::EncodedTrace*> rows(batch, &encoded);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predictBatch(s.spec, genes, rows));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_NnffPredictBatch)->Arg(1)->Arg(10)->Arg(100);

void BM_ProbMapInference(benchmark::State& state) {
  auto model = std::make_shared<fitness::NnffModel>(
      benchModelConfig(fitness::HeadKind::Multilabel));
  fitness::DatasetBuilder builder;
  util::Rng rng(10);
  const auto s = *builder.makeSample(3, fitness::BalanceMetric::CF, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->predictIOOnly(s.spec));
  }
}
BENCHMARK(BM_ProbMapInference);

void BM_GaBreedGeneration(benchmark::State& state) {
  util::Rng rng(11);
  const dsl::Generator gen;
  const dsl::InputSignature sig = {dsl::Type::List};
  core::GaConfig config;
  config.populationSize = 100;
  core::Population pop;
  for (std::size_t i = 0; i < config.populationSize; ++i)
    pop.push_back({*gen.randomProgram(5, sig, rng), rng.uniformReal()});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::breed(pop, config, sig, gen, rng, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * config.populationSize);
}
BENCHMARK(BM_GaBreedGeneration);

void BM_NeighborhoodSearchBfs(benchmark::State& state) {
  const auto tc = makeCase(5, 12);
  // A gene far from the target: the full neighborhood is swept every time.
  const auto gene = makeCase(5, 13).program;
  for (auto _ : state) {
    state.PauseTiming();
    core::SearchBudget budget(1u << 30);
    core::SpecEvaluator ev(tc.spec, budget, /*dedup=*/false);
    state.ResumeTiming();
    benchmark::DoNotOptimize(core::neighborhoodSearchBfs({gene}, ev));
  }
  state.SetItemsProcessed(state.iterations() * 5 * (dsl::kNumFunctions - 1));
}
BENCHMARK(BM_NeighborhoodSearchBfs);

}  // namespace

BENCHMARK_MAIN();
