// GA-style candidate-execution throughput: legacy interpreter vs the
// zero-allocation execution engine vs the SIMD lane view.
//
// Reproduces the synthesizer's execution hot loop: every generation a
// population is bred and every gene is executed on every spec example with
// its trace kept. The same populations are timed three ways —
//
//   legacy: the seed interpreter (recompute the argument plan per call,
//           copy argument Values into a buffer per statement, allocate a
//           fresh Value per statement and a fresh trace per example),
//           reproduced verbatim from the PR 1 code in legacy_baseline.hpp;
//   engine: a cached ExecPlan per (program, signature), pointer-passed
//           arguments, and pooled trace storage refilled in place (the
//           scalar statement-major executePlanMulti that
//           SpecEvaluator::evaluate runs);
//   lanes:  the SIMD lane executor's trace view (executeMultiView):
//           structure-of-arrays blocks, vectorized function bodies where
//           the build enables them (Executor::backendName()), per-lane
//           fallback elsewhere — the path the NN fitness encoders read.
//
// All three run in the same process, interleaved per generation on the
// same populations, so host-speed drift cancels out of the ratios. The
// full-trace ratio (`trace_lanes_speedup`) is the machine-independent gate
// for the lane view: the lanes slice binds a LaneTraceView over the
// un-scattered SoA blocks and consumes it in place, while legacy/engine
// build per-Value traces and then walk them. Every slice folds its trace
// into the checksum *inside* its timed region, so each path pays exactly
// the consumption cost the synthesizer pays.
//
//   $ ./bench_interpreter [--population=100] [--examples=10] [--length=5]
//                         [--generations=20] [--seed=2021]
//                         [--json=BENCH_interpreter.json]
#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "legacy_baseline.hpp"
#include "core/ga.hpp"
#include "dsl/generator.hpp"
#include "dsl/interpreter.hpp"
#include "util/argparse.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace netsyn;

namespace {

/// The seed interpreter, kept as the measurement baseline: plan recomputed
/// on every call, whole-Value argument copies, fresh trace allocation.
dsl::ExecResult legacyRun(const dsl::Program& program,
                          const std::vector<dsl::Value>& inputs) {
  const dsl::ArgPlan plan =
      dsl::computeArgPlan(program, dsl::signatureOf(inputs));
  dsl::ExecResult result;
  result.trace.reserve(program.length());
  std::array<dsl::Value, dsl::kMaxArity> argbuf;
  for (std::size_t k = 0; k < program.length(); ++k) {
    const dsl::StatementPlan& sp = plan[k];
    const dsl::FunctionInfo& info = dsl::functionInfo(program.at(k));
    for (std::size_t slot = 0; slot < sp.arity; ++slot) {
      const dsl::ArgSource& src = sp.args[slot];
      switch (src.kind) {
        case dsl::ArgSource::Kind::Statement:
          argbuf[slot] = result.trace[src.index];
          break;
        case dsl::ArgSource::Kind::Input:
          argbuf[slot] = inputs[src.index];
          break;
        case dsl::ArgSource::Kind::Default:
          argbuf[slot] = dsl::Value::defaultFor(info.argTypes[slot]);
          break;
      }
    }
    result.trace.push_back(netsyn::bench::legacy::applyFunction(
        program.at(k), std::span<const dsl::Value>(argbuf.data(), sp.arity)));
  }
  return result;
}

/// Folds one value into a checksum so the compiler cannot elide the work,
/// and so different paths can be asserted to agree.
std::uint64_t mixValue(const dsl::Value& v, std::uint64_t h) {
  const auto mix = [&h](std::int64_t x) {
    h ^= static_cast<std::uint64_t>(x);
    h *= 1099511628211ULL;
  };
  if (v.isInt()) {
    mix(v.asInt());
  } else {
    mix(static_cast<std::int64_t>(v.asList().size()));
    for (std::int32_t x : v.asList()) mix(x);
  }
  return h;
}

/// Per-statement hash seed: position-salted so reordered traces cannot
/// collide, and independent per statement so consumers can hash statements
/// in any order (the sums XOR-combine) — one long serial multiply chain per
/// trace would make the fold latency-bound and drown the execution cost the
/// bench is trying to compare.
std::uint64_t statementSalt(std::size_t k) {
  return 1469598103934665603ULL ^
         (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(k + 1));
}

std::uint64_t checksum(const dsl::ExecResult& r) {
  std::uint64_t h = 0;
  for (std::size_t k = 0; k < r.trace.size(); ++k)
    h ^= mixValue(r.trace[k], statementSalt(k));
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParse args(argc, argv);
  const auto population =
      static_cast<std::size_t>(args.getInt("population", 100));
  const auto examples = static_cast<std::size_t>(args.getInt("examples", 10));
  const auto length = static_cast<std::size_t>(args.getInt("length", 5));
  const auto generations =
      static_cast<std::size_t>(args.getInt("generations", 20));
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 2021));
  if (population == 0 || generations == 0 || examples == 0) {
    std::fprintf(stderr,
                 "--population, --examples, --generations must be > 0\n");
    return 1;
  }

  const auto repeats = static_cast<std::size_t>(args.getInt("repeat", 3));

  util::Rng tcRng(seed);
  const dsl::Generator gen;
  const auto tc = gen.randomTestCase(length, examples, false, tcRng);
  if (!tc) {
    std::fprintf(stderr, "could not generate a test case\n");
    return 1;
  }
  const dsl::InputSignature sig = tc->spec.signature();

  std::printf("=== bench_interpreter ===\n");
  std::printf(
      "population=%zu examples=%zu length=%zu generations=%zu repeat=%zu\n\n",
      population, examples, length, generations, repeats);

  std::size_t planCompiles = 0;

  // One full GA-shaped pass: breed `generations` populations from one
  // deterministic RNG stream and execute every generation through all three
  // paths back to back, timing each. Interleaving per generation (instead
  // of one full pass per path) keeps the measured slices of the three paths
  // within microseconds of each other, so host-speed drift on shared
  // hardware — which can swing absolute rates several-fold between passes —
  // cancels out of the speedup ratios. Each slice folds its own traces into
  // a checksum inside its timed region — execute + consume is the unit the
  // synthesizer actually runs — and the sums pin all paths to the same
  // results while keeping the compiler honest.
  const auto runPass = [&](double* secs, std::uint64_t* sums) {
    util::Rng rng(seed + 1);
    std::vector<dsl::Program> genes;
    genes.reserve(population);
    for (std::size_t i = 0; i < population; ++i)
      genes.push_back(*gen.randomProgram(length, sig, rng));

    dsl::Executor engineExec;
    dsl::Executor lanesExec;
    // The spec is fixed for the whole pass, so pin its inputs exactly as
    // SpecEvaluator does on construction — the lane pass then ingests the
    // examples once per lifetime instead of once per gene.
    std::vector<const std::vector<dsl::Value>*> inputSets;
    inputSets.reserve(examples);
    for (const auto& ex : tc->spec.examples) inputSets.push_back(&ex.inputs);
    lanesExec.pinExampleInputs(inputSets.data(), examples);
    // Pooled per-gene run storage, refilled in place every generation — the
    // evaluator's recycle() arena, inlined. The legacy path uses the same
    // container but each result is a fresh allocation moved in, exactly as
    // the seed pipeline materialized a generation's runs.
    std::vector<std::vector<dsl::ExecResult>> results(
        population, std::vector<dsl::ExecResult>(examples));
    const auto engineGeneration = [&] {
      for (std::size_t b = 0; b < genes.size(); ++b) {
        // One cached-plan lookup per gene, then all examples through the
        // statement-major body — exactly SpecEvaluator::evaluate's path.
        dsl::executePlanMulti(engineExec.planFor(genes[b], sig),
                              inputSets.data(), examples, results[b].data());
      }
    };
    const auto fold = [&](std::uint64_t* sum) {
      for (const auto& perGene : results)
        for (const auto& r : perGene) *sum ^= checksum(r);
    };
    // The lane trace slice runs the production path: executeMultiView keeps
    // the SoA lane blocks un-scattered and binds a view, and the fold walks
    // the blocks in place. The walk below is checksum() transliterated onto
    // the view layout, so lanesSum stays bitwise-comparable to the scalar
    // sums. executeMultiView only refuses when examples exceed the lane
    // limit; those specs run on the scalar engine in production, so the
    // slice does the same there (and then measures the engine's cost).
    dsl::LaneTraceView view;
    const auto laneViewGeneration = [&](std::uint64_t* sum) {
      for (std::size_t b = 0; b < genes.size(); ++b) {
        const dsl::ExecPlan& plan = lanesExec.planFor(genes[b], sig);
        if (!lanesExec.executeMultiView(plan, inputSets.data(), examples,
                                        view)) {
          dsl::executePlanMulti(plan, inputSets.data(), examples,
                                results[b].data());
          for (const auto& r : results[b]) *sum ^= checksum(r);
          continue;
        }
        // Statement-major: each statement's lane block is contiguous in the
        // SoA store, so this walk streams where the per-example walk over
        // scattered Values pointer-chases.
        for (std::size_t k = 0; k < view.steps; ++k) {
          const std::uint64_t salt = statementSalt(k);
          if (view.stepType(k) == dsl::Type::Int) {
            const std::int32_t* lanesBlock = view.intLanes(k);
            for (std::size_t j = 0; j < examples; ++j) {
              std::uint64_t h = salt;
              h ^= static_cast<std::uint64_t>(
                  static_cast<std::int64_t>(lanesBlock[j]));
              h *= 1099511628211ULL;
              *sum ^= h;
            }
          } else {
            for (std::size_t j = 0; j < examples; ++j) {
              std::uint64_t h = salt;
              const auto mix = [&h](std::int64_t x) {
                h ^= static_cast<std::uint64_t>(x);
                h *= 1099511628211ULL;
              };
              std::size_t len = 0;
              const std::int32_t* seg = view.listAt(k, j, &len);
              mix(static_cast<std::int64_t>(len));
              for (std::size_t t = 0; t < len; ++t)
                mix(static_cast<std::int64_t>(seg[t]));
              *sum ^= h;
            }
          }
        }
      }
    };

    core::GaConfig gaConfig;
    gaConfig.populationSize = population;
    for (std::size_t g = 0; g < generations; ++g) {
      {
        util::Timer timer;
        for (std::size_t b = 0; b < genes.size(); ++b) {
          for (std::size_t j = 0; j < examples; ++j)
            results[b][j] = legacyRun(genes[b], tc->spec.examples[j].inputs);
        }
        fold(&sums[0]);
        secs[0] += timer.seconds();
      }
      {
        util::Timer timer;
        engineGeneration();
        fold(&sums[1]);
        secs[1] += timer.seconds();
      }
      {
        util::Timer timer;
        laneViewGeneration(&sums[2]);
        secs[2] += timer.seconds();
      }
      // Evolve so later generations look like the GA's real workload:
      // shared ancestry, duplicate subsequences, recurring values.
      core::Population scored;
      for (std::size_t b = 0; b < genes.size(); ++b)
        scored.push_back(core::Individual{genes[b], 1.0 + rng.uniformReal()});
      genes = core::breed(scored, gaConfig, sig, gen, rng, nullptr);
    }
    planCompiles = engineExec.planCompiles();
  };

  const std::size_t executed = population * generations;
  double legacySeconds = 1e300;
  double engineSeconds = 1e300;
  double lanesSeconds = 1e300;
  std::uint64_t legacySum = 0;
  std::uint64_t engineSum = 0;
  std::uint64_t lanesSum = 0;
  // Best-of-N passes: robust against scheduler noise on shared hardware.
  for (std::size_t r = 0; r < repeats; ++r) {
    double secs[3] = {0.0, 0.0, 0.0};
    std::uint64_t sums[3] = {0, 0, 0};
    runPass(secs, sums);
    legacySeconds = std::min(legacySeconds, secs[0]);
    engineSeconds = std::min(engineSeconds, secs[1]);
    lanesSeconds = std::min(lanesSeconds, secs[2]);
    legacySum = sums[0];
    engineSum = sums[1];
    lanesSum = sums[2];
  }

  if (legacySum != engineSum) {
    std::fprintf(stderr, "FATAL: engine results diverge from legacy\n");
    return 1;
  }
  if (lanesSum != engineSum) {
    std::fprintf(stderr, "FATAL: lane executor diverges from scalar engine\n");
    return 1;
  }

  const double legacyRate = static_cast<double>(executed) / legacySeconds;
  const double engineRate = static_cast<double>(executed) / engineSeconds;
  const double lanesRate = static_cast<double>(executed) / lanesSeconds;
  std::printf("legacy interpreter:  %9.0f genes/sec (%.3fs for %zu)\n",
              legacyRate, legacySeconds, executed);
  std::printf("exec engine:         %9.0f genes/sec (%.3fs for %zu)\n",
              engineRate, engineSeconds, executed);
  std::printf("lane executor (%s): %9.0f genes/sec (%.3fs for %zu)\n",
              dsl::Executor::backendName(), lanesRate, lanesSeconds, executed);
  std::printf("speedup:             %9.2fx (engine vs legacy)\n",
              engineRate / legacyRate);
  std::printf("trace lanes speedup: %9.2fx (lane trace path vs scalar engine)\n",
              lanesRate / engineRate);
  std::printf("plan compiles:       %9zu (for %zu gene executions)\n",
              planCompiles, executed);

  const std::string jsonPath = args.getString("json", "BENCH_interpreter.json");
  if (!jsonPath.empty()) {
    if (std::FILE* f = std::fopen(jsonPath.c_str(), "w")) {
      std::fprintf(f,
                   "{\"bench\": \"interpreter\", \"population\": %zu, "
                   "\"examples\": %zu, \"length\": %zu, \"generations\": %zu, "
                   "\"executed\": %zu, \"legacy_genes_per_sec\": %.1f, "
                   "\"engine_genes_per_sec\": %.1f, \"speedup\": %.3f, "
                   "\"lanes_genes_per_sec\": %.1f, "
                   "\"trace_lanes_speedup\": %.3f, "
                   "\"simd_backend\": \"%s\", \"plan_compiles\": %zu}\n",
                   population, examples, length, generations, executed,
                   legacyRate, engineRate, engineRate / legacyRate, lanesRate,
                   lanesRate / engineRate, dsl::Executor::backendName(),
                   planCompiles);
      std::fclose(f);
      std::printf("[json written to %s]\n", jsonPath.c_str());
    }
  }
  return 0;
}
