// Head-to-head comparison of every synthesis method on a small workload —
// a miniature of the paper's Figure 4 experiment using the public harness
// API. Trains (or loads cached) NN fitness models first.
//
//   $ ./compare_methods [--scale=ci] [--budget=10000]
//                       [--programs-per-length=4] [--lengths=4,5]
//                       [--workers=4] [--islands=4]
//
// With --workers=N the (program, run) pairs of each method are dispatched
// onto up to N threads of the process-wide executor, each with its own
// method instance; the report is identical to a sequential run (wall-clock
// aside). With --islands=K every GA-based
// method evolves K cooperating sub-populations under one candidate budget
// (see README "Search strategies"); results stay deterministic per seed.
#include <cstdio>
#include <exception>

#include "harness/registry.hpp"
#include "harness/runner.hpp"
#include "util/table.hpp"

using namespace netsyn;

// The real body; main() wraps it so flag-parse errors (bad --lengths,
// non-numeric --budget, unknown --domain...) print their message instead of
// tearing the process down through std::terminate.
int run(int argc, char** argv) {
  const util::ArgParse args(argc, argv);
  auto config = harness::ExperimentConfig::fromArgs(args);
  // Keep the no-argument demo small; flags scale it up.
  if (!args.has("programs-per-length")) config.programsPerLength = 4;
  if (!args.has("runs")) config.runsPerProgram = 1;

  std::printf("Preparing fitness models (cached in %s)...\n",
              config.modelDir.c_str());
  const auto models = harness::loadOrTrainAll(config);
  const auto workload = harness::makeFullWorkload(config);
  std::printf("Workload: %zu programs, budget %zu candidates, %zu runs\n\n",
              workload.size(), config.searchBudget, config.runsPerProgram);

  util::Table table(
      {"Method", "Synthesized", "Avg rate", "Avg candidates", "Avg secs"});
  for (const auto& factory : harness::makeAllMethodFactories(config, models)) {
    const auto report = harness::runMethod(factory, workload, config,
                                           /*verbose=*/false);
    double cands = 0, secs = 0;
    std::size_t n = 0;
    for (const auto& p : report.programs) {
      if (!p.synthesized()) continue;
      cands += p.meanCandidatesWhenFound();
      secs += p.meanSecondsWhenFound();
      ++n;
    }
    table.newRow()
        .add(report.method)
        .addPercent(report.synthesizedFraction(), 0)
        .addPercent(report.meanSynthesisRate(), 0)
        .addDouble(n ? cands / double(n) : 0.0, 0)
        .addDouble(n ? secs / double(n) : 0.0, 2);
    std::printf("%s done\n", report.method.c_str());
  }
  std::printf("\n%s", table.toString().c_str());
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
