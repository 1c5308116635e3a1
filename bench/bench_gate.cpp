// bench_gate — the CI perf-regression gate over the bench JSON records.
//
// Compares a fresh bench record against its committed snapshot in
// bench/baselines/ and exits nonzero when any gated metric (genes/sec,
// solve counts) regresses past the tolerance. The comparison prints as a
// markdown table; pass --summary=$GITHUB_STEP_SUMMARY to also append it to
// the job summary.
//
// Usage:
//   bench_gate --baseline=bench/baselines/BENCH_interpreter.json
//              --fresh=BENCH_interpreter.json [--tolerance=0.15]
//              [--summary=path]
//   bench_gate --baseline=... --self-test [--tolerance=0.15]
//
// --self-test proves the gate can fail: it injects a synthetic 20%
// regression into every gated metric of the baseline and verifies the gate
// trips (and that the unmodified baseline passes). Exit codes: 0 pass,
// 1 regression (or self-test failure), 2 usage/IO error.
//
// Refreshing baselines intentionally (after a deliberate perf change): run
// the bench-smoke commands from .github/workflows/ci.yml and copy the fresh
// BENCH_*.json over bench/baselines/ in the same PR that changes the perf.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "util/argparse.hpp"
#include "util/benchcmp.hpp"

namespace {

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace netsyn;
  try {
    const util::ArgParse args(argc, argv);
    const std::string baselinePath = args.getString("baseline", "");
    const double tolerance = args.getDouble("tolerance", 0.15);
    if (baselinePath.empty()) {
      std::fprintf(stderr, "bench_gate: --baseline is required\n");
      return 2;
    }
    const std::string baseline = readFile(baselinePath);

    if (args.getBool("self-test", false)) {
      // The gate must pass on identity...
      util::BenchComparison same =
          util::compareBenchRecords(baseline, baseline);
      if (same.anyRegression(tolerance)) {
        std::fprintf(stderr, "self-test FAILED: identity comparison "
                             "reported a regression\n");
        return 1;
      }
      // ...and fail once every gated metric loses 20%.
      util::BenchComparison injected = same;
      for (util::BenchDelta& d : injected.rows)
        if (d.gated) d.fresh = d.baseline * 0.8;
      const std::string table = util::renderMarkdown(injected, tolerance);
      std::printf("%s\n", table.c_str());
      const std::string summaryPath = args.getString("summary", "");
      if (!summaryPath.empty()) {
        std::ofstream summary(summaryPath, std::ios::app);
        summary << "self-test (synthetic 20% regression, must trip):\n\n"
                << table << "\n";
      }
      if (!injected.anyRegression(tolerance)) {
        std::fprintf(stderr, "self-test FAILED: injected 20%% regression "
                             "passed the %.0f%% gate\n", tolerance * 100.0);
        return 1;
      }
      std::printf("self-test OK: injected 20%% regression trips the gate, "
                  "identity passes\n");
      return 0;
    }

    const std::string freshPath = args.getString("fresh", "");
    if (freshPath.empty()) {
      std::fprintf(stderr, "bench_gate: --fresh is required\n");
      return 2;
    }
    const util::BenchComparison cmp =
        util::compareBenchRecords(baseline, readFile(freshPath));
    const std::string table = util::renderMarkdown(cmp, tolerance);
    std::printf("%s\n", table.c_str());

    const std::string summaryPath = args.getString("summary", "");
    if (!summaryPath.empty()) {
      std::ofstream summary(summaryPath, std::ios::app);
      summary << table << "\n";
    }

    if (cmp.anyRegression(tolerance)) {
      std::fprintf(stderr,
                   "bench_gate: REGRESSION in %s beyond %.0f%% — if this "
                   "perf change is intentional, refresh "
                   "bench/baselines/ (see bench_gate.cpp header)\n",
                   cmp.bench.c_str(), tolerance * 100.0);
      return 1;
    }
    std::printf("bench_gate: %s within %.0f%% of baseline\n",
                cmp.bench.c_str(), tolerance * 100.0);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_gate: %s\n", e.what());
    return 2;
  }
}
