// Experiment runner: executes a method over a workload with K repetitions
// per program and derives the paper's reporting series (search-space and
// synthesis-time percentile rows of Tables 3/4, per-program synthesis rates
// of Figure 4(d-f), per-function percentages of Figure 6).
#pragma once

#include <array>
#include <vector>

#include "baselines/method.hpp"
#include "harness/registry.hpp"
#include "harness/workload.hpp"
#include "util/table.hpp"

namespace netsyn::harness {

struct RunRecord {
  bool found = false;
  std::size_t candidates = 0;
  double seconds = 0.0;
  std::size_t generations = 0;
  /// Per-island accounting (best fitness, ledger-granted evals,
  /// migrations); empty for single-population methods. Deterministic for a
  /// fixed (seed, K) like the fields above, so parallel and sequential
  /// runners report identical stats (pinned by tests).
  std::vector<core::IslandStats> islands;

  /// Sum of migrants accepted across this run's islands.
  std::size_t migrationsAccepted() const;
};

struct ProgramResult {
  std::size_t programId = 0;
  std::size_t length = 0;
  bool singleton = false;
  dsl::Program target;
  std::vector<RunRecord> runs;  ///< K entries

  /// Fraction of the K runs that synthesized the program (Fig. 4d-f).
  double synthesisRate() const;
  /// Synthesized at least once across the K runs (the paper's "programs
  /// synthesized" count).
  bool synthesized() const;
  /// Mean candidates searched over the successful runs (0 if none).
  double meanCandidatesWhenFound() const;
  /// Mean wall-clock seconds over the successful runs (0 if none).
  double meanSecondsWhenFound() const;
  /// Mean GA generations over the successful runs (0 if none).
  double meanGenerationsWhenFound() const;
};

struct MethodReport {
  std::string method;
  std::size_t budget = 0;
  std::vector<ProgramResult> programs;

  /// Fraction of programs synthesized at least once.
  double synthesizedFraction() const;
  /// Mean per-program synthesis rate (Table 2's "Avg Syn. Rate").
  double meanSynthesisRate() const;
  /// Mean generations over synthesized programs (Table 2's "Avg
  /// Generation").
  double meanGenerations() const;
};

/// The deterministic RNG for run `k` of workload program `p`: derived from
/// (config.seed, p, k) only, never from scheduling. Every executor of
/// (program, run) tasks — the sequential runner, the parallel runner, and
/// the synthesis service's shared worker pool — seeds through this one
/// function, which is what makes their reports bit-identical.
util::Rng runSeedRng(const ExperimentConfig& config, std::size_t p,
                     std::size_t k);

/// Runs `method` over `workload` with config.runsPerProgram repetitions,
/// sequentially (a single method instance is not thread-safe, so this
/// overload ignores config.workers). Deterministic: run k of program p uses
/// a seed derived from (config.seed, p, k). Progress lines go to stderr
/// when `verbose`.
MethodReport runMethod(baselines::Method& method,
                       const std::vector<TestProgram>& workload,
                       const ExperimentConfig& config, bool verbose = true);

/// Parallel runner: dispatches every (program, run) pair onto up to
/// config.workers threads of the process-wide util::Executor (0 = its
/// concurrency), each worker grading with its own method instance from
/// `makeMethod`; a search's exception is rethrown here. Because run k of
/// program p is seeded from (config.seed, p, k) and every result lands in its
/// preassigned slot, the report's deterministic fields (found / candidates /
/// generations and everything derived from them) are identical to a
/// sequential run; only the wall-clock `seconds` fields vary.
MethodReport runMethod(const baselines::MethodFactory& makeMethod,
                       const std::vector<TestProgram>& workload,
                       const ExperimentConfig& config, bool verbose = true);

/// Percentile row (Tables 3 and 4): entry i is the per-program statistic
/// needed to synthesize (i+1)*10% of the workload's programs, or NaN when
/// the method never synthesizes that many. `useTime` selects seconds
/// (Table 3) versus budget fraction (Table 4).
std::array<double, 10> percentileRow(const MethodReport& report,
                                     bool useTime);

/// Appends the report as one row of a Table-3/4-style util::Table
/// ("Method | Synth% | 10% .. 100%").
void appendPercentileRow(util::Table& table, const MethodReport& report,
                         bool useTime);

/// Header for the percentile tables.
std::vector<std::string> percentileHeader(const std::string& metricLabel);

}  // namespace netsyn::harness
