#include "harness/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/executor.hpp"

namespace netsyn::harness {

util::Rng runSeedRng(const ExperimentConfig& config, std::size_t p,
                     std::size_t k) {
  return util::Rng(config.seed ^ (p * 0x9e3779b97f4a7c15ULL) ^
                   (k * 0xbf58476d1ce4e5b9ULL) ^ 0x1234);
}

namespace {

/// Skeleton report with every (program, run) slot preallocated, so workers
/// can write results by index and aggregation order never depends on
/// scheduling.
MethodReport emptyReport(const std::string& methodName,
                         const std::vector<TestProgram>& workload,
                         const ExperimentConfig& config) {
  MethodReport report;
  report.method = methodName;
  report.budget = config.searchBudget;
  report.programs.resize(workload.size());
  for (std::size_t p = 0; p < workload.size(); ++p) {
    ProgramResult& pr = report.programs[p];
    pr.programId = workload[p].id;
    pr.length = workload[p].length;
    pr.singleton = workload[p].singleton;
    pr.target = workload[p].target;
    pr.runs.resize(config.runsPerProgram);
  }
  return report;
}

void reportProgress(const MethodReport& report,
                    const std::vector<TestProgram>& workload) {
  for (std::size_t p = 0; p < workload.size(); ++p) {
    std::fprintf(stderr, "  [%s] len=%zu prog=%zu rate=%.0f%%\n",
                 report.method.c_str(), workload[p].length, workload[p].id,
                 report.programs[p].synthesisRate() * 100.0);
  }
}

double meanOverFound(const std::vector<RunRecord>& runs,
                     double (*pick)(const RunRecord&)) {
  double total = 0.0;
  std::size_t n = 0;
  for (const auto& r : runs) {
    if (!r.found) continue;
    total += pick(r);
    ++n;
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

}  // namespace

std::size_t RunRecord::migrationsAccepted() const {
  std::size_t total = 0;
  for (const auto& s : islands) total += s.immigrants;
  return total;
}

double ProgramResult::synthesisRate() const {
  if (runs.empty()) return 0.0;
  std::size_t found = 0;
  for (const auto& r : runs) found += r.found ? 1 : 0;
  return static_cast<double>(found) / static_cast<double>(runs.size());
}

bool ProgramResult::synthesized() const { return synthesisRate() > 0.0; }

double ProgramResult::meanCandidatesWhenFound() const {
  return meanOverFound(
      runs, [](const RunRecord& r) { return static_cast<double>(r.candidates); });
}

double ProgramResult::meanSecondsWhenFound() const {
  return meanOverFound(runs, [](const RunRecord& r) { return r.seconds; });
}

double ProgramResult::meanGenerationsWhenFound() const {
  return meanOverFound(runs, [](const RunRecord& r) {
    return static_cast<double>(r.generations);
  });
}

double MethodReport::synthesizedFraction() const {
  if (programs.empty()) return 0.0;
  std::size_t n = 0;
  for (const auto& p : programs) n += p.synthesized() ? 1 : 0;
  return static_cast<double>(n) / static_cast<double>(programs.size());
}

double MethodReport::meanSynthesisRate() const {
  if (programs.empty()) return 0.0;
  double total = 0.0;
  for (const auto& p : programs) total += p.synthesisRate();
  return total / static_cast<double>(programs.size());
}

double MethodReport::meanGenerations() const {
  double total = 0.0;
  std::size_t n = 0;
  for (const auto& p : programs) {
    if (!p.synthesized()) continue;
    total += p.meanGenerationsWhenFound();
    ++n;
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

MethodReport runMethod(baselines::Method& method,
                       const std::vector<TestProgram>& workload,
                       const ExperimentConfig& config, bool verbose) {
  MethodReport report = emptyReport(method.name(), workload, config);
  auto* targetAware = dynamic_cast<TargetAware*>(&method);
  for (std::size_t p = 0; p < workload.size(); ++p) {
    const TestProgram& tp = workload[p];
    if (targetAware) targetAware->setTarget(tp.target);
    for (std::size_t k = 0; k < config.runsPerProgram; ++k) {
      util::Rng rng = runSeedRng(config, p, k);
      const auto result = method.synthesize(tp.spec, tp.length,
                                            config.searchBudget, rng);
      report.programs[p].runs[k] =
          RunRecord{result.found, result.candidatesSearched, result.seconds,
                    result.generations, result.islandStats};
    }
    if (verbose) {
      const auto& runs = report.programs[p].runs;
      if (runs.empty() || runs.front().islands.empty()) {
        std::fprintf(stderr, "  [%s] len=%zu prog=%zu rate=%.0f%%\n",
                     report.method.c_str(), tp.length, tp.id,
                     report.programs[p].synthesisRate() * 100.0);
      } else {
        std::size_t migrations = 0;  // totalled like the rate on this line
        for (const auto& r : runs) migrations += r.migrationsAccepted();
        std::fprintf(stderr,
                     "  [%s] len=%zu prog=%zu rate=%.0f%% islands=%zu "
                     "migrations=%zu\n",
                     report.method.c_str(), tp.length, tp.id,
                     report.programs[p].synthesisRate() * 100.0,
                     runs.front().islands.size(), migrations);
      }
    }
  }
  return report;
}

MethodReport runMethod(const baselines::MethodFactory& makeMethod,
                       const std::vector<TestProgram>& workload,
                       const ExperimentConfig& config, bool verbose) {
  std::size_t workers = config.resolvedWorkers();
  const std::size_t totalTasks = workload.size() * config.runsPerProgram;
  workers = std::min(workers, std::max<std::size_t>(totalTasks, 1));

  if (workers <= 1) {
    auto method = makeMethod();
    return runMethod(*method, workload, config, verbose);
  }

  // Building a method can be expensive (NN model clones), so the instance
  // used for the name is handed to the first worker instead of discarded.
  baselines::MethodPtr firstInstance = makeMethod();
  MethodReport report = emptyReport(firstInstance->name(), workload, config);

  // Work queue: flat (program, run) index, claimed atomically. Each worker
  // builds one method instance when it claims its first run and keeps it;
  // every run derives its RNG from (seed, p, k) and writes to its
  // preassigned slot, so the deterministic report fields cannot depend on
  // the schedule. A search's exception ends the queue: the other workers
  // stop after their current run, and it reaches the caller.
  std::atomic<std::size_t> nextTask{0};
  const std::size_t runsPer = config.runsPerProgram;
  const auto worker = [&](std::size_t w) {
    baselines::MethodPtr method;
    TargetAware* targetAware = nullptr;
    try {
      for (std::size_t task; (task = nextTask.fetch_add(1)) < totalTasks;) {
        if (!method) {
          method = w == 0 ? std::move(firstInstance) : makeMethod();
          targetAware = dynamic_cast<TargetAware*>(method.get());
        }
        const std::size_t p = task / runsPer;
        const std::size_t k = task % runsPer;
        const TestProgram& tp = workload[p];
        if (targetAware) targetAware->setTarget(tp.target);
        util::Rng rng = runSeedRng(config, p, k);
        const auto result =
            method->synthesize(tp.spec, tp.length, config.searchBudget, rng);
        report.programs[p].runs[k] =
            RunRecord{result.found, result.candidatesSearched, result.seconds,
                      result.generations, result.islandStats};
      }
    } catch (...) {
      nextTask.store(totalTasks);
      throw;
    }
  };
  util::Executor::instance().run(workers, worker, workers);

  if (verbose) reportProgress(report, workload);
  return report;
}

std::array<double, 10> percentileRow(const MethodReport& report,
                                     bool useTime) {
  std::array<double, 10> row;
  row.fill(std::numeric_limits<double>::quiet_NaN());
  if (report.programs.empty()) return row;

  std::vector<double> costs;  // per synthesized program
  for (const auto& p : report.programs) {
    if (!p.synthesized()) continue;
    costs.push_back(useTime ? p.meanSecondsWhenFound()
                            : p.meanCandidatesWhenFound() /
                                  static_cast<double>(report.budget));
  }
  std::sort(costs.begin(), costs.end());

  const auto total = static_cast<double>(report.programs.size());
  for (std::size_t i = 0; i < 10; ++i) {
    // Cost needed to synthesize (i+1)*10% of ALL programs: the k-th
    // cheapest synthesized program where k = ceil(pct * total).
    const auto k = static_cast<std::size_t>(
        std::ceil((static_cast<double>(i + 1) / 10.0) * total));
    if (k == 0 || k > costs.size()) continue;  // stays NaN -> "-"
    row[i] = costs[k - 1];
  }
  return row;
}

void appendPercentileRow(util::Table& table, const MethodReport& report,
                         bool useTime) {
  table.newRow();
  table.add(report.method);
  table.addPercent(report.synthesizedFraction(), 0);
  const auto row = percentileRow(report, useTime);
  for (double v : row) {
    if (std::isnan(v)) table.add("-");
    else if (useTime) table.addDouble(v, 2);
    else table.addPercent(v, 2);
  }
}

std::vector<std::string> percentileHeader(const std::string& metricLabel) {
  std::vector<std::string> header = {"Method", "Synth%"};
  for (int pct = 10; pct <= 100; pct += 10)
    header.push_back(std::to_string(pct) + "% " + metricLabel);
  return header;
}

}  // namespace netsyn::harness
