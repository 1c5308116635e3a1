// Island-model configuration and reporting types.
//
// The island engine (islands.cpp, entry point declared in synthesizer.hpp)
// evolves K independent sub-populations in deterministic lockstep rounds on
// a worker pool, exchanging elites every few generations and charging one
// global BudgetLedger (budget.hpp) so the whole ensemble respects the
// paper's single-population candidate budget. This header holds the plain
// data types shared by the engine, the synthesizer configuration, and the
// experiment harness; it deliberately knows nothing about the engine itself
// so synthesizer.hpp can embed IslandsConfig without a cycle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/neighborhood.hpp"
#include "fitness/fitness.hpp"
#include "fitness/neural_fitness.hpp"

namespace netsyn::core {

/// Which islands exchange migrants.
enum class Topology : std::uint8_t {
  Ring,            ///< island i sends its elites to island (i+1) mod K
  FullyConnected,  ///< every island sends its elites to every other island
};

/// Optional per-island search mutations: heterogeneous ensembles explore
/// with different operator mixes (a portfolio, in the MizAR sense) while
/// staying bit-deterministic — island i applies tweaks[i % tweaks.size()].
struct IslandTweak {
  double mutationRateScale = 1.0;   ///< scales GaConfig::mutationRate
  double crossoverRateScale = 1.0;  ///< scales GaConfig::crossoverRate
  std::optional<NsKind> nsKind;     ///< override the NS flavour
  /// Override Mutation_FP on/off (enabling is honoured only when a prob-map
  /// provider exists; disabling turns the island into a uniform mutator).
  std::optional<bool> fpGuidedMutation;
};

struct IslandsConfig {
  std::size_t count = 1;              ///< K sub-populations
  std::size_t migrationInterval = 10; ///< M: migrate every M generations
  std::size_t migrationSize = 2;      ///< E: elites sent per migration
  Topology topology = Topology::Ring;
  /// Most threads a round's islands run on (0 = one per island), taken
  /// from the process-wide util::Executor, which bounds them by the
  /// hardware. Purely a throughput knob: results are identical for every
  /// value (pinned by tests). Islands without isolated per-island fitness
  /// instances always run on one thread.
  std::size_t threads = 0;
  /// Apply a default operator-diversity cycle when `tweaks` is empty.
  bool heterogeneous = false;
  /// Explicit per-island overrides (cyclic); takes precedence over
  /// `heterogeneous`.
  std::vector<IslandTweak> tweaks;
};

/// Per-island accounting reported in SynthesisResult::islandStats.
struct IslandStats {
  std::size_t island = 0;
  double bestFitness = 0.0;    ///< best fitness the island ever graded
  std::size_t evals = 0;       ///< candidates granted by the ledger
  std::size_t generations = 0; ///< generations the island completed
  std::size_t emigrants = 0;   ///< elites sent to neighbours
  std::size_t immigrants = 0;  ///< migrants accepted (post-dedup)
  std::size_t nsInvocations = 0;
  bool solved = false;         ///< this island produced the winning solution
};

/// One island's grading kit. NN-backed fitness functions carry mutable
/// inference scratch, so parallel islands each need their own clone — the
/// same isolation rule the parallel experiment runner applies per worker.
struct IslandFitness {
  fitness::FitnessPtr fitness;
  std::shared_ptr<fitness::ProbMapProvider> probMap;
};

/// Produces island `i`'s private fitness instances. When absent, every
/// island shares the synthesizer's single instances and the engine degrades
/// to sequential island stepping (same results, no parallel speedup).
using IslandFitnessFactory = std::function<IslandFitness(std::size_t)>;

}  // namespace netsyn::core
