// The NetSyn synthesizer: a genetic algorithm over DSL programs driven by a
// (learned or oracle) fitness function, with saturation-triggered local
// neighborhood search (paper Figure 1, §4.2).
//
// Two search strategies share this front door:
//   SinglePopulation — the paper's search: one panmictic population
//                      (implemented as one SearchState, search_state.hpp).
//   Islands          — K sub-populations evolving in deterministic lockstep
//                      with periodic elite migration and one global
//                      candidate ledger (islands.hpp / islands.cpp).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "core/budget.hpp"
#include "core/evaluator.hpp"
#include "core/ga.hpp"
#include "core/islands.hpp"
#include "core/neighborhood.hpp"
#include "dsl/generator.hpp"
#include "dsl/spec.hpp"
#include "fitness/fitness.hpp"
#include "fitness/neural_fitness.hpp"
#include "util/rng.hpp"

namespace netsyn::core {

/// Population layout of the search (see header comment).
enum class SearchStrategy : std::uint8_t { SinglePopulation, Islands };

struct SynthesizerConfig {
  GaConfig ga;
  std::size_t maxGenerations = 30000;  ///< paper Appendix B
  bool useNeighborhoodSearch = true;
  NsKind nsKind = NsKind::BFS;
  std::size_t nsTopN = 5;    ///< genes handed to NS
  std::size_t nsWindow = 10; ///< sliding window w of the saturation trigger
  bool fpGuidedMutation = false;  ///< Mutation_FP (needs a ProbMapProvider)
  dsl::GeneratorConfig generator;
  /// Record per-generation statistics in SynthesisResult::history (off by
  /// default: the history of a 30,000-generation run is sizeable).
  bool recordHistory = false;

  SearchStrategy strategy = SearchStrategy::SinglePopulation;
  /// Island-model parameters; consulted only when strategy == Islands.
  IslandsConfig islands;
};

/// One generation's summary, recorded when recordHistory is set.
struct GenerationStats {
  std::size_t generation = 0;
  double bestFitness = 0.0;   ///< best in the new population
  double meanFitness = 0.0;   ///< population mean
  std::size_t budgetUsed = 0; ///< cumulative distinct candidates examined
  bool nsTriggered = false;   ///< saturation fired neighborhood search
};

struct SynthesisResult {
  bool found = false;
  dsl::Program solution;              ///< valid iff found
  std::size_t candidatesSearched = 0; ///< the paper's search-space metric
  std::size_t generations = 0;
  double seconds = 0.0;
  std::size_t nsInvocations = 0;
  bool foundByNs = false;
  double bestFitness = 0.0;
  /// Per-generation evolution trace (only when config.recordHistory).
  std::vector<GenerationStats> history;
  /// Per-island accounting (empty for SinglePopulation searches).
  std::vector<IslandStats> islandStats;
};

/// One synthesizer instance is reusable across specs (the fitness cache is
/// per-call). Not thread-safe; create one per worker.
class Synthesizer {
 public:
  /// `fitnessFn` grades genes; `probMap` (optional) supplies Mutation_FP's
  /// per-function weights. For NetSyn_FP the same object typically serves
  /// as both. `islandFitness` (optional) builds per-island fitness clones;
  /// it is consulted only by Islands-strategy searches, which fall back to
  /// sequential island stepping over the shared instances when it is
  /// absent.
  Synthesizer(SynthesizerConfig config, fitness::FitnessPtr fitnessFn,
              std::shared_ptr<fitness::ProbMapProvider> probMap = nullptr,
              IslandFitnessFactory islandFitness = nullptr);

  const SynthesizerConfig& config() const { return config_; }

  /// Searches for a program of length `targetLength` equivalent to the spec
  /// within `budgetLimit` examined candidates.
  SynthesisResult synthesize(const dsl::Spec& spec, std::size_t targetLength,
                             std::size_t budgetLimit, util::Rng& rng) const;

 private:
  SynthesizerConfig config_;
  fitness::FitnessPtr fitness_;
  std::shared_ptr<fitness::ProbMapProvider> probMap_;
  IslandFitnessFactory islandFitness_;
};

/// Island-model search engine (islands.cpp). Evolves config.islands.count
/// sub-populations in lockstep rounds, with elite migration every
/// config.islands.migrationInterval generations and a global BudgetLedger
/// enforcing single-population budget semantics (budget.hpp). For a fixed
/// (seed, K) the outcome — solution, candidate counts, per-island stats —
/// is identical for every thread count; with K == 1 it is identical to the
/// SinglePopulation search on the same rng (both pinned by tests).
/// `sharedFitness`/`sharedProbMap` are used for every island when `factory`
/// is null (forcing sequential stepping); otherwise island i grades with
/// factory(i)'s instances and islands run on a worker pool.
SynthesisResult runIslandSearch(
    const SynthesizerConfig& config, const fitness::FitnessPtr& sharedFitness,
    const std::shared_ptr<fitness::ProbMapProvider>& sharedProbMap,
    const IslandFitnessFactory& factory, const dsl::Spec& spec,
    std::size_t targetLength, std::size_t budgetLimit, util::Rng& rng);

}  // namespace netsyn::core
