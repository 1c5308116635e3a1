// Island-model search engine: K SearchStates evolved in deterministic
// lockstep rounds on the process-wide util::Executor, with periodic elite
// migration and a global BudgetLedger (budget.hpp) enforcing the paper's
// single-population candidate-budget semantics.
//
// Determinism contract (pinned by tests/test_islands.cpp): for a fixed
// (seed, K, config) the result — solution, candidate counts, per-island
// stats — is byte-identical for every thread count, because
//   - each island owns its RNG stream, evaluator, and fitness instances
//     (nothing mutable is shared inside a round),
//   - rounds are barriers: migration and ledger accounting happen on the
//     coordinator thread in fixed island order 0..K-1,
//   - and with K == 1 the engine degenerates to seed()+step() on the
//     caller's own RNG — the exact SinglePopulation search.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/search_state.hpp"
#include "core/synthesizer.hpp"
#include "util/executor.hpp"
#include "util/timer.hpp"

namespace netsyn::core {
namespace {

/// The tweak cycle in effect: explicit tweaks win; `heterogeneous` falls
/// back to a fixed operator-diversity portfolio (island 0 stays the
/// baseline configuration so the flagship stream is always present).
std::vector<IslandTweak> tweakCycle(const IslandsConfig& ic) {
  if (!ic.tweaks.empty()) return ic.tweaks;
  if (!ic.heterogeneous) return {};
  std::vector<IslandTweak> cycle(4);
  cycle[1].mutationRateScale = 1.5;              // explore harder
  cycle[2].mutationRateScale = 0.75;             // exploit + DFS descent
  cycle[2].crossoverRateScale = 1.25;
  cycle[2].nsKind = NsKind::DFS;
  cycle[3].mutationRateScale = 0.5;              // uniform-mutation island
  cycle[3].fpGuidedMutation = false;
  return cycle;
}

void applyTweak(SynthesizerConfig& cfg, const IslandTweak& tweak,
                bool hasProbMap) {
  cfg.ga.mutationRate =
      std::clamp(cfg.ga.mutationRate * tweak.mutationRateScale, 0.0, 1.0);
  cfg.ga.crossoverRate =
      std::clamp(cfg.ga.crossoverRate * tweak.crossoverRateScale, 0.0, 1.0);
  if (tweak.nsKind.has_value()) cfg.nsKind = *tweak.nsKind;
  if (tweak.fpGuidedMutation.has_value())
    cfg.fpGuidedMutation = *tweak.fpGuidedMutation && hasProbMap;
}

}  // namespace

SynthesisResult runIslandSearch(
    const SynthesizerConfig& config, const fitness::FitnessPtr& sharedFitness,
    const std::shared_ptr<fitness::ProbMapProvider>& sharedProbMap,
    const IslandFitnessFactory& factory, const dsl::Spec& spec,
    std::size_t targetLength, std::size_t budgetLimit, util::Rng& rng) {
  util::Timer timer;
  const IslandsConfig& ic = config.islands;
  const std::size_t K = std::max<std::size_t>(1, ic.count);

  // ---- per-island lanes: config (tweaked), fitness, RNG stream ----
  std::vector<IslandFitness> lanes(K);
  for (std::size_t i = 0; i < K; ++i) {
    lanes[i] = factory ? factory(i)
                       : IslandFitness{sharedFitness, sharedProbMap};
    if (!lanes[i].fitness)
      throw std::invalid_argument("island fitness factory returned null");
  }

  std::vector<SynthesizerConfig> laneCfg(K, config);
  const std::vector<IslandTweak> cycle = tweakCycle(ic);
  for (std::size_t i = 0; i < K; ++i) {
    laneCfg[i].strategy = SearchStrategy::SinglePopulation;
    if (!cycle.empty())
      applyTweak(laneCfg[i], cycle[i % cycle.size()],
                 static_cast<bool>(lanes[i].probMap));
    if (laneCfg[i].fpGuidedMutation && !lanes[i].probMap)
      throw std::invalid_argument(
          "island fitness factory must supply a ProbMapProvider for "
          "fpGuidedMutation");
  }

  // K == 1 consumes the caller's RNG directly — that is what makes the
  // one-island search bit-identical to SinglePopulation. K > 1 forks one
  // independent stream per island, in island order.
  std::vector<util::Rng> rngs;
  if (K > 1) {
    rngs.reserve(K);
    for (std::size_t i = 0; i < K; ++i) rngs.push_back(rng.fork());
  }

  BudgetLedger ledger(budgetLimit);
  std::deque<SearchBudget> budgets;  // deque: stable addresses for the states
  std::vector<std::unique_ptr<SearchState>> states;
  states.reserve(K);
  for (std::size_t i = 0; i < K; ++i) {
    budgets.emplace_back(0);  // opened per round by the ledger
    states.push_back(std::make_unique<SearchState>(
        laneCfg[i], lanes[i].fitness, lanes[i].probMap, spec, targetLength,
        budgets[i], K == 1 ? rng : rngs[i]));
  }

  // Parallel stepping needs per-island fitness isolation; without a factory
  // the islands share the caller's instances and must run on one thread
  // (results are identical either way — the point of the lockstep design).
  std::size_t threads = 1;
  if (factory && K > 1) threads = ic.threads == 0 ? K : ic.threads;

  std::vector<SearchState::Status> status(K, SearchState::Status::Running);
  std::vector<std::size_t> usedBefore(K, 0);
  std::vector<IslandStats> stats(K);
  for (std::size_t i = 0; i < K; ++i) stats[i].island = i;
  int winner = -1;

  // One lockstep round over `active` (ascending island indices): open the
  // ledger, run seed()/step() in parallel, then commit + detect the winner
  // in island order at the barrier.
  const auto runRound = [&](const std::vector<std::size_t>& active,
                            bool seedRound) {
    for (std::size_t i : active) {
      ledger.openRound(budgets[i]);
      usedBefore[i] = budgets[i].used();
    }
    const std::function<void(std::size_t)> job = [&](std::size_t slot) {
      const std::size_t i = active[slot];
      status[i] = seedRound ? states[i]->seed() : states[i]->step();
    };
    util::Executor::instance().run(active.size(), job, threads);
    for (std::size_t i : active) {
      const std::size_t used = budgets[i].used() - usedBefore[i];
      const std::size_t grant = ledger.commit(used);
      stats[i].evals += grant;
      if (status[i] == SearchState::Status::Solved) {
        // The solution stands only if its position in the island's round
        // stream fell inside the grant (budget.hpp's ledger semantics).
        const std::size_t pos = states[i]->solvedAtUsed() - usedBefore[i];
        if (pos <= grant) {
          // In the canonical sequential interleaving (round-major, island-
          // major) the search stops here: later islands' round work is
          // never examined, so it must not be charged either — that keeps
          // candidatesSearched at single-population semantics.
          winner = static_cast<int>(i);
          break;
        }
      }
    }
  };

  // Elite exchange between the still-running islands. Emigrants are
  // collected from every sender before any injection, so this round's
  // arrivals can never be re-exported within the same migration.
  const auto migrate = [&]() {
    std::vector<std::size_t> running;
    for (std::size_t i = 0; i < K; ++i)
      if (status[i] == SearchState::Status::Running) running.push_back(i);
    if (running.size() < 2 || ic.migrationSize == 0) return;
    std::vector<std::vector<SearchState::Migrant>> out(running.size());
    for (std::size_t j = 0; j < running.size(); ++j)
      out[j] = states[running[j]]->emigrants(ic.migrationSize);
    for (std::size_t j = 0; j < running.size(); ++j)
      stats[running[j]].emigrants += out[j].size();
    if (ic.topology == Topology::Ring) {
      for (std::size_t j = 0; j < running.size(); ++j) {
        const std::size_t to = running[(j + 1) % running.size()];
        stats[to].immigrants += states[to]->injectMigrants(out[j]);
      }
    } else {  // FullyConnected: everyone receives everyone else's elites
      for (std::size_t j = 0; j < running.size(); ++j) {
        std::vector<SearchState::Migrant> incoming;
        for (std::size_t s = 0; s < running.size(); ++s) {
          if (s == j) continue;
          incoming.insert(incoming.end(), out[s].begin(), out[s].end());
        }
        stats[running[j]].immigrants +=
            states[running[j]]->injectMigrants(incoming);
      }
    }
  };

  // ---- round 0: seed every island ----
  std::vector<std::size_t> active(K);
  for (std::size_t i = 0; i < K; ++i) active[i] = i;
  runRound(active, true);

  // ---- generation rounds ----
  if (winner < 0 && !ledger.exhausted()) {
    for (std::size_t gen = 1;; ++gen) {
      active.clear();
      for (std::size_t i = 0; i < K; ++i)
        if (status[i] == SearchState::Status::Running) active.push_back(i);
      if (active.empty()) break;
      runRound(active, false);
      if (winner >= 0 || ledger.exhausted()) break;
      if (K > 1 && ic.migrationInterval > 0 && gen % ic.migrationInterval == 0)
        migrate();
    }
  }

  // ---- assemble the result ----
  SynthesisResult result;
  if (winner >= 0) {
    result = states[static_cast<std::size_t>(winner)]->finish();
    stats[static_cast<std::size_t>(winner)].solved = true;
  } else {
    // Base on island 0 (for K == 1 this is the exact SinglePopulation
    // result, history included); an invalidated solution — found beyond the
    // island's grant — is erased.
    result = states[0]->finish();
    result.found = false;
    result.foundByNs = false;
    result.solution = dsl::Program{};
  }

  std::size_t nsTotal = 0;
  std::size_t maxGenerations = 0;
  double best = 0.0;
  for (std::size_t i = 0; i < K; ++i) {
    stats[i].bestFitness = states[i]->bestFitness();
    stats[i].generations = states[i]->generation();
    stats[i].nsInvocations = states[i]->result().nsInvocations;
    nsTotal += stats[i].nsInvocations;
    best = std::max(best, stats[i].bestFitness);
    maxGenerations = std::max(maxGenerations, stats[i].generations);
  }
  result.nsInvocations = nsTotal;
  result.bestFitness = best;
  if (winner < 0) result.generations = maxGenerations;
  result.candidatesSearched = ledger.committed();
  result.seconds = timer.seconds();
  result.islandStats = std::move(stats);
  return result;
}

}  // namespace netsyn::core
