#include "core/search_state.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <unordered_set>

namespace netsyn::core {
namespace {

/// Cache key: the full-width function ids of a gene — exact, no collisions.
/// A stale hit here would skip the gene's execution (and with it the
/// equivalence check), so unlike the evaluator's dedup — where every
/// candidate is executed regardless and a fingerprint collision only
/// perturbs the searched-count metric — this cache must never alias two
/// genes. idKey() fits in the small-string buffer for every realistic
/// program length, so lookups stay allocation-free.
std::string cacheKey(const dsl::Program& p) { return p.idKey(); }

}  // namespace

SearchState::SearchState(SynthesizerConfig config,
                         fitness::FitnessPtr fitness,
                         std::shared_ptr<fitness::ProbMapProvider> probMap,
                         const dsl::Spec& spec, std::size_t targetLength,
                         SearchBudget& budget, util::Rng& rng,
                         dsl::Executor* sharedExec)
    : config_(std::move(config)),
      fitness_(std::move(fitness)),
      probMap_(std::move(probMap)),
      spec_(spec),
      targetLength_(targetLength),
      budget_(budget),
      rng_(rng),
      evaluator_(spec, budget, /*dedup=*/true, sharedExec),
      sig_(spec.signature()),
      gen_(config_.generator),
      window_(config_.nsWindow) {
  if (!fitness_) throw std::invalid_argument("fitness function required");
  if (config_.fpGuidedMutation && !probMap_)
    throw std::invalid_argument("fpGuidedMutation requires a ProbMapProvider");
  // Backend selection for candidate execution; results are identical either
  // way, so reconfiguring a shared (service-worker) executor per search is
  // safe.
  evaluator_.executor().setLaneExecution(config_.simdExecutor);
}

SearchState::SearchState(const Snapshot& snap, fitness::FitnessPtr fitness,
                         std::shared_ptr<fitness::ProbMapProvider> probMap,
                         const dsl::Spec& spec, SearchBudget& budget,
                         util::Rng& rng, dsl::Executor* sharedExec)
    : SearchState(snap.config, std::move(fitness), std::move(probMap), spec,
                  snap.targetLength, budget, rng, sharedExec) {
  if (budget.limit() != snap.budgetLimit || budget.used() != snap.budgetUsed)
    throw std::invalid_argument(
        "resume budget must be SearchBudget::resumed(snapshot limit, used)");
  pop_ = snap.pop;
  result_ = snap.result;
  cache_ = snap.cache;
  evaluator_.restoreSeenKeys(snap.seen);
  window_ = snap.window;
  secondsOffset_ = snap.priorSeconds;
}

SearchState::Snapshot SearchState::snapshot() const {
  Snapshot snap;
  snap.config = config_;
  snap.targetLength = targetLength_;
  snap.pop = pop_;
  snap.result = result_;
  snap.cache = cache_;
  snap.seen = evaluator_.seenKeys();
  snap.window = window_;
  snap.budgetLimit = budget_.limit();
  snap.budgetUsed = budget_.used();
  snap.priorSeconds = secondsOffset_ + timer_.seconds();
  return snap;
}

// Grades a whole population. The distinct uncached genes are charged +
// executed in order through SpecEvaluator::evaluateBatch — the same budget
// consumption, dedup, and early-exit points as grading one gene at a time —
// and the genes that survive (not cached, not duplicates, not the solution)
// are scored in one FitnessFunction::scoreBatch call.
//
// Returns the number of genes graded: progs.size() normally, or the index
// the walk stopped at because the budget ran out or a gene satisfied the
// spec (`solved_` set, result filled in). scores[i] is valid for every
// graded i either way.
std::size_t SearchState::gradePopulation(
    const std::vector<dsl::Program>& progs, std::vector<double>& scores) {
  scores.assign(progs.size(), 0.0);
  // Distinct uncached genes in first-seen order.
  std::vector<const dsl::Program*> pending;
  std::vector<std::string> pendingKeys;
  std::vector<std::size_t> pendingOrigin;  // pending slot -> gene index
  std::unordered_map<std::string, std::size_t> pendingIndex;
  std::vector<std::ptrdiff_t> aliasOf(progs.size(), -1);

  for (std::size_t i = 0; i < progs.size(); ++i) {
    std::string key = cacheKey(progs[i]);
    if (const auto it = cache_.find(key); it != cache_.end()) {
      scores[i] = it->second;
      continue;
    }
    if (const auto it = pendingIndex.find(key); it != pendingIndex.end()) {
      aliasOf[i] = static_cast<std::ptrdiff_t>(it->second);
      continue;
    }
    aliasOf[i] = static_cast<std::ptrdiff_t>(pending.size());
    pendingIndex.emplace(key, pending.size());
    pending.push_back(&progs[i]);
    pendingKeys.push_back(std::move(key));
    pendingOrigin.push_back(i);
  }

  // Lane-view grading: when lane execution is on, the spec fits one lane
  // group, and the fitness can consume encoded traces, each pending gene is
  // executed through the lane executor and its trace cells are captured
  // straight off the lane blocks — no per-Value scatter. The fitness
  // encodes them when it grades the batch. Budget consumption, dedup, and the
  // early-exit points below are identical to evaluateBatch (and the scores
  // are bitwise-identical, pinned by the differential fuzz suite).
  fitness::LaneTraceSink* sink =
      evaluator_.laneViewCapable() ? fitness_->laneSink() : nullptr;

  std::vector<std::optional<SpecEvaluator::Evaluation>> evals;
  std::size_t graded = progs.size();
  std::size_t scored = pending.size();
  if (sink) {
    sink->beginCapture(spec_, pending.size());
    for (std::size_t j = 0; j < pending.size(); ++j) {
      dsl::LaneTraceView view;
      const auto verdict = evaluator_.evaluateView(*pending[j], view);
      if (!verdict.has_value()) {  // budget ran out at pending gene j
        graded = pendingOrigin[j];
        scored = j;
        break;
      }
      if (*verdict) {
        solved_ = true;
        solvedAtUsed_ = budget_.used();
        result_.found = true;
        result_.solution = *pending[j];
        graded = pendingOrigin[j];
        scored = j;
        break;
      }
      sink->capture(j, *pending[j], view);
    }
  } else {
    evals = evaluator_.evaluateBatch(pending);
    for (std::size_t j = 0; j < evals.size(); ++j) {
      if (!evals[j].has_value()) {  // budget ran out at pending gene j
        graded = pendingOrigin[j];
        scored = j;
        break;
      }
      if (evals[j]->satisfied) {
        solved_ = true;
        solvedAtUsed_ = budget_.used();
        result_.found = true;
        result_.solution = *pending[j];
        graded = pendingOrigin[j];
        scored = j;
        break;
      }
    }
  }

  // Score the pending genes examined before any cutoff.
  std::vector<double> pendingScores;
  if (scored > 0) {
    std::vector<const dsl::Program*> toScore(pending.begin(),
                                             pending.begin() + scored);
    std::deque<fitness::EvalContext> contextStore;
    std::vector<const fitness::EvalContext*> contexts;
    contexts.reserve(scored);
    for (std::size_t j = 0; j < scored; ++j) {
      if (sink)
        contextStore.push_back(
            fitness::EvalContext{spec_, fitness::kNoRuns, &sink->at(j)});
      else
        contextStore.push_back(fitness::EvalContext{spec_, evals[j]->runs});
      contexts.push_back(&contextStore.back());
    }
    pendingScores = fitness_->scoreBatch(toScore, contexts);
    for (std::size_t j = 0; j < scored; ++j)
      cache_.emplace(std::move(pendingKeys[j]), pendingScores[j]);
  }
  // Scoring is done with the runs; hand the trace storage back so the
  // next generation refills it instead of allocating.
  evaluator_.recycle(std::move(evals));
  for (std::size_t i = 0; i < graded; ++i) {
    if (aliasOf[i] >= 0)
      scores[i] = pendingScores[static_cast<std::size_t>(aliasOf[i])];
    result_.bestFitness = std::max(result_.bestFitness, scores[i]);
  }
  return graded;
}

// Batched scorer for the DFS neighborhood search's greedy descent: grades
// without charging the budget (the NS itself charges each examined neighbor
// through the evaluator) and without polluting the cache. Shares the
// evaluator's plan cache and recycles run storage across calls.
std::vector<double> SearchState::nsBatchScore(
    const std::vector<const dsl::Program*>& genes) {
  std::vector<double> out(genes.size(), 0.0);
  std::vector<const dsl::Program*> pending;
  std::vector<std::size_t> pendingAt;
  std::deque<std::vector<dsl::ExecResult>> pendingRuns;
  std::deque<fitness::EvalContext> contextStore;
  std::vector<const fitness::EvalContext*> contexts;
  // Same lane-view gate as gradePopulation; the NS descent's out-of-budget
  // runs then skip the trace scatter too. Each view is captured before the
  // next execution overwrites the SoA blocks.
  fitness::LaneTraceSink* sink =
      evaluator_.laneViewCapable() ? fitness_->laneSink() : nullptr;
  if (sink) sink->beginCapture(spec_, genes.size());
  for (std::size_t i = 0; i < genes.size(); ++i) {
    if (const auto it = cache_.find(cacheKey(*genes[i])); it != cache_.end()) {
      out[i] = it->second;
      continue;
    }
    const dsl::ExecPlan& plan = evaluator_.executor().planFor(*genes[i], sig_);
    if (sink) {
      const std::size_t slot = pending.size();
      dsl::LaneTraceView view;
      evaluator_.executor().executeMultiView(
          plan, evaluator_.exampleInputSets().data(), spec_.size(), view);
      sink->capture(slot, *genes[i], view);
      contextStore.push_back(
          fitness::EvalContext{spec_, fitness::kNoRuns, &sink->at(slot)});
    } else {
      std::vector<dsl::ExecResult> runs;
      if (!nsRunsPool_.empty()) {
        runs = std::move(nsRunsPool_.back());
        nsRunsPool_.pop_back();
      }
      runs.resize(spec_.size());
      // The evaluator's own (pinned) input array — not a private copy — so
      // these out-of-budget runs share the lane executor's cached ingest.
      evaluator_.executor().executeMulti(plan,
                                         evaluator_.exampleInputSets().data(),
                                         spec_.size(), runs.data());
      pendingRuns.push_back(std::move(runs));
      contextStore.push_back(fitness::EvalContext{spec_, pendingRuns.back()});
    }
    contexts.push_back(&contextStore.back());
    pending.push_back(genes[i]);
    pendingAt.push_back(i);
  }
  if (!pending.empty()) {
    const std::vector<double> scores = fitness_->scoreBatch(pending, contexts);
    for (std::size_t j = 0; j < pending.size(); ++j)
      out[pendingAt[j]] = scores[j];
  }
  for (auto& runs : pendingRuns) nsRunsPool_.push_back(std::move(runs));
  return out;
}

SearchState::Status SearchState::seed() {
  // ---- initial population (Phi_0) ----
  // Programs are generated up front (the generator is the only RNG consumer
  // here, so the stream matches gene-at-a-time seeding) and graded as one
  // batch.
  std::vector<dsl::Program> seedProgs;
  seedProgs.reserve(config_.ga.populationSize);
  for (std::size_t i = 0; i < config_.ga.populationSize; ++i) {
    auto prog = gen_.randomProgram(targetLength_, sig_, rng_);
    if (!prog) throw std::runtime_error("cannot seed initial population");
    seedProgs.push_back(std::move(*prog));
  }
  const std::size_t graded = gradePopulation(seedProgs, scores_);
  if (solved_) return Status::Solved;
  if (graded < seedProgs.size()) return Status::Exhausted;

  pop_.reserve(seedProgs.size());
  for (std::size_t i = 0; i < seedProgs.size(); ++i)
    pop_.push_back(Individual{std::move(seedProgs[i]), scores_[i]});
  return Status::Running;
}

SearchState::Status SearchState::step() {
  if (budget_.exhausted()) return Status::Exhausted;
  if (result_.generations >= config_.maxGenerations)
    return Status::LimitReached;
  const std::size_t genIdx = ++result_.generations;

  // The FP probability map is already in domain-local order (the shape
  // FunctionWeights expects); providers cache it per spec.
  FunctionWeights weights;
  const FunctionWeights* weightsPtr = nullptr;
  if (config_.fpGuidedMutation) {
    weights = probMap_->probMap(spec_);
    weightsPtr = &weights;
  }

  const auto offspring = breed(pop_, config_.ga, sig_, gen_, rng_, weightsPtr);

  const std::size_t graded = gradePopulation(offspring, scores_);
  if (solved_) return Status::Solved;
  if (graded < offspring.size()) return Status::Exhausted;

  Population next;
  next.reserve(offspring.size());
  double fitnessSum = 0.0;
  for (std::size_t i = 0; i < offspring.size(); ++i) {
    next.push_back(Individual{offspring[i], scores_[i]});
    fitnessSum += scores_[i];
  }
  pop_ = std::move(next);
  window_.push(fitnessSum / static_cast<double>(pop_.size()));

  if (config_.recordHistory) {
    GenerationStats gs;
    gs.generation = genIdx;
    gs.meanFitness = fitnessSum / static_cast<double>(pop_.size());
    for (const auto& ind : pop_)
      gs.bestFitness = std::max(gs.bestFitness, ind.fitness);
    gs.budgetUsed = budget_.used();
    gs.nsTriggered = config_.useNeighborhoodSearch && window_.saturated();
    result_.history.push_back(gs);
  }

  // ---- saturation-triggered neighborhood search ----
  if (config_.useNeighborhoodSearch && window_.saturated()) {
    ++result_.nsInvocations;
    std::vector<dsl::Program> top;
    for (std::size_t i : topIndices(pop_, config_.nsTopN))
      top.push_back(pop_[i].program);
    const NsResult ns =
        config_.nsKind == NsKind::BFS
            ? neighborhoodSearchBfs(top, evaluator_, &gen_.domain())
            : neighborhoodSearchDfs(
                  top, evaluator_,
                  NsBatchScorer([this](const std::vector<const dsl::Program*>&
                                           genes) {
                    return nsBatchScore(genes);
                  }),
                  &gen_.domain());
    if (ns.solution.has_value()) {
      solved_ = true;
      solvedAtUsed_ = budget_.used();
      result_.found = true;
      result_.foundByNs = true;
      result_.solution = *ns.solution;
      return Status::Solved;
    }
    if (ns.budgetExhausted) return Status::Exhausted;
    window_.reset();  // resume evolution with a fresh saturation window
  }
  return Status::Running;
}

std::vector<SearchState::Migrant> SearchState::emigrants(
    std::size_t count) const {
  std::vector<Migrant> out;
  for (std::size_t i : topIndices(pop_, std::min(count, pop_.size())))
    out.push_back(Migrant{pop_[i].program, pop_[i].fitness});
  return out;
}

std::size_t SearchState::injectMigrants(const std::vector<Migrant>& migrants) {
  if (migrants.empty() || pop_.empty()) return 0;

  // Resident + already-arrived fingerprints, for dedup.
  std::unordered_set<std::uint64_t> present;
  for (const auto& ind : pop_) present.insert(ind.program.hash());

  // Worst-first replacement order (stable: earlier index loses ties). A
  // migrant batch larger than the population (fully-connected rings with
  // big E) must never evict the island's own elites — the exact individuals
  // (same tie-breaking) the next breed() would pass through — so those are
  // excluded from the replaceable set.
  std::vector<bool> protectedSlot(pop_.size(), false);
  for (std::size_t i : topIndices(pop_, config_.ga.eliteCount))
    protectedSlot[i] = true;
  std::vector<std::size_t> worst;
  worst.reserve(pop_.size());
  for (std::size_t i = 0; i < pop_.size(); ++i)
    if (!protectedSlot[i]) worst.push_back(i);
  std::stable_sort(worst.begin(), worst.end(),
                   [&](std::size_t a, std::size_t b) {
                     return pop_[a].fitness < pop_[b].fitness;
                   });

  std::size_t accepted = 0;
  for (const Migrant& m : migrants) {
    if (accepted >= worst.size()) break;
    if (!present.insert(m.program.hash()).second) continue;  // dup
    Individual& slot = pop_[worst[accepted]];
    slot.program = m.program;
    slot.fitness = m.fitness;
    ++accepted;
    // The migrant was examined (and charged) by its home island; seed the
    // fitness cache so copies bred here are free, like any local duplicate.
    cache_.emplace(cacheKey(m.program), m.fitness);
    result_.bestFitness = std::max(result_.bestFitness, m.fitness);
  }
  return accepted;
}

SynthesisResult SearchState::finish() {
  result_.candidatesSearched = budget_.used();
  result_.seconds = secondsOffset_ + timer_.seconds();
  return result_;
}

}  // namespace netsyn::core
