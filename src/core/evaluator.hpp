// Budgeted candidate evaluation against a specification.
//
// Centralizes the two things every search method does with a candidate:
// spend one unit of search budget and test Definition 3.1 equivalence.
// The full-trace variant also returns the per-example execution results the
// neural fitness functions consume, so each gene is executed exactly once.
// The search-space metric counts *distinct* candidates: re-examining a
// program the search has already ruled out (GA duplicates, repeated
// neighborhood sweeps, beam-restart re-expansions) is charged only once.
//
// Performance: the evaluator owns a dsl::Executor, so every candidate's
// argument plan is compiled once per (program, signature) instead of once
// per example; dedup keys are 64-bit program fingerprints instead of
// heap-allocated strings; and Evaluation storage is pooled — callers hand
// finished evaluations back through recycle(), and the retained trace/list
// buffers are refilled in place by later candidates. In the GA's steady
// state (fixed program length, fixed spec), evaluation allocates nothing.
#pragma once

#include <cassert>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/budget.hpp"
#include "dsl/interpreter.hpp"
#include "dsl/spec.hpp"

namespace netsyn::core {

class SpecEvaluator {
 public:
  /// `dedup` charges each distinct candidate at most once (default; matches
  /// the paper's "candidate programs searched" metric). Disable to charge
  /// every examination.
  ///
  /// `sharedExec` (optional, borrowed, must outlive the evaluator) replaces
  /// the evaluator's private execution engine so its plan cache persists
  /// beyond this evaluator's lifetime — the synthesis service hands every
  /// search on a worker the worker's long-lived Executor, so repeat/similar
  /// specs hit plans compiled by earlier jobs. Purely a perf channel: plans
  /// are deterministic functions of (program, signature), so results are
  /// identical with or without sharing. The executor is single-threaded;
  /// share only within one worker thread.
  SpecEvaluator(const dsl::Spec& spec, SearchBudget& budget,
                bool dedup = true, dsl::Executor* sharedExec = nullptr)
      : spec_(spec),
        budget_(budget),
        dedup_(dedup),
        signature_(spec.signature()),
        ownedExec_(sharedExec ? nullptr : std::make_unique<dsl::Executor>()),
        exec_(sharedExec ? sharedExec : ownedExec_.get()) {
    inputSets_.reserve(spec_.size());
    for (const auto& ex : spec_.examples) {
      // Spec contract: all examples share one input signature (spec.hpp).
      // One plan per candidate is compiled from it, so a malformed spec
      // would silently miscompute — catch it here in debug builds.
      assert(dsl::signatureOf(ex.inputs) == signature_);
      inputSets_.push_back(&ex.inputs);
    }
    // The spec (borrowed, immutable) outlives this evaluator and
    // inputSets_ never changes after construction, so the lane executor
    // may ingest the example inputs once and reuse them per candidate.
    exec_->pinExampleInputs(inputSets_.data(), spec_.size());
  }

  const dsl::Spec& spec() const { return spec_; }
  SearchBudget& budget() { return budget_; }

  struct Evaluation {
    bool satisfied = false;
    std::vector<dsl::ExecResult> runs;  ///< one per spec example
  };

  /// Runs the candidate on every example, keeping traces. Returns nullopt
  /// when the budget is exhausted (candidate not charged, not examined).
  /// Storage comes from the recycle() pool when available.
  std::optional<Evaluation> evaluate(const dsl::Program& candidate) {
    if (!charge(candidate)) return std::nullopt;
    Evaluation ev = takeFromPool();
    ev.runs.resize(spec_.size());
    ev.satisfied = true;
    // One plan lookup per candidate (every example shares the signature);
    // all examples execute statement-major through the scalar engine.
    dsl::executePlanMulti(exec_->planFor(candidate, signature_),
                          inputSets_.data(), spec_.size(), ev.runs.data());
    for (std::size_t j = 0; j < spec_.size(); ++j) {
      if (!(ev.runs[j].output() == spec_.examples[j].output))
        ev.satisfied = false;
    }
    return ev;
  }

  /// True when evaluateView() can serve this spec: all examples fit one
  /// lane execution (the view spans a single SoA block set).
  bool laneViewCapable() const {
    return spec_.size() > 0 && spec_.size() <= dsl::SoATrace::kMaxLanes;
  }

  /// Runs the candidate on every example through the lane executor and
  /// binds `view` over the un-scattered SoA trace — the NN grading path
  /// reads it in place, so no per-Value trace is materialized. Budget and
  /// dedup semantics are exactly evaluate()'s; returns the satisfied
  /// verdict, or nullopt when the budget is exhausted. The view is valid
  /// until the executor's next lane execution.
  std::optional<bool> evaluateView(const dsl::Program& candidate,
                                   dsl::LaneTraceView& view) {
    if (!charge(candidate)) return std::nullopt;
    const dsl::ExecPlan& plan = exec_->planFor(candidate, signature_);
    const bool ok =
        exec_->executeMultiView(plan, inputSets_.data(), spec_.size(), view);
    assert(ok && "evaluateView requires laneViewCapable()");
    (void)ok;
    for (std::size_t j = 0; j < spec_.size(); ++j) {
      if (!view.outputEquals(j, spec_.examples[j].output)) return false;
    }
    return true;
  }

  /// Batched evaluate(): candidates are charged and executed in order, so
  /// budget consumption and the dedup'd "distinct candidates searched"
  /// semantics are identical to calling evaluate() in a loop that stops at
  /// the first nullopt. Entries after the first budget exhaustion — and,
  /// when `stopOnSatisfied` is set, after the first satisfying candidate —
  /// are left nullopt without being charged or executed.
  std::vector<std::optional<Evaluation>> evaluateBatch(
      const std::vector<const dsl::Program*>& candidates,
      bool stopOnSatisfied = true) {
    std::vector<std::optional<Evaluation>> out(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      out[i] = evaluate(*candidates[i]);
      if (!out[i].has_value()) break;  // budget exhausted
      if (stopOnSatisfied && out[i]->satisfied) break;
    }
    return out;
  }

  /// Returns an Evaluation's storage to the pool so the next evaluate()
  /// reuses its trace/list buffers instead of allocating. Purely an
  /// optimization: un-recycled evaluations are simply freed.
  void recycle(Evaluation&& ev) {
    if (pool_.size() < kMaxPooled) pool_.push_back(std::move(ev));
  }
  void recycle(std::vector<std::optional<Evaluation>>&& evals) {
    for (auto& ev : evals)
      if (ev.has_value()) recycle(std::move(*ev));
    evals.clear();
  }

  /// Equivalence check only: examples run one at a time and the check stops
  /// at the first mismatch; no trace is kept. nullopt when the budget is
  /// exhausted. Re-examinations are free (not charged) but still executed:
  /// with fingerprint keys a collision may only mislabel a candidate as
  /// "seen", so the equivalence test itself must not be short-circuited.
  std::optional<bool> check(const dsl::Program& candidate) {
    if (!charge(candidate)) return std::nullopt;
    const dsl::ExecPlan& plan = exec_->planFor(candidate, signature_);
    for (const auto& ex : spec_.examples) {
      dsl::executePlan(plan, ex.inputs, checkScratch_);
      if (!(checkScratch_.output() == ex.output)) return false;
    }
    return true;
  }

  /// The execution engine (plan cache + lane scratch). Exposed so callers
  /// that execute candidates outside the budget (the DFS neighborhood
  /// scorer) share the same plan cache.
  dsl::Executor& executor() { return *exec_; }

  /// The per-example input pointer array this evaluator pinned into the
  /// executor. Out-of-budget callers (the NS scorer) pass this same array to
  /// executeMultiView so their runs hit the pinned-ingest fast path instead
  /// of thrashing the pin with a second identical copy.
  const std::vector<const std::vector<dsl::Value>*>& exampleInputSets() const {
    return inputSets_;
  }

  /// The dedup fingerprints charged so far. Part of a search checkpoint:
  /// without them, a resumed search would re-charge candidates the
  /// original run already examined and drift off the uninterrupted budget
  /// trajectory.
  const std::unordered_set<std::uint64_t>& seenKeys() const { return seen_; }

  /// Restores a checkpointed dedup set (checkpoint/resume counterpart of
  /// seenKeys()).
  void restoreSeenKeys(std::unordered_set<std::uint64_t> seen) {
    seen_ = std::move(seen);
  }

 private:
  /// 64-bit dedup fingerprint. Replaces the per-examination std::string
  /// key: no allocation, ~2.4e-7 expected collisions at a 3M-candidate
  /// budget. Callers are written so a collision only perturbs the
  /// "distinct candidates searched" accounting by one unit — evaluate()
  /// and check() always execute the candidate, so no result is corrupted
  /// and no solution can be missed.
  static std::uint64_t keyOf(const dsl::Program& p) { return p.hash(); }

  static constexpr std::size_t kMaxPooled = 4096;

  Evaluation takeFromPool() {
    if (pool_.empty()) return Evaluation{};
    Evaluation ev = std::move(pool_.back());
    pool_.pop_back();
    return ev;
  }

  /// Charges the candidate unless it was already examined; false only when
  /// the budget is exhausted and the candidate is new.
  bool charge(const dsl::Program& candidate) {
    if (!dedup_) return budget_.tryConsume();
    const std::uint64_t key = keyOf(candidate);
    if (seen_.count(key) > 0) return true;  // free re-examination
    if (!budget_.tryConsume()) return false;
    seen_.insert(key);
    return true;
  }

  const dsl::Spec& spec_;
  SearchBudget& budget_;
  bool dedup_;
  dsl::InputSignature signature_;  ///< shared by all examples
  std::vector<const std::vector<dsl::Value>*> inputSets_;  ///< per example
  std::unordered_set<std::uint64_t> seen_;
  std::unique_ptr<dsl::Executor> ownedExec_;  ///< null when sharing
  dsl::Executor* exec_;                       ///< owned or borrowed engine
  std::vector<Evaluation> pool_;
  dsl::ExecResult checkScratch_;  ///< reused by check()
};

}  // namespace netsyn::core
