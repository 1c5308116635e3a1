// Interpreter for NetSyn's list DSL with type-driven argument resolution and
// execution-trace capture.
//
// The DSL has no named variables (paper Appendix A): when a function needs an
// argument of some type, the runtime searches backwards through the outputs
// of previously executed statements for the most recent value of that type;
// if none exists it searches the program's own inputs (most recent first);
// if none exists there either, it supplies the default value (0 / []).
//
// Because every function's output type is fixed by its signature, this
// resolution depends only on *types*, never on runtime values. We exploit
// that to precompute a static `ArgPlan` per program, which (a) makes
// execution allocation-light, and (b) makes dead-code analysis exact
// (see dce.hpp).
//
// Two-argument functions fill their argument slots with *distinct* most
// recent producers when possible (ZIPWITH combines the two most recent
// lists); when only one producer of the required type exists anywhere, it is
// reused for both slots (ZIPWITH of a list with itself) rather than silently
// degrading to the empty default. The paper is silent on this corner; reuse
// keeps single-list programs semantically rich and is the convention
// DeepCoder's DSL follows.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "dsl/lanes.hpp"
#include "dsl/program.hpp"
#include "dsl/value.hpp"

namespace netsyn::dsl {

/// Where one argument of one statement comes from.
struct ArgSource {
  enum class Kind : std::uint8_t {
    Statement,  ///< output of statement `index`
    Input,      ///< program input `index`
    Default,    ///< type default (0 / [])
  };
  Kind kind = Kind::Default;
  std::uint16_t index = 0;

  bool operator==(const ArgSource&) const = default;
};

/// Resolved argument sources for one statement.
struct StatementPlan {
  std::uint8_t arity = 0;
  std::array<ArgSource, kMaxArity> args{};
};

/// Per-statement argument plan for a whole program.
using ArgPlan = std::vector<StatementPlan>;

/// The default list value, shared so empty-program results need no storage.
inline const Value kEmptyListValue{std::vector<std::int32_t>{}};

/// Result of executing a program on one input tuple.
struct ExecResult {
  std::vector<Value> trace;  ///< t_k = output of statement k (paper §4.2.1)

  /// Output of the final statement — by definition the last trace entry, so
  /// it is a view, not a copy (an empty program yields the default list).
  const Value& output() const {
    return trace.empty() ? kEmptyListValue : trace.back();
  }
};

/// Computes the static argument plan of `program` under `inputs` types.
/// O(L * (L + |inputs|)); resolution rules documented above.
ArgPlan computeArgPlan(const Program& program, const InputSignature& inputs);

/// One compiled statement: the function body (resolved to a direct pointer,
/// tagged by signature shape), its arity, and where each argument comes
/// from. Everything execution needs, resolved once.
struct ExecStep {
  /// Signature shape of `body` — selects which pointer to call.
  enum class Shape : std::uint8_t { Unary, IntList, ListList };

  FuncId fn = 0;
  std::uint8_t arity = 0;
  Shape shape = Shape::Unary;
  /// Output type of `fn` — the SoA scatter path needs it without a
  /// functionInfo lookup per statement per group.
  Type ret = Type::List;
  std::array<ArgSource, kMaxArity> args{};
  FunctionBody body{};
  /// Lane-group body (nullptr for functions without one — the lane executor
  /// then runs the scalar body per lane). Resolved at compile time like
  /// `body` so the per-statement dispatch is one pointer test.
  LaneKernel lane = nullptr;
};

/// A program compiled against one input signature. Depends only on
/// (function sequence, input types), so it is safe to cache and share across
/// every concrete input tuple with the same signature — which is exactly how
/// the spec evaluator runs one gene over all m examples.
struct ExecPlan {
  std::vector<ExecStep> steps;
};

/// Compiles `program` against `inputs` types (computeArgPlan + function
/// metadata, fused into the step array the executor walks).
ExecPlan compilePlan(const Program& program, const InputSignature& inputs);

/// In-place variant reusing `out`'s step storage (the Executor's slot
/// recompile path).
void compilePlanInto(const Program& program, const InputSignature& inputs,
                     ExecPlan& out);

/// Executes `plan` on `inputs`, writing into `out` and reusing its storage:
/// the trace is resized to the plan length and every slot is overwritten in
/// place, so list buffers retained by previous executions are refilled
/// without allocating. Results are identical to run() (pinned by tests).
void executePlan(const ExecPlan& plan, const std::vector<Value>& inputs,
                 ExecResult& out);

/// Executes `plan` on `count` input tuples at once, statement-major:
/// every step's body pointer and argument recipe is resolved once and then
/// applied to all input tuples back to back, which keeps the body code and
/// its indirect-branch target hot across the whole batch. Equivalent to
/// executePlan(plan, *inputSets[j], outs[j]) for each j — this is how the
/// evaluator runs one gene over a spec's m examples.
void executePlanMulti(const ExecPlan& plan,
                      const std::vector<Value>* const* inputSets,
                      std::size_t count, ExecResult* outs);

/// Reusable execution engine: a plan cache keyed by (program, signature)
/// fingerprint plus the lane executor's scratch trace. One Executor serves
/// one search thread (it is not thread-safe); the GA's evaluator keeps one
/// for the whole synthesis run so plans for elites, duplicates, and
/// re-examined genes are compiled once instead of once per example.
///
/// The cache is direct-mapped (one probe into a fixed power-of-two slot
/// array, conflicting keys overwrite): a compile is ~100ns, so eviction is
/// cheaper than the node allocations and cold bucket walks of a growing
/// hash map — this keeps the cache O(1) in both time and memory across a
/// budget-3M search. A slot recompile reuses the evicted plan's step
/// storage, so the steady state allocates nothing. Hits are verified
/// against the slot's stored (program, signature) — a byte compare of the
/// function sequence — so a 64-bit fingerprint collision can only cause a
/// spurious recompile, never execution of the wrong plan.
class Executor {
 public:
  /// Cached compiled plan for (program, signature); compiles on miss. The
  /// returned reference is valid until the next planFor() call (which may
  /// overwrite the slot).
  const ExecPlan& planFor(const Program& program, const InputSignature& sig);

  /// Lane-view execution: runs `plan` through the SIMD lane executor and
  /// binds `view` over the internal SoA scratch, so trace consumers (the NN
  /// fitness encoders) read lane blocks in place. Returns false — without
  /// executing — when `count` does not fit one lane execution
  /// (0 or more than SoATrace::kMaxLanes); the caller then runs the scalar
  /// executePlanMulti. The view is valid until the Executor's next lane
  /// execution.
  bool executeMultiView(const ExecPlan& plan,
                        const std::vector<Value>* const* inputSets,
                        std::size_t count, LaneTraceView& view) {
    if (count == 0 || count > SoATrace::kMaxLanes) return false;
    executePlanMultiLanesView(
        plan, inputSets, count, view, laneScratch_,
        /*reuseIngest=*/inputSets == pinnedSets_ && count == pinnedCount_);
    return true;
  }

  /// Declares `sets[0..count)` stable: the array and every pointed-to input
  /// tuple will not change (contents included) until re-pinned.
  /// Lets the lane executor ingest the example inputs into its SoA store
  /// once per spec instead of once per candidate — the dominant fixed cost
  /// at the paper's m=5..10 examples. SpecEvaluator pins its spec on
  /// construction; pin manually only if you own the array's lifetime.
  /// Unpinned executeMultiView calls stay correct and simply re-ingest.
  void pinExampleInputs(const std::vector<Value>* const* sets,
                        std::size_t count) {
    pinnedSets_ = sets;
    pinnedCount_ = count;
    // Drop any trace-level pin: a new pin means new inputs, and a recycled
    // allocation could otherwise alias the previous array's address and
    // inherit its stale ingest.
    laneScratch_.pinKey = nullptr;
    laneScratch_.pinnedUsed = 0;
  }

  /// Compiled SIMD backend of the lane kernels ("avx2" or "scalar"), for
  /// bench records and service stats.
  static const char* backendName();

  std::size_t planCacheSize() const { return occupied_; }
  std::size_t planCompiles() const { return compiles_; }
  /// Total planFor plan lookups. lookups - compiles = cache hits;
  /// the synthesis service resets both counters at the start of each job
  /// (resetCounters) and reads them raw afterwards to report how warm the
  /// cross-request plan cache ran.
  std::size_t planLookups() const { return lookups_; }
  /// Zeroes planCompiles/planLookups without touching the plan cache
  /// itself, so a shared executor reports exact per-job deltas.
  void resetCounters() {
    compiles_ = 0;
    lookups_ = 0;
  }
  void clearPlanCache();

 private:
  /// 64-bit fingerprint of (program, signature). FNV-1a, same family as
  /// Program::hash; collisions would only ever alias two plans, and plans
  /// are determined by far fewer than 2^32 distinct (sequence, signature)
  /// pairs in any real run.
  static std::uint64_t keyOf(const Program& program,
                             const InputSignature& sig);

  static constexpr std::size_t kSlots = 1u << 12;  ///< direct-mapped slots

  struct Slot {
    std::uint64_t key = 0;
    bool used = false;
    std::vector<FuncId> functions;  ///< exact identity of the cached plan
    InputSignature sig;
    ExecPlan plan;
  };
  std::vector<Slot> slots_ = std::vector<Slot>(kSlots);
  SoATrace laneScratch_;  ///< lane storage for executeMultiView
  const std::vector<Value>* const* pinnedSets_ = nullptr;  ///< see pinExampleInputs
  std::size_t pinnedCount_ = 0;
  std::size_t compiles_ = 0;
  std::size_t lookups_ = 0;
  std::size_t occupied_ = 0;
};

// LaneTraceView members that need ExecStep (lanes.hpp only forward-declares
// ExecPlan); defined here so every view consumer gets them inline.

inline Type LaneTraceView::stepType(std::size_t k) const {
  return plan->steps[k].ret;
}

inline bool LaneTraceView::outputEquals(std::size_t lane,
                                        const Value& expected) const {
  if (steps == 0) return expected.isList() && expected.asList().empty();
  const std::size_t last = steps - 1;
  if (stepType(last) == Type::Int)
    return expected.isInt() && expected.asInt() == intAt(last, lane);
  if (!expected.isList()) return false;
  std::size_t len = 0;
  const std::int32_t* seg = listAt(last, lane, &len);
  const auto& xs = expected.asList();
  return xs.size() == len &&
         std::equal(seg, seg + len, xs.begin());
}

/// Runs `program` on `inputs`, capturing the full execution trace.
/// Total: never throws for any function sequence (valid by construction).
/// An empty program yields the default list value and an empty trace.
/// Convenience wrapper over compilePlan + executePlan; hot paths use an
/// Executor instead so the plan is compiled once, not per call.
ExecResult run(const Program& program, const std::vector<Value>& inputs);

/// Runs `program` and returns only its final output (trace discarded).
Value eval(const Program& program, const std::vector<Value>& inputs);

/// Extracts the input signature (types) of a concrete input tuple.
InputSignature signatureOf(const std::vector<Value>& inputs);

}  // namespace netsyn::dsl
