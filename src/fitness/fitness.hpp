// Fitness-function interface used by the genetic algorithm.
//
// A fitness function grades how close a candidate gene is to a program
// satisfying the specification (paper §4.2.1). Implementations include the
// oracle metrics (which peek at the target program and are the labels the
// neural models are trained to predict), output edit distance (the classic
// hand-crafted GP fitness the paper argues against), and the learned NN-FF
// variants (CF / LCS classifiers, FP probability map).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dsl/interpreter.hpp"
#include "dsl/program.hpp"
#include "dsl/spec.hpp"

namespace netsyn::fitness {

struct EncodedTrace;  // model.hpp

/// Execution results of a candidate on every spec input. The synthesizer
/// executes each gene exactly once (also for the equivalence check) and
/// shares the runs with the fitness function, so graders never re-execute.
///
/// When the synthesizer graded the gene through the lane executor, `encoded`
/// points at the candidate's trace features in a LaneTraceSink slot
/// (captured while the SoA lane blocks were still live, encoded by the
/// grader at the latest) and `runs` is empty — the grader never sees a
/// materialized trace.
struct EvalContext {
  const dsl::Spec& spec;
  const std::vector<dsl::ExecResult>& runs;  // one per spec example
  const EncodedTrace* encoded = nullptr;     // lane path; null = use runs
};

/// Placeholder runs for lane-path contexts (EvalContext::runs must bind to
/// something even when the trace was never scattered).
inline const std::vector<dsl::ExecResult> kNoRuns{};

/// Receiver of lane-trace views on the synthesizer's batched grading path.
/// The synthesizer calls beginCapture once per generation, then capture()
/// for each gene while that gene's SoA lane blocks are still live — the sink
/// must have copied what it needs of the view before the call returns (the
/// next execution reuses the blocks). It then passes at(slot) to the
/// owning fitness's scoreBatch. The sink may defer the encoding itself to
/// that call: the features in at(slot) are complete once a scoreBatch of
/// the fitness that exposes the sink has graded the slot. Trace-reading
/// fitness functions expose one via laneSink().
class LaneTraceSink {
 public:
  virtual ~LaneTraceSink() = default;
  virtual void beginCapture(const dsl::Spec& spec, std::size_t count) = 0;
  virtual void capture(std::size_t slot, const dsl::Program& candidate,
                       const dsl::LaneTraceView& view) = 0;
  /// The features of the trace captured into `slot` (see above for when
  /// they are complete); the reference stays valid until the next
  /// beginCapture.
  virtual const EncodedTrace& at(std::size_t slot) const = 0;
};

class FitnessFunction {
 public:
  virtual ~FitnessFunction() = default;

  /// Non-negative grade; higher is closer to the target. Used directly as
  /// the Roulette Wheel weight.
  virtual double score(const dsl::Program& gene, const EvalContext& ctx) = 0;

  /// Batched grading: result[i] == score(*genes[i], *contexts[i]). The GA
  /// grades whole populations through this entry point. The default loops
  /// over score() so oracle/ablation fitnesses keep working unchanged; the
  /// neural fitnesses override it with a single population-batched forward
  /// pass, and their score() is a batch of one (bitwise parity pinned by
  /// tests).
  virtual std::vector<double> scoreBatch(
      const std::vector<const dsl::Program*>& genes,
      const std::vector<const EvalContext*>& contexts) {
    std::vector<double> out;
    out.reserve(genes.size());
    for (std::size_t i = 0; i < genes.size(); ++i)
      out.push_back(score(*genes[i], *contexts[i]));
    return out;
  }

  /// Upper bound of score() for the given target length (used by the
  /// neighborhood-search trigger's normalization and by reports). May be
  /// +infinity for unbounded graders.
  virtual double maxScore(std::size_t targetLength) const = 0;

  virtual std::string name() const = 0;

  /// Non-null iff this fitness can grade from lane-encoded traces: the
  /// synthesizer then routes execution through the lane executor's view
  /// path (no per-Value scatter) and passes contexts with
  /// EvalContext::encoded set. Default: graders read the scattered runs.
  virtual LaneTraceSink* laneSink() { return nullptr; }
};

using FitnessPtr = std::shared_ptr<FitnessFunction>;

}  // namespace netsyn::fitness
