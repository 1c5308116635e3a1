// The neural fitness-function model (paper Figure 2).
//
// Per IO example i, three encoders produce hidden vectors:
//   h_in   = LSTM over the embedded input tokens,
//   h_out  = LSTM over the embedded output tokens,
//   h_prog = LSTM over program steps, where step k is the function
//            embedding of f_k concatenated with an LSTM encoding of the
//            trace value t_k (Figure 2a, bottom row).
// Two stacked combiner LSTMs fuse [h_in, h_out, h_prog] into H_i; an
// example-level LSTM fuses {H_i} across the m examples (Figure 2b); two
// fully connected layers produce the output head:
//   Classifier  - softmax over fitness classes 0..numClasses-1 (f_CF, f_LCS)
//   Multilabel  - 41 sigmoid outputs, the function probability map (f_FP);
//                 per Balog et al. this head conditions on IO only, so the
//                 program/trace branch is skipped (useTrace = false)
//   Regression  - single scalar fitness (the paper's §5.3.1 ablation)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dsl/program.hpp"
#include "dsl/spec.hpp"
#include "fitness/encoding.hpp"
#include "fitness/flat_memo.hpp"
#include "nn/inference.hpp"
#include "nn/layers.hpp"
#include "nn/serialize.hpp"

namespace netsyn::dsl {
struct Domain;         // domain.hpp
struct LaneTraceView;  // lanes.hpp
}

namespace netsyn::fitness {

struct TraceCell;  // model.cpp: one trace value as a token span

/// One trace value copied out of a LaneTraceView or a Value: its type and
/// its span of a word arena (an int is a 1-word span).
struct CapturedCell {
  dsl::Type type;
  std::uint32_t offset;  ///< first word in the arena
  std::uint32_t size;    ///< words: list elements, or 1 for an int
};

/// Copied trace cells and the word arena they index. A candidate's cells
/// are appended example-major: its cell (i * length + k) is step k's value
/// on example i, for the first min(spec size, maxExamples) examples. Once
/// copied, a trace no longer depends on the buffers it was read from.
struct TraceCells {
  std::vector<CapturedCell> cells;
  std::vector<std::int32_t> words;
  void clear() {
    cells.clear();
    words.clear();
  }
};

/// One candidate's NN-ready trace features, encoded from its captured cells
/// (NnffModel::encodeCells, behind encodeLaneTrace and encodeTrace): per
/// (example i, step k) the full stepLstm input row
/// [funcEmb | trace encoding | match features], plus the four example-level
/// summary features. predictBatch feeds the rows into the batched LSTMs
/// directly.
struct EncodedTrace {
  std::size_t length = 0;     ///< candidate length (steps per example)
  std::size_t examples = 0;   ///< encoded examples: min(spec size, maxExamples)
  std::size_t stepWidth = 0;  ///< embedDim + hiddenDim + 2
  std::vector<float> steps;   ///< rows at [(i * length + k) * stepWidth]
  std::vector<float> gfeat;   ///< [i * 4]: final-dist features, exact fraction
};

enum class HeadKind : std::uint8_t { Classifier, Multilabel, Regression };

/// The step memo's key packs a program prefix's FuncIds, (id + 1) in
/// kStepKeyBits-bit fields from the low end: exact, and never 0, so [f] and
/// [f, f] differ. One word holds kStepKeyDepth statements; the states of
/// longer prefixes are computed on every call instead of memoized.
inline constexpr std::size_t kStepKeyBits = 6;
inline constexpr std::size_t kStepKeyDepth = 64 / kStepKeyBits;
static_assert(dsl::kTotalFunctions < (std::size_t{1} << kStepKeyBits),
              "every FuncId + 1 must fit a step-key field");

/// Step-memo key of `program`'s first `depth` statements
/// (depth <= kStepKeyDepth).
std::uint64_t stepPrefixKey(const dsl::Program& program, std::size_t depth);

struct NnffConfig {
  EncoderConfig encoder;
  std::size_t embedDim = 16;
  std::size_t hiddenDim = 32;
  std::size_t numClasses = 6;  ///< classifier classes 0..L for L=5 targets
  std::size_t maxExamples = 5; ///< IO examples consumed per spec
  HeadKind head = HeadKind::Classifier;
  bool useTrace = true;        ///< false for the FP (IO-only) model
  std::uint64_t seed = 1;      ///< weight-init seed
  /// Output width of a Multilabel head: the domain's vocabulary size (0
  /// means default) for the FP probability map, kNumFunctions^2 for the
  /// §5.3.1 bigram model (list domain only).
  std::size_t multilabelDim = 0;
  /// The DSL domain the model grades: sizes the function-embedding table
  /// and the default Multilabel width, and maps program FuncIds to
  /// embedding rows. nullptr = list domain, whose local indices equal
  /// global FuncIds — weight shapes and forward passes are then exactly
  /// the pre-domain model's.
  const dsl::Domain* domain = nullptr;
};

class NnffModel {
 public:
  explicit NnffModel(NnffConfig config);

  NnffModel(const NnffModel&) = delete;
  NnffModel& operator=(const NnffModel&) = delete;

  const NnffConfig& config() const { return config_; }
  const TokenEncoder& encoder() const { return encoder_; }
  nn::ParamStore& params() { return params_; }
  const nn::ParamStore& params() const { return params_; }

  /// Output width: numClasses, the domain vocabulary size, or 1 depending
  /// on the head.
  std::size_t outDim() const;

  /// Rows of the function-embedding table: the domain's vocabulary size
  /// (kNumFunctions for the list domain).
  std::size_t funcVocabSize() const;

  /// Autograd forward pass: logits (1 x outDim). `traces[i]` is the
  /// execution trace of `candidate` on spec example i (traces[i].size() ==
  /// candidate.length()). Only the first maxExamples examples are consumed.
  /// This is the training path, and the oracle that predictBatch and
  /// predictIOOnly are pinned against by tests.
  nn::Var forward(const dsl::Spec& spec, const dsl::Program& candidate,
                  const std::vector<std::vector<dsl::Value>>& traces) const;

  /// IO-only autograd forward (FP model): logits (1 x outDim).
  nn::Var forwardIOOnly(const dsl::Spec& spec) const;

  /// Hit/miss counters of the trace-encoding and edit-distance memos, for
  /// tests and service stats (proves the two-generation eviction keeps the
  /// hit rate high when the working set sits at the capacity boundary). A
  /// trace lookup is one per trace cell: a hit found the cell's whole token
  /// sequence memoized.
  struct MemoStats {
    std::uint64_t traceHits = 0, traceMisses = 0;
    std::uint64_t editHits = 0, editMisses = 0;
  };
  MemoStats memoStats() const { return memoStats_; }

 private:
  /// A workspace's changes to one two-generation memo.
  template <typename T>
  struct Staged {
    FlatMemo<T> added;  ///< entries it computed
    std::vector<std::uint64_t> promoted;  ///< previous-generation hits
  };

 public:
  /// One grading thread's private state: inference scratch, a trace-cell
  /// copy buffer, and what it did to the model's memos (new entries,
  /// previous-generation hits to promote, hit/miss counts), staged until
  /// mergeWorkspace copies them in. Grading threads share the model and
  /// its memos; each owns only a workspace.
  class alignas(64) Workspace {
   private:
    friend class NnffModel;
    nn::InferenceScratch scratch_;
    TraceCells cells_;                     ///< run-backed traces' cells
    std::vector<std::size_t> tokens_;      ///< a trace cell's tokens
    std::vector<std::uint64_t> prefixKeys_;  ///< their prefix hashes
    Staged<float> trace_;
    Staged<std::size_t> edit_;
    Staged<float> step_;
    MemoStats stats_;
  };

  /// Inference runs in two stages: every candidate's trace is first encoded
  /// into an EncodedTrace, then predictBatch grades a whole population in
  /// one allocation-light pass. The encoder reads one form of trace: cells
  /// copied out of a lane view or out of scattered Values (an int is a
  /// 1-word span). So a lane-encoded and a scatter-encoded trace of the same
  /// candidate are equal field by field (pinned by the differential fuzz
  /// suite). Trace encodings, edit distances and program-prefix step states
  /// are memoized on the model.
  ///
  /// There are two ways to call it:
  /// - Single-threaded: encodeLaneTrace, encodeTrace and predictBatch each
  ///   run on the model's own workspace and merge it before they return.
  ///   None of them is thread-safe.
  /// - Shared-memo grading (fitness::BatchGrader): beginGrading(spec); then
  ///   any number of threads run the Workspace overloads, each on its own
  ///   workspace, which only read the model; then mergeWorkspace for each
  ///   workspace once no thread uses the model. Memos hold exact states,
  ///   so they decide what is recomputed, never a value: the logits are the
  ///   single-threaded ones bit for bit.
  ///
  /// beginLaneCapture caches per-example output fingerprints and token spans
  /// for `spec` (first dropping the inference caches if the spec's contents
  /// or the weights changed); encoding reads them.
  void beginLaneCapture(const dsl::Spec& spec) const;

  /// Appends `candidate`'s cells, read off the SoA lane blocks of `view`, to
  /// `into`; `view` may be reused as soon as this returns. Reads nothing of
  /// the model but its config, so any thread may call it.
  void captureLaneCells(const dsl::Spec& spec, const dsl::Program& candidate,
                        const dsl::LaneTraceView& view,
                        TraceCells& into) const;

  /// Copies the view's cells, then encodes them into `out`.
  void encodeLaneTrace(const dsl::Spec& spec, const dsl::Program& candidate,
                       const dsl::LaneTraceView& view,
                       EncodedTrace& out) const;

  /// Encodes scattered per-example traces (`traces[i]` or `runs[i].trace`
  /// for example i) by the same copy-then-encode. Refreshes the capture
  /// cache for `spec`.
  void encodeTrace(const dsl::Spec& spec, const dsl::Program& candidate,
                   const std::vector<std::vector<dsl::Value>>& traces,
                   EncodedTrace& out) const;
  void encodeTrace(const dsl::Spec& spec, const dsl::Program& candidate,
                   const std::vector<dsl::ExecResult>& runs,
                   EncodedTrace& out) const;

  /// Population-batched forward pass: row b of the result is the logits of
  /// candidates[b], graded from `encoded[b]` (encoded for that candidate
  /// against the same spec). Spec encodings are cached per spec (by its
  /// fingerprint), each program prefix's stepLstm state is memoized per
  /// spec, and every LSTM/linear layer runs the whole population as one
  /// matrix-matrix product. A batch of one is the single-gene path.
  std::vector<std::vector<float>> predictBatch(
      const dsl::Spec& spec,
      const std::vector<const dsl::Program*>& candidates,
      const std::vector<const EncodedTrace*>& encoded) const;

  /// IO-only models (useTrace = false): the logits row for `spec`.
  std::vector<float> predictIOOnly(const dsl::Spec& spec) const;

  /// Shared-memo grading, step 1: refreshes the capture cache, the spec
  /// cache and the step memo's generation for `spec`.
  void beginGrading(const dsl::Spec& spec) const;

  /// Encodes `candidate`'s captured cells (`cells` indexes `words`, laid out
  /// as in TraceCells) into `out`.
  void encodeCells(const dsl::Spec& spec, const dsl::Program& candidate,
                   const CapturedCell* cells, const std::int32_t* words,
                   EncodedTrace& out, Workspace& ws) const;
  /// Copies `runs`' cells into `ws`, then encodes them into `out`.
  void encodeTrace(const dsl::Spec& spec, const dsl::Program& candidate,
                   const std::vector<dsl::ExecResult>& runs,
                   EncodedTrace& out, Workspace& ws) const;
  std::vector<std::vector<float>> predictBatch(
      const dsl::Spec& spec,
      const std::vector<const dsl::Program*>& candidates,
      const std::vector<const EncodedTrace*>& encoded, Workspace& ws) const;

  /// Shared-memo grading, last step: copies `ws`'s staged memo entries,
  /// promotions and counts into the model's memos and empties it.
  void mergeWorkspace(Workspace& ws) const;

  /// Test hook: shrinks the memo capacity (entries per generation table; the
  /// trace memo counts token-prefix entries) so boundary behavior is
  /// testable without 32k distinct values. Clears the memos and the
  /// counters.
  void setMemoCapacity(std::size_t cap);

  /// Deep copy with identical parameters and its own scratch/memo buffers —
  /// the unit of per-worker isolation for the parallel experiment runner.
  std::unique_ptr<NnffModel> clone() const;

  /// Overwrites the parameter values with `from`'s (a model of the same
  /// config, e.g. the original of this clone) and bumps the version, so
  /// this model's inference caches drop.
  void copyWeightsFrom(const NnffModel& from);

  void save(const std::string& path) const { nn::saveParams(params_, path); }
  void load(const std::string& path) { nn::loadParams(params_, path); }

 private:
  /// Embeds a token sequence and encodes it with `lstm`.
  nn::Var encodeTokens(const nn::Lstm& lstm,
                       const std::vector<std::size_t>& tokens) const;

  /// Embedding row of a program function: its domain-local index (identity
  /// for the list domain).
  std::size_t funcRow(dsl::FuncId id) const;

  /// H_i for one example (program/trace branch included iff useTrace).
  nn::Var exampleVector(const dsl::IOExample& example,
                        const dsl::Program* candidate,
                        const std::vector<dsl::Value>* trace) const;

  nn::Var head(const nn::Var& h) const;

  /// traceLstm encoding (hiddenDim floats) of one trace cell, through the
  /// token-prefix memo: a whole-value hit is one probe of the full token
  /// sequence; a miss resumes from the longest memoized prefix and memoizes
  /// every new prefix it steps through. Hits and new entries are staged in
  /// `ws`.
  const float* memoTraceEncoding(const TraceCell& c, Workspace& ws) const;

  /// Memoized edit distance between a trace cell and an example output (the
  /// cached token span from beginLaneCapture). Trace values recur heavily
  /// across a population's shared ancestry, and the DP behind a miss is
  /// O(|a|*|b|).
  std::size_t memoEditDistance(std::uint64_t traceFp, const TraceCell& c,
                               std::uint64_t outputFp,
                               const std::vector<std::int32_t>& outToks,
                               Workspace& ws) const;

  /// Copies `count` scattered traces' cells into `ws` (`traceAt(i)` is
  /// example i's Value trace) and encodes them.
  template <typename TraceAt>
  void encodeScattered(const dsl::Spec& spec, const dsl::Program& candidate,
                       std::size_t count, const TraceAt& traceAt,
                       EncodedTrace& out, Workspace& ws) const;

  /// Shared core of predictBatch and predictIOOnly: one row per candidate
  /// (one row, no program branch, when `candidates` is empty). Reads the
  /// caches beginPredict readied.
  std::vector<std::vector<float>> predictRows(
      const dsl::Spec& spec,
      const std::vector<const dsl::Program*>& candidates,
      const std::vector<const EncodedTrace*>& encoded, Workspace& ws) const;

  /// Drops every inference cache when the weights (params_.version()) or
  /// the spec being graded (its fingerprint) changed since they were built.
  void syncCaches(const dsl::Spec& spec) const;

  /// Readies predictRows for `spec`: syncs the caches, fills the spec cache
  /// and rotates the step memo every second call.
  void beginPredict(const dsl::Spec& spec) const;

  /// stepLstm state of every example after each candidate's full program,
  /// through the program-prefix memo: `hProg` gets row (i * B + b) =
  /// hidden state of candidates[b] on example i.
  void programStates(const std::vector<const dsl::Program*>& candidates,
                     const std::vector<const EncodedTrace*>& encoded,
                     std::size_t m, std::vector<float>& hProg,
                     Workspace& ws) const;

  NnffConfig config_;
  const dsl::Domain* resolvedDomain_;  ///< config_.domain, null -> list
  TokenEncoder encoder_;
  nn::ParamStore params_;
  std::unique_ptr<nn::Embedding> valueEmb_;
  std::unique_ptr<nn::Embedding> funcEmb_;
  std::unique_ptr<nn::Lstm> inputLstm_;
  std::unique_ptr<nn::Lstm> outputLstm_;
  std::unique_ptr<nn::Lstm> traceLstm_;
  std::unique_ptr<nn::Lstm> stepLstm_;
  std::unique_ptr<nn::Linear> featProj_;  ///< example-level match features
  std::unique_ptr<nn::Linear> ioFeatProj_;  ///< IO property signature
  std::unique_ptr<nn::Lstm> combine1_;
  std::unique_ptr<nn::Lstm> combine2_;
  std::unique_ptr<nn::Lstm> exampleLstm_;
  std::unique_ptr<nn::Linear> fc1_;
  std::unique_ptr<nn::Linear> fc2_;
  mutable Workspace own_;  ///< the single-threaded entry points' workspace

  // Inference caches. Each LSTM prefix is computed once: the spec pieces per
  // spec, a trace value's token prefixes, a program's step prefixes. All of
  // them derive from the weights, so syncCaches drops them when
  // params_.version() moves; they are also scoped to one spec (dropped when
  // its fingerprint changes), which keeps memory at one task's working set.
  mutable std::uint64_t cacheVersion_ = 0;
  mutable std::uint64_t cacheSpecFp_ = 0;
  mutable bool cacheValid_ = false;

  /// Spec cache (predictRows): per encoded example, the output encoding and
  /// the combine1/combine2 [h1 | c1 | h2 | c2] after the three spec pieces
  /// (hIn, hOut, hIoF): 5 x hiddenDim floats. Empty until the spec is first
  /// graded.
  mutable std::vector<float> specStates_;

  /// Token-prefix trace memo: a chained 64-bit hash of a token prefix ->
  /// the traceLstm [h | c] after it (a 2 x hiddenDim row). Equal token
  /// sequences encode equally, so a key names its encoding; a hash
  /// collision could only substitute one prefix's state for another's,
  /// which at < 2^32 prefixes per spec is negligible.
  ///
  /// Bounding is two-generation: when the current table reaches capacity
  /// (in prefix entries) it becomes the previous generation and the emptied
  /// other table becomes current; lookups probe current then previous,
  /// promoting previous hits. A working set at the capacity boundary
  /// therefore keeps hitting, and live memory stays <= 2x capacity.
  ///
  /// Workspaces read the tables and stage their changes; mergeWorkspace
  /// applies them: promotions first, then new entries, each copying its row
  /// and rotating the generations when the current table is full.
  mutable FlatMemo<float> traceMemo_;
  mutable FlatMemo<float> traceMemoPrev_;
  /// Edit-distance memo, keyed by mixed (trace value, output) fingerprints;
  /// same bounding and collision reasoning as traceMemo_.
  mutable FlatMemo<std::size_t> editMemo_;
  mutable FlatMemo<std::size_t> editMemoPrev_;
  std::size_t memoCapacity_ = 1u << 15;  ///< entries per generation table
  mutable MemoStats memoStats_;

  /// Program-prefix step memo: stepPrefixKey (exact, no hash) -> the
  /// stepLstm [h | c] of every example after that prefix (an m x 2 x
  /// hiddenDim row, sized by syncCaches). A step row is a function of the
  /// prefix and the spec alone (a statement reads only earlier statements
  /// and the inputs), and the memo is scoped to one spec. Two generations,
  /// rotated every second beginPredict; staged and merged like the trace
  /// memo.
  mutable FlatMemo<float> stepMemo_;
  mutable FlatMemo<float> stepMemoPrev_;
  mutable std::size_t stepMemoCalls_ = 0;

  // Capture state (beginLaneCapture): per-example output fingerprints and
  // full token spans, so the encoders compute them once per spec instead of
  // once per candidate. The spec pointer detects capture context switches;
  // encodeLaneTrace refreshes lazily when it changes, encodeTrace and
  // beginGrading always.
  mutable const dsl::Spec* captureSpec_ = nullptr;
  mutable std::vector<std::uint64_t> outputFps_;
  mutable std::vector<std::vector<std::int32_t>> outputToks_;
};

}  // namespace netsyn::fitness
