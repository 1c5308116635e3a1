#include "fitness/model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "dsl/domain.hpp"
#include "dsl/interpreter.hpp"
#include "fitness/edit.hpp"
#include "nn/gates.hpp"

namespace netsyn::fitness {

/// One trace cell as a token span: a list is its elements, an int a
/// 1-element span over caller-provided scratch. Both trace encoders reduce
/// their cells to this form, so everything downstream of a cell — the
/// fingerprint, the memo keys, the tokens, the edit distance — is one code
/// path whatever the trace came from.
struct TraceCell {
  dsl::Type type;
  const std::int32_t* xs;
  std::size_t n;
};

namespace {

/// Per-step match features between a trace value and the example output:
/// [similarity = 1/(1+editDist), exact-match flag]. These give the model a
/// short path to the trace-vs-output comparison it must otherwise discover
/// from millions of samples (see DESIGN.md §5 on scaled-down training).
nn::Var stepMatchFeatures(const dsl::Value& traceValue,
                          const dsl::Value& output) {
  const auto dist = valueEditDistance(traceValue, output);
  nn::Matrix f(1, 2);
  f.at(0) = 1.0f / (1.0f + static_cast<float>(dist));
  f.at(1) = (dist == 0) ? 1.0f : 0.0f;
  return nn::constant(std::move(f));
}

TraceCell valueCell(const dsl::Value& v, std::int32_t& scratch) {
  if (v.isInt()) {
    scratch = v.asInt();
    return {dsl::Type::Int, &scratch, 1};
  }
  const auto& xs = v.asList();
  return {dsl::Type::List, xs.data(), xs.size()};
}

TraceCell laneCell(const dsl::LaneTraceView& view, std::size_t i,
                   std::size_t k, std::int32_t& scratch) {
  if (view.stepType(k) == dsl::Type::Int) {
    scratch = view.intAt(k, i);
    return {dsl::Type::Int, &scratch, 1};
  }
  std::size_t n = 0;
  const std::int32_t* seg = view.listAt(k, i, &n);
  return {dsl::Type::List, seg, n};
}

/// 64-bit FNV-1a over (type tag, list length, payload words) of a cell.
std::uint64_t cellFingerprint(const TraceCell& c) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t x) {
    for (std::size_t b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(static_cast<std::uint64_t>(c.type));
  if (c.type == dsl::Type::List) mix(c.n);
  for (std::size_t i = 0; i < c.n; ++i)
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(c.xs[i])));
  return h;
}

/// Combined key of the edit-distance memo (trace fp mixed with output fp).
std::uint64_t editKey(std::uint64_t traceFp, std::uint64_t outputFp) {
  std::uint64_t key = traceFp;
  key ^= outputFp + 0x9e3779b97f4a7c15ULL + (key << 6) + (key >> 2);
  return key;
}

/// Key of the empty token prefix, and the chain step that extends a prefix
/// key by one token: key(p + t) = tokenChain(key(p), t). The splitmix64
/// finalizer keeps every prefix's key well mixed.
constexpr std::uint64_t kEmptyPrefixKey = 0x6a09e667f3bcc909ULL;

std::uint64_t tokenChain(std::uint64_t prefixKey, std::size_t token) {
  std::uint64_t z = prefixKey + 0x9e3779b97f4a7c15ULL * (token + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Parts of a spec-cache entry (NnffModel::specStates_), hiddenDim floats
/// each: the output encoding, then the combiners' [h1 | c1 | h2 | c2].
enum : std::size_t { kOut, kH1, kC1, kH2, kC2, kSpecParts };

/// Appends `c` to `into`, copying its words into the arena.
void appendCell(TraceCells& into, const TraceCell& c) {
  into.cells.push_back({c.type, static_cast<std::uint32_t>(into.words.size()),
                        static_cast<std::uint32_t>(c.n)});
  into.words.insert(into.words.end(), c.xs, c.xs + c.n);
}

/// Lookup in a two-generation memo that workspaces only read: the current
/// map, then the previous one (a hit there is staged for promotion, so the
/// working set survives the next rotation), then the workspace's own staged
/// entries. Nothing moves a mapped value before the next merge, and a merge
/// moves whole nodes, so a returned pointer into a mapped vector stays put.
template <typename Map, typename Staged>
const typename Map::mapped_type* findMemo(const Map& cur, const Map& prev,
                                          Staged& staged,
                                          const typename Map::key_type& key) {
  if (const auto it = cur.find(key); it != cur.end()) return &it->second;
  if (const auto it = prev.find(key); it != prev.end()) {
    staged.promoted.push_back(key);
    return &it->second;
  }
  if (const auto it = staged.added.find(key); it != staged.added.end())
    return &it->second;
  return nullptr;
}

/// Rotation at capacity: the current map becomes the previous one (whose
/// stale entries are dropped, their bucket array recycled), so recently
/// touched entries stay findable instead of being thrown away wholesale.
/// Live memory is bounded by 2x `cap` entries.
template <typename Map>
void rotateAtCapacity(Map& cur, Map& prev, std::size_t cap) {
  if (cur.size() < cap) return;
  std::swap(cur, prev);
  cur.clear();
}

/// Applies a workspace's staged changes to a two-generation memo:
/// promotions move previous-generation nodes into the current map, then
/// new entries move in node by node, each first rotating at capacity. A key
/// an earlier workspace already added keeps that entry (equal keys name
/// equal values). Leaves `staged` empty, its buckets kept for reuse.
template <typename Map, typename Staged>
void splice(Map& cur, Map& prev, Staged& staged, std::size_t cap) {
  for (const auto& key : staged.promoted)
    if (const auto it = prev.find(key); it != prev.end())
      cur.insert(prev.extract(it));
  staged.promoted.clear();
  while (!staged.added.empty()) {
    auto node = staged.added.extract(staged.added.begin());
    if (cur.count(node.key()) != 0) continue;
    rotateAtCapacity(cur, prev, cap);
    cur.insert(std::move(node));
  }
}

}  // namespace

NnffModel::NnffModel(NnffConfig config)
    : config_(config),
      resolvedDomain_(&dsl::resolveDomain(config.domain)),
      encoder_(config.encoder) {
  util::Rng rng(config_.seed);
  const std::size_t e = config_.embedDim;
  const std::size_t h = config_.hiddenDim;

  valueEmb_ = std::make_unique<nn::Embedding>(encoder_.vocabSize(), e,
                                              params_, rng);
  inputLstm_ = std::make_unique<nn::Lstm>(e, h, params_, rng);
  outputLstm_ = std::make_unique<nn::Lstm>(e, h, params_, rng);
  if (config_.useTrace) {
    funcEmb_ =
        std::make_unique<nn::Embedding>(funcVocabSize(), e, params_, rng);
    traceLstm_ = std::make_unique<nn::Lstm>(e, h, params_, rng);
    stepLstm_ = std::make_unique<nn::Lstm>(e + h + 2, h, params_, rng);
    featProj_ = std::make_unique<nn::Linear>(4, h, params_, rng);
  }
  ioFeatProj_ = std::make_unique<nn::Linear>(kIoFeatureDim, h, params_, rng);
  combine1_ = std::make_unique<nn::Lstm>(h, h, params_, rng);
  combine2_ = std::make_unique<nn::Lstm>(h, h, params_, rng);
  exampleLstm_ = std::make_unique<nn::Lstm>(h, h, params_, rng);
  fc1_ = std::make_unique<nn::Linear>(h, h, params_, rng);
  fc2_ = std::make_unique<nn::Linear>(h, outDim(), params_, rng);
}

std::size_t NnffModel::outDim() const {
  switch (config_.head) {
    case HeadKind::Classifier:
      return config_.numClasses;
    case HeadKind::Multilabel:
      return config_.multilabelDim == 0 ? funcVocabSize()
                                        : config_.multilabelDim;
    case HeadKind::Regression:
      return 1;
  }
  return 1;
}

std::size_t NnffModel::funcVocabSize() const {
  return resolvedDomain_->vocabSize();
}

std::size_t NnffModel::funcRow(dsl::FuncId id) const {
  return resolvedDomain_->localIndex(id);
}

nn::Var NnffModel::encodeTokens(const nn::Lstm& lstm,
                                const std::vector<std::size_t>& tokens) const {
  std::vector<nn::Var> seq;
  seq.reserve(tokens.size());
  for (std::size_t t : tokens) seq.push_back(valueEmb_->lookup(t));
  return lstm.encode(seq);
}

nn::Var NnffModel::exampleVector(const dsl::IOExample& example,
                                 const dsl::Program* candidate,
                                 const std::vector<dsl::Value>* trace) const {
  const nn::Var hIn =
      encodeTokens(*inputLstm_, encoder_.encodeInputs(example.inputs));
  const nn::Var hOut =
      encodeTokens(*outputLstm_, encoder_.encodeValue(example.output));

  // IO property signature (encoding.hpp): supplies the input-output
  // relations (sortedness, subset-ness, parity...) the paper's model learns
  // from its 4.2M-sample corpus.
  const auto ioFeats = ioSummaryFeatures(example.inputs, example.output);
  nn::Matrix ioF(1, kIoFeatureDim);
  for (std::size_t i = 0; i < kIoFeatureDim; ++i) ioF.at(i) = ioFeats[i];
  const nn::Var hIoFeat =
      nn::tanhOp(ioFeatProj_->forward(nn::constant(std::move(ioF))));

  std::vector<nn::Var> pieces = {hIn, hOut, hIoFeat};
  if (config_.useTrace) {
    if (candidate == nullptr || trace == nullptr)
      throw std::invalid_argument(
          "NnffModel: trace branch enabled but no candidate/trace given");
    if (trace->size() != candidate->length())
      throw std::invalid_argument("NnffModel: trace length != program length");
    std::vector<nn::Var> steps;
    steps.reserve(candidate->length());
    std::size_t exactSteps = 0;
    for (std::size_t k = 0; k < candidate->length(); ++k) {
      const nn::Var fVec = funcEmb_->lookup(funcRow(candidate->at(k)));
      const nn::Var tVec =
          encodeTokens(*traceLstm_, encoder_.encodeValue((*trace)[k]));
      const nn::Var mVec = stepMatchFeatures((*trace)[k], example.output);
      if ((*trace)[k] == example.output) ++exactSteps;
      steps.push_back(nn::concatCols(nn::concatCols(fVec, tVec), mVec));
    }
    const nn::Var hProg = stepLstm_->encode(steps);
    pieces.push_back(hProg);
    // Multiplicative matching between the output encoding and the program
    // encoding (interaction term the combiner LSTMs cannot form on their
    // own), plus a projected example-level match summary. Both shorten the
    // path from "candidate reproduces the specified output" to the head.
    pieces.push_back(nn::mulElem(hOut, hProg));
    const dsl::Value& finalValue = candidate->empty()
                                       ? dsl::Value::defaultFor(dsl::Type::List)
                                       : trace->back();
    const auto finalDist = valueEditDistance(finalValue, example.output);
    nn::Matrix g(1, 4);
    g.at(0) = 1.0f / (1.0f + static_cast<float>(finalDist));
    g.at(1) = (finalDist == 0) ? 1.0f : 0.0f;
    g.at(2) = (finalValue.type() == example.output.type()) ? 1.0f : 0.0f;
    g.at(3) = candidate->empty()
                  ? 0.0f
                  : static_cast<float>(exactSteps) /
                        static_cast<float>(candidate->length());
    pieces.push_back(nn::tanhOp(featProj_->forward(nn::constant(std::move(g)))));
  }

  // Two stacked combiner LSTMs (Figure 2a): layer 1 produces a hidden vector
  // per piece; layer 2 consumes those and its final state is H_i.
  return combine2_->encode(combine1_->encodeAll(pieces));
}

nn::Var NnffModel::head(const nn::Var& h) const {
  return fc2_->forward(nn::reluOp(fc1_->forward(h)));
}

nn::Var NnffModel::forward(
    const dsl::Spec& spec, const dsl::Program& candidate,
    const std::vector<std::vector<dsl::Value>>& traces) const {
  if (traces.size() < std::min(spec.size(), config_.maxExamples))
    throw std::invalid_argument("NnffModel: one trace per example required");
  std::vector<nn::Var> His;
  const std::size_t m = std::min(spec.size(), config_.maxExamples);
  His.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    His.push_back(
        exampleVector(spec.examples[i], &candidate, &traces[i]));
  }
  return head(exampleLstm_->encode(His));
}

const float* NnffModel::memoTraceEncoding(const TraceCell& c,
                                          Workspace& ws) const {
  // Tokenize straight from the span into a reused scratch buffer (the same
  // token sequence encodeValue would produce for the equivalent Value) and
  // chain the key of every prefix. The encoder always emits a type marker,
  // so the sequence is never empty.
  std::vector<std::size_t>& tokens = ws.tokens_;
  std::vector<std::uint64_t>& keys = ws.prefixKeys_;
  if (c.type == dsl::Type::Int)
    encoder_.encodeIntInto(c.xs[0], tokens);
  else
    encoder_.encodeListInto(c.xs, c.n, tokens);
  const std::size_t n = tokens.size();
  keys.resize(n + 1);
  keys[0] = kEmptyPrefixKey;
  for (std::size_t t = 0; t < n; ++t)
    keys[t + 1] = tokenChain(keys[t], tokens[t]);

  if (const auto* hit =
          findMemo(traceMemo_, traceMemoPrev_, ws.trace_, keys[n])) {
    ++ws.stats_.traceHits;
    return hit->data();
  }
  ++ws.stats_.traceMisses;

  // Resume from the longest memoized proper prefix (depth 0 is the zero
  // state) and memoize each prefix stepped through. Stepping on from a
  // stored (h, c) is exactly what a from-scratch encode would compute.
  const std::size_t hd = config_.hiddenDim;
  std::size_t t = n - 1;
  const float* state = nullptr;
  for (; t > 0; --t) {
    if (const auto* e =
            findMemo(traceMemo_, traceMemoPrev_, ws.trace_, keys[t])) {
      state = e->data();
      break;
    }
  }
  const std::size_t e = valueEmb_->dim();
  const float* table = valueEmb_->table().data();
  for (; t < n; ++t) {
    std::vector<float> next(2 * hd, 0.0f);
    if (state != nullptr) std::copy(state, state + 2 * hd, next.begin());
    nn::lstmStepFast(*traceLstm_, table + tokens[t] * e, next.data(),
                     next.data() + hd, ws.scratch_);
    state = ws.trace_.added.emplace(keys[t + 1], std::move(next))
                .first->second.data();
  }
  return state;
}

std::size_t NnffModel::memoEditDistance(
    std::uint64_t traceFp, const TraceCell& c, std::uint64_t outputFp,
    const std::vector<std::int32_t>& outToks, Workspace& ws) const {
  const std::uint64_t key = editKey(traceFp, outputFp);
  if (const auto* hit = findMemo(editMemo_, editMemoPrev_, ws.edit_, key)) {
    ++ws.stats_.editHits;
    return *hit;
  }
  ++ws.stats_.editMisses;
  const std::size_t dist =
      editDistanceSpans(c.xs, c.n, outToks.data(), outToks.size());
  ws.edit_.added.emplace(key, dist);
  return dist;
}

void NnffModel::mergeWorkspace(Workspace& ws) const {
  splice(traceMemo_, traceMemoPrev_, ws.trace_, memoCapacity_);
  splice(editMemo_, editMemoPrev_, ws.edit_, memoCapacity_);
  // The step memo rotates by call count (beginPredict), not by size.
  splice(stepMemo_, stepMemoPrev_, ws.step_,
         std::numeric_limits<std::size_t>::max());
  memoStats_.traceHits += ws.stats_.traceHits;
  memoStats_.traceMisses += ws.stats_.traceMisses;
  memoStats_.editHits += ws.stats_.editHits;
  memoStats_.editMisses += ws.stats_.editMisses;
  ws.stats_ = MemoStats{};
}

void NnffModel::setMemoCapacity(std::size_t cap) {
  memoCapacity_ = std::max<std::size_t>(cap, 1);
  // The next encode or predict syncs and so starts from empty caches.
  cacheValid_ = false;
  captureSpec_ = nullptr;
  memoStats_ = MemoStats{};
}

void NnffModel::syncCaches(std::uint64_t specFp) const {
  const std::uint64_t version = params_.version();
  if (cacheValid_ && cacheVersion_ == version && cacheSpecFp_ == specFp)
    return;
  traceMemo_.clear();
  traceMemoPrev_.clear();
  editMemo_.clear();
  editMemoPrev_.clear();
  stepMemo_.clear();
  stepMemoPrev_.clear();
  stepMemoCalls_ = 0;
  specStates_.clear();
  cacheVersion_ = version;
  cacheSpecFp_ = specFp;
  cacheValid_ = true;
}

void NnffModel::beginLaneCapture(const dsl::Spec& spec) const {
  syncCaches(spec.fingerprint());
  const std::size_t m = std::min(spec.size(), config_.maxExamples);
  outputFps_.resize(m);
  outputToks_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    std::int32_t scratch = 0;
    const TraceCell out = valueCell(spec.examples[i].output, scratch);
    outputFps_[i] = cellFingerprint(out);
    outputToks_[i].assign(out.xs, out.xs + out.n);
  }
  captureSpec_ = &spec;
}

void NnffModel::captureLaneCells(const dsl::Spec& spec,
                                 const dsl::Program& candidate,
                                 const dsl::LaneTraceView& view,
                                 TraceCells& into) const {
  if (!config_.useTrace)
    throw std::logic_error("NnffModel: lane capture requires useTrace=true");
  if (view.steps != candidate.length())
    throw std::invalid_argument("NnffModel: trace length != program length");
  const std::size_t m = std::min(spec.size(), config_.maxExamples);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t k = 0; k < view.steps; ++k) {
      std::int32_t scratch = 0;
      appendCell(into, laneCell(view, i, k, scratch));
    }
}

void NnffModel::encodeCells(const dsl::Spec& spec,
                            const dsl::Program& candidate,
                            const CapturedCell* cells,
                            const std::int32_t* words, EncodedTrace& out,
                            Workspace& ws) const {
  const std::size_t e = config_.embedDim;
  const std::size_t h = config_.hiddenDim;
  const std::size_t m = std::min(spec.size(), config_.maxExamples);
  const std::size_t len = candidate.length();
  const std::size_t stepWidth = e + h + 2;
  out.length = len;
  out.examples = m;
  out.stepWidth = stepWidth;
  out.steps.resize(m * len * stepWidth);
  out.gfeat.resize(m * 4);

  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t outputFp = outputFps_[i];
    const std::vector<std::int32_t>& outToks = outputToks_[i];
    // Example-level features. An empty program's final value is the
    // default (empty) list; otherwise it is the last step's, whose distance
    // the loop below computes anyway.
    std::size_t finalDist = 0;
    dsl::Type finalType = dsl::Type::List;
    if (len == 0) {
      const TraceCell empty{dsl::Type::List, nullptr, 0};
      finalDist = memoEditDistance(cellFingerprint(empty), empty, outputFp,
                                   outToks, ws);
    }
    std::size_t exactSteps = 0;
    for (std::size_t k = 0; k < len; ++k) {
      float* x = out.steps.data() + (i * len + k) * stepWidth;
      const float* fRow =
          funcEmb_->table().data() + funcRow(candidate.at(k)) * e;
      std::copy(fRow, fRow + e, x);
      const CapturedCell& cell = cells[i * len + k];
      const TraceCell c{cell.type, words + cell.offset, cell.size};
      const float* tEnc = memoTraceEncoding(c, ws);
      std::copy(tEnc, tEnc + h, x + e);
      const std::uint64_t tvFp = cellFingerprint(c);
      const std::size_t dist =
          memoEditDistance(tvFp, c, outputFp, outToks, ws);
      x[e + h] = 1.0f / (1.0f + static_cast<float>(dist));
      x[e + h + 1] = (dist == 0) ? 1.0f : 0.0f;
      if (dist == 0) ++exactSteps;
      finalDist = dist;
      finalType = c.type;
    }
    float* g = out.gfeat.data() + i * 4;
    g[0] = 1.0f / (1.0f + static_cast<float>(finalDist));
    g[1] = (finalDist == 0) ? 1.0f : 0.0f;
    g[2] = (finalType == spec.examples[i].output.type()) ? 1.0f : 0.0f;
    g[3] = len == 0 ? 0.0f
                    : static_cast<float>(exactSteps) / static_cast<float>(len);
  }
}

void NnffModel::encodeLaneTrace(const dsl::Spec& spec,
                                const dsl::Program& candidate,
                                const dsl::LaneTraceView& view,
                                EncodedTrace& out) const {
  own_.cells_.clear();
  captureLaneCells(spec, candidate, view, own_.cells_);
  if (&spec != captureSpec_ || params_.version() != cacheVersion_)
    beginLaneCapture(spec);
  encodeCells(spec, candidate, own_.cells_.cells.data(),
              own_.cells_.words.data(), out, own_);
  mergeWorkspace(own_);
}

template <typename TraceAt>
void NnffModel::encodeScattered(const dsl::Spec& spec,
                                const dsl::Program& candidate,
                                std::size_t count, const TraceAt& traceAt,
                                EncodedTrace& out, Workspace& ws) const {
  if (!config_.useTrace)
    throw std::logic_error("NnffModel::encodeTrace requires useTrace=true");
  const std::size_t m = std::min(spec.size(), config_.maxExamples);
  if (count < m)
    throw std::invalid_argument("NnffModel: one trace per example required");
  for (std::size_t i = 0; i < m; ++i)
    if (traceAt(i).size() != candidate.length())
      throw std::invalid_argument("NnffModel: trace length != program length");
  ws.cells_.clear();
  for (std::size_t i = 0; i < m; ++i)
    for (const dsl::Value& v : traceAt(i)) {
      std::int32_t scratch = 0;
      appendCell(ws.cells_, valueCell(v, scratch));
    }
  encodeCells(spec, candidate, ws.cells_.cells.data(),
              ws.cells_.words.data(), out, ws);
}

void NnffModel::encodeTrace(const dsl::Spec& spec,
                            const dsl::Program& candidate,
                            const std::vector<std::vector<dsl::Value>>& traces,
                            EncodedTrace& out) const {
  // Always refresh: a caller may rebuild a different spec at the same
  // address between calls, which the lane sink's per-generation grading
  // covers but a one-off score() does not.
  beginLaneCapture(spec);
  encodeScattered(
      spec, candidate, traces.size(),
      [&traces](std::size_t i) -> const std::vector<dsl::Value>& {
        return traces[i];
      },
      out, own_);
  mergeWorkspace(own_);
}

void NnffModel::encodeTrace(const dsl::Spec& spec,
                            const dsl::Program& candidate,
                            const std::vector<dsl::ExecResult>& runs,
                            EncodedTrace& out) const {
  beginLaneCapture(spec);  // see above
  encodeTrace(spec, candidate, runs, out, own_);
  mergeWorkspace(own_);
}

void NnffModel::encodeTrace(const dsl::Spec& spec,
                            const dsl::Program& candidate,
                            const std::vector<dsl::ExecResult>& runs,
                            EncodedTrace& out, Workspace& ws) const {
  encodeScattered(
      spec, candidate, runs.size(),
      [&runs](std::size_t i) -> const std::vector<dsl::Value>& {
        return runs[i].trace;
      },
      out, ws);
}

void NnffModel::beginGrading(const dsl::Spec& spec) const {
  beginLaneCapture(spec);
  beginPredict(spec);
}

std::vector<std::vector<float>> NnffModel::predictBatch(
    const dsl::Spec& spec, const std::vector<const dsl::Program*>& candidates,
    const std::vector<const EncodedTrace*>& encoded) const {
  if (candidates.empty()) return {};
  beginPredict(spec);
  auto out = predictBatch(spec, candidates, encoded, own_);
  mergeWorkspace(own_);
  return out;
}

std::vector<std::vector<float>> NnffModel::predictBatch(
    const dsl::Spec& spec, const std::vector<const dsl::Program*>& candidates,
    const std::vector<const EncodedTrace*>& encoded, Workspace& ws) const {
  const std::size_t batch = candidates.size();
  if (batch == 0) return {};
  if (!config_.useTrace)
    throw std::logic_error("NnffModel::predictBatch requires useTrace=true");
  if (encoded.size() != batch)
    throw std::invalid_argument("NnffModel: one encoded trace per candidate");
  const std::size_t m = std::min(spec.size(), config_.maxExamples);
  const std::size_t stepWidth = config_.embedDim + config_.hiddenDim + 2;
  for (std::size_t b = 0; b < batch; ++b) {
    if (encoded[b] == nullptr || encoded[b]->examples < m ||
        encoded[b]->stepWidth != stepWidth)
      throw std::invalid_argument(
          "NnffModel: encoded trace does not fit this model and spec");
    if (encoded[b]->length != candidates[b]->length())
      throw std::invalid_argument("NnffModel: trace length != program length");
  }
  return predictRows(spec, candidates, encoded, ws);
}

std::vector<float> NnffModel::predictIOOnly(const dsl::Spec& spec) const {
  if (config_.useTrace)
    throw std::logic_error("NnffModel::predictIOOnly requires useTrace=false");
  beginPredict(spec);
  return predictRows(spec, {}, {}, own_)[0];
}

void NnffModel::programStates(
    const std::vector<const dsl::Program*>& candidates,
    const std::vector<const EncodedTrace*>& encoded, std::size_t m,
    std::vector<float>& hProg, Workspace& ws) const {
  const std::size_t h = config_.hiddenDim;
  const std::size_t batch = candidates.size();
  const std::size_t stepWidth = encoded[0]->stepWidth;
  const std::size_t w = 2 * h;  // one example's [h | c]
  const auto prefixKey = [](const dsl::Program& p, std::size_t depth,
                            std::string& key) {
    key.assign(reinterpret_cast<const char*>(p.functions().data()),
               depth * sizeof(dsl::FuncId));
  };

  // 1. Every gene's longest memoized prefix: its depth and state (nullptr =
  //    the zero state at depth 0). All genes are looked up before anything
  //    is inserted, so no lookup can see an entry this call has yet to
  //    compute.
  std::vector<const float*> last(batch, nullptr);
  std::vector<std::size_t> start(batch, 0);
  std::string key;
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t d = candidates[b]->length(); d > 0; --d) {
      prefixKey(*candidates[b], d, key);
      if (const auto* e = findMemo(stepMemo_, stepMemoPrev_, ws.step_, key)) {
        last[b] = e->data();
        start[b] = d;
        break;
      }
    }
  }

  // 2. Each prefix past a gene's memoized depth becomes one new staged
  //    entry, shared by every gene of the batch that has it (phase 1 found
  //    none of them, so an existing key here was added by an earlier gene
  //    of this loop). levels[d - 1] lists the new prefixes of length d with the
  //    state they resume from and the gene whose encoded rows feed them.
  struct NewPrefix {
    float* state;
    const float* parent;
    std::size_t gene;
  };
  std::vector<std::vector<NewPrefix>> levels;
  for (std::size_t b = 0; b < batch; ++b) {
    const std::size_t len = candidates[b]->length();
    if (levels.size() < len) levels.resize(len);
    for (std::size_t d = start[b] + 1; d <= len; ++d) {
      prefixKey(*candidates[b], d, key);
      auto [it, fresh] = ws.step_.added.try_emplace(key);
      if (fresh) {
        it->second.resize(m * w);
        levels[d - 1].push_back({it->second.data(), last[b], b});
      }
      last[b] = it->second.data();
    }
  }

  // 3. Level by level, step every new prefix on every example as one batch
  //    of rows (prefix n, example i) -> row n * m + i.
  std::vector<float> x, hs, cs;
  for (std::size_t d = 1; d <= levels.size(); ++d) {
    const auto& level = levels[d - 1];
    const std::size_t rows = level.size() * m;
    if (rows == 0) continue;
    x.resize(rows * stepWidth);
    hs.assign(rows * h, 0.0f);
    cs.assign(rows * h, 0.0f);
    for (std::size_t n = 0; n < level.size(); ++n) {
      const EncodedTrace& et = *encoded[level[n].gene];
      for (std::size_t i = 0; i < m; ++i) {
        const std::size_t r = n * m + i;
        const float* row =
            et.steps.data() + (i * et.length + d - 1) * stepWidth;
        std::copy(row, row + stepWidth, x.data() + r * stepWidth);
        if (const float* p = level[n].parent) {
          std::copy(p + i * w, p + i * w + h, hs.data() + r * h);
          std::copy(p + i * w + h, p + (i + 1) * w, cs.data() + r * h);
        }
      }
    }
    nn::lstmStepBatchFast(*stepLstm_, x.data(), rows, hs.data(), cs.data(),
                          ws.scratch_);
    for (std::size_t n = 0; n < level.size(); ++n)
      for (std::size_t i = 0; i < m; ++i) {
        const std::size_t r = n * m + i;
        float* dst = level[n].state + i * w;
        std::copy(hs.data() + r * h, hs.data() + (r + 1) * h, dst);
        std::copy(cs.data() + r * h, cs.data() + (r + 1) * h, dst + h);
      }
  }

  // 4. hProg row (i * batch + b): gene b's hidden state after its program
  //    (zero for an empty program).
  hProg.assign(m * batch * h, 0.0f);
  for (std::size_t b = 0; b < batch; ++b) {
    if (last[b] == nullptr) continue;
    for (std::size_t i = 0; i < m; ++i)
      std::copy(last[b] + i * w, last[b] + i * w + h,
                hProg.data() + (i * batch + b) * h);
  }
}

void NnffModel::beginPredict(const dsl::Spec& spec) const {
  syncCaches(spec.fingerprint());
  if (++stepMemoCalls_ % 2 == 0) {
    std::swap(stepMemo_, stepMemoPrev_);
    stepMemo_.clear();
  }
  // Spec cache: per example [hOut | h1 | c1 | h2 | c2], the output encoding
  // and both combiner LSTMs' states after the three spec-level pieces
  // (identical for every gene). Computed on the spec's first call, batched
  // across the m examples.
  const std::size_t h = config_.hiddenDim;
  const std::size_t m = std::min(spec.size(), config_.maxExamples);
  if (!specStates_.empty() || m == 0) return;
  nn::InferenceScratch& scratch = own_.scratch_;
  std::vector<std::vector<std::size_t>> inTokens(m), outTokens(m);
  std::vector<float> ioFeatsAll(m * kIoFeatureDim);
  for (std::size_t i = 0; i < m; ++i) {
    const dsl::IOExample& example = spec.examples[i];
    inTokens[i] = encoder_.encodeInputs(example.inputs);
    outTokens[i] = encoder_.encodeValue(example.output);
    const auto feats = ioSummaryFeatures(example.inputs, example.output);
    std::copy(feats.begin(), feats.end(),
              ioFeatsAll.begin() + i * kIoFeatureDim);
  }
  std::vector<float> pieces(3 * m * h);  // [hIn | hOut | hIoF], m x h each
  float* hIn = pieces.data();
  float* hOut = hIn + m * h;
  float* hIoF = hOut + m * h;
  nn::lstmEncodeTokensBatchFast(*inputLstm_, *valueEmb_, inTokens, hIn,
                                scratch);
  nn::lstmEncodeTokensBatchFast(*outputLstm_, *valueEmb_, outTokens, hOut,
                                scratch);
  nn::linearForwardBatchFast(*ioFeatProj_, ioFeatsAll.data(), m, hIoF);
  nn::tanhInPlace(hIoF, m * h);
  // Layer 2 consumes layer 1's hidden right after each step (equivalent
  // to encodeAll + encode, without materializing the l1 sequence).
  std::vector<float> h1(m * h, 0.0f), c1(m * h, 0.0f), h2(m * h, 0.0f),
      c2(m * h, 0.0f);
  for (const float* piece : {hIn, hOut, hIoF}) {
    nn::lstmStepBatchFast(*combine1_, piece, m, h1.data(), c1.data(),
                          scratch);
    nn::lstmStepBatchFast(*combine2_, h1.data(), m, h2.data(), c2.data(),
                          scratch);
  }
  const std::size_t sw = kSpecParts * h;
  specStates_.resize(m * sw);
  const float* parts[kSpecParts] = {hOut, h1.data(), c1.data(), h2.data(),
                                    c2.data()};
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t p = 0; p < kSpecParts; ++p)
      std::copy(parts[p] + i * h, parts[p] + (i + 1) * h,
                specStates_.data() + i * sw + p * h);
}

std::vector<std::vector<float>> NnffModel::predictRows(
    const dsl::Spec& spec, const std::vector<const dsl::Program*>& candidates,
    const std::vector<const EncodedTrace*>& encoded, Workspace& ws) const {
  const std::size_t h = config_.hiddenDim;
  const std::size_t m = std::min(spec.size(), config_.maxExamples);
  const std::size_t batch = config_.useTrace ? candidates.size() : 1;
  const std::size_t sw = kSpecParts * h;
  const auto specPart = [&](std::size_t i, std::size_t p) {
    return specStates_.data() + i * sw + p * h;
  };

  // His: example-major blocks of B x h (block i feeds exampleLstm step i);
  // row r = i * B + b throughout.
  const std::size_t rows = m * batch;
  std::vector<float> His(std::max<std::size_t>(m, 1) * batch * h);
  if (!config_.useTrace) {
    for (std::size_t i = 0; i < m; ++i)
      std::copy(specPart(i, kH2), specPart(i, kH2) + h, His.data() + i * h);
  } else if (rows > 0) {
    // Program branch, then the three gene pieces through both combiners,
    // each resuming from its example's cached spec-level states. Every
    // (example, gene) row runs in one batch.
    std::vector<float> hProg;
    programStates(candidates, encoded, m, hProg, ws);
    std::vector<float> hMul(rows * h), g(rows * 4), hFeat(rows * h),
        hC(rows * h), cC(rows * h), c2(rows * h);
    for (std::size_t i = 0; i < m; ++i) {
      const float* hOut = specPart(i, kOut);
      for (std::size_t b = 0; b < batch; ++b) {
        const std::size_t r = i * batch + b;
        for (std::size_t j = 0; j < h; ++j)
          hMul[r * h + j] = hOut[j] * hProg[r * h + j];
        const float* gf = encoded[b]->gfeat.data() + i * 4;
        std::copy(gf, gf + 4, g.data() + r * 4);
        std::copy(specPart(i, kH1), specPart(i, kH1) + h, hC.data() + r * h);
        std::copy(specPart(i, kC1), specPart(i, kC1) + h, cC.data() + r * h);
        std::copy(specPart(i, kH2), specPart(i, kH2) + h, His.data() + r * h);
        std::copy(specPart(i, kC2), specPart(i, kC2) + h, c2.data() + r * h);
      }
    }
    nn::linearForwardBatchFast(*featProj_, g.data(), rows, hFeat.data());
    nn::tanhInPlace(hFeat.data(), hFeat.size());
    for (const float* piece : {hProg.data(), hMul.data(), hFeat.data()}) {
      nn::lstmStepBatchFast(*combine1_, piece, rows, hC.data(), cC.data(),
                            ws.scratch_);
      nn::lstmStepBatchFast(*combine2_, hC.data(), rows, His.data(),
                            c2.data(), ws.scratch_);
    }
  }

  std::vector<const float*> hiPtrs(m);
  for (std::size_t i = 0; i < m; ++i) hiPtrs[i] = His.data() + i * batch * h;
  std::vector<float> fused(batch * h);
  nn::lstmEncodeVectorsBatchFast(*exampleLstm_, hiPtrs, batch, fused.data(),
                                 ws.scratch_);
  std::vector<float> hidden(batch * fc1_->outDim());
  nn::linearForwardBatchFast(*fc1_, fused.data(), batch, hidden.data());
  nn::reluFast(hidden.data(), hidden.size());
  std::vector<float> logits(batch * fc2_->outDim());
  nn::linearForwardBatchFast(*fc2_, hidden.data(), batch, logits.data());

  std::vector<std::vector<float>> out(batch);
  const std::size_t od = fc2_->outDim();
  for (std::size_t b = 0; b < batch; ++b)
    out[b].assign(logits.begin() + b * od, logits.begin() + (b + 1) * od);
  return out;
}

std::unique_ptr<NnffModel> NnffModel::clone() const {
  auto copy = std::make_unique<NnffModel>(config_);
  copy->copyWeightsFrom(*this);
  return copy;
}

void NnffModel::copyWeightsFrom(const NnffModel& from) {
  const auto& src = from.params_.params();
  const auto& dst = params_.params();
  for (std::size_t i = 0; i < src.size(); ++i)
    dst[i]->value() = src[i]->value();
  params_.bumpVersion();
}

nn::Var NnffModel::forwardIOOnly(const dsl::Spec& spec) const {
  if (config_.useTrace)
    throw std::logic_error(
        "NnffModel::forwardIOOnly requires a model built with useTrace=false");
  std::vector<nn::Var> His;
  const std::size_t m = std::min(spec.size(), config_.maxExamples);
  His.reserve(m);
  for (std::size_t i = 0; i < m; ++i)
    His.push_back(exampleVector(spec.examples[i], nullptr, nullptr));
  return head(exampleLstm_->encode(His));
}

}  // namespace netsyn::fitness
