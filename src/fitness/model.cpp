#include "fitness/model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsl/domain.hpp"
#include "dsl/interpreter.hpp"
#include "fitness/edit.hpp"

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

/// Two-generation memo lookup: probes the current map, then the previous
/// one, promoting a previous-generation hit so the working set survives the
/// next rotation. Node extraction moves the element wholesale — a mapped
/// vector's heap buffer (and thus a returned reference) stays put.
template <typename Map>
typename Map::mapped_type* findMemo(Map& cur, Map& prev, std::uint64_t key,
                                    std::uint64_t& hits,
                                    std::uint64_t& misses) {
  if (const auto it = cur.find(key); it != cur.end()) {
    ++hits;
    return &it->second;
  }
  if (const auto it = prev.find(key); it != prev.end()) {
    ++hits;
    return &cur.insert(prev.extract(it)).position->second;
  }
  ++misses;
  return nullptr;
}

/// Miss-path rotation at capacity: the current map becomes the previous one
/// (whose stale entries are dropped, their bucket array recycled), so
/// recently touched entries stay findable instead of being thrown away
/// wholesale. Live memory is bounded by 2x `cap` entries.
template <typename Map>
void rotateAtCapacity(Map& cur, Map& prev, std::size_t cap) {
  if (cur.size() < cap) return;
  std::swap(cur, prev);
  cur.clear();
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

const std::vector<float>& NnffModel::memoTraceEncoding(
    std::uint64_t fp, const TraceCell& c) const {
  // Keyed by the value's own fingerprint, so a hit skips tokenization too
  // (two values that clamp/truncate to the same token sequence just occupy
  // two entries with equal encodings — correct either way).
  if (auto* hit = findMemo(traceMemo_, traceMemoPrev_, fp,
                           memoStats_.traceHits, memoStats_.traceMisses))
    return *hit;
  // Miss: tokenize straight from the span into a reused scratch buffer —
  // same token sequence encodeValue would produce for the equivalent Value.
  if (c.type == dsl::Type::Int)
    encoder_.encodeIntInto(c.xs[0], tokenScratch_);
  else
    encoder_.encodeListInto(c.xs, c.n, tokenScratch_);
  rotateAtCapacity(traceMemo_, traceMemoPrev_, memoCapacity_);
  std::vector<float> h(config_.hiddenDim);
  nn::lstmEncodeTokensFast(*traceLstm_, *valueEmb_, tokenScratch_, h.data(),
                           scratch_);
  return traceMemo_.emplace(fp, std::move(h)).first->second;
}

std::size_t NnffModel::memoEditDistance(
    std::uint64_t traceFp, const TraceCell& c, std::uint64_t outputFp,
    const std::vector<std::int32_t>& outToks) const {
  const std::uint64_t key = editKey(traceFp, outputFp);
  if (const auto* hit = findMemo(editMemo_, editMemoPrev_, key,
                                 memoStats_.editHits, memoStats_.editMisses))
    return *hit;
  rotateAtCapacity(editMemo_, editMemoPrev_, memoCapacity_);
  const std::size_t dist =
      editDistanceSpans(c.xs, c.n, outToks.data(), outToks.size());
  editMemo_.emplace(key, dist);
  return dist;
}

void NnffModel::setMemoCapacity(std::size_t cap) {
  memoCapacity_ = std::max<std::size_t>(cap, 1);
  traceMemo_.clear();
  traceMemoPrev_.clear();
  editMemo_.clear();
  editMemoPrev_.clear();
  memoStats_ = MemoStats{};
}

void NnffModel::beginLaneCapture(const dsl::Spec& spec) const {
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

template <typename CellAt>
void NnffModel::encodeCells(const dsl::Spec& spec,
                            const dsl::Program& candidate,
                            const CellAt& cellAt, EncodedTrace& out) const {
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
      finalDist =
          memoEditDistance(cellFingerprint(empty), empty, outputFp, outToks);
    }
    std::size_t exactSteps = 0;
    for (std::size_t k = 0; k < len; ++k) {
      float* x = out.steps.data() + (i * len + k) * stepWidth;
      const float* fRow =
          funcEmb_->table().data() + funcRow(candidate.at(k)) * e;
      std::copy(fRow, fRow + e, x);
      std::int32_t scratch = 0;
      const TraceCell c = cellAt(i, k, scratch);
      const std::uint64_t tvFp = cellFingerprint(c);
      const auto& tEnc = memoTraceEncoding(tvFp, c);
      std::copy(tEnc.begin(), tEnc.end(), x + e);
      const std::size_t dist = memoEditDistance(tvFp, c, outputFp, outToks);
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
  if (!config_.useTrace)
    throw std::logic_error("NnffModel::encodeLaneTrace requires useTrace=true");
  if (&spec != captureSpec_) beginLaneCapture(spec);
  if (view.steps != candidate.length())
    throw std::invalid_argument("NnffModel: trace length != program length");
  encodeCells(spec, candidate,
              [&view](std::size_t i, std::size_t k, std::int32_t& scratch) {
                return laneCell(view, i, k, scratch);
              },
              out);
}

template <typename TraceAt>
void NnffModel::encodeScattered(const dsl::Spec& spec,
                                const dsl::Program& candidate,
                                std::size_t count, const TraceAt& traceAt,
                                EncodedTrace& out) const {
  if (!config_.useTrace)
    throw std::logic_error("NnffModel::encodeTrace requires useTrace=true");
  const std::size_t m = std::min(spec.size(), config_.maxExamples);
  if (count < m)
    throw std::invalid_argument("NnffModel: one trace per example required");
  for (std::size_t i = 0; i < m; ++i)
    if (traceAt(i).size() != candidate.length())
      throw std::invalid_argument("NnffModel: trace length != program length");
  // Always refresh: a caller may rebuild a different spec at the same
  // address between calls, which the lane sink's per-generation
  // beginCapture covers but a one-off score() does not.
  beginLaneCapture(spec);
  encodeCells(spec, candidate,
              [&traceAt](std::size_t i, std::size_t k, std::int32_t& scratch) {
                return valueCell(traceAt(i)[k], scratch);
              },
              out);
}

void NnffModel::encodeTrace(const dsl::Spec& spec,
                            const dsl::Program& candidate,
                            const std::vector<std::vector<dsl::Value>>& traces,
                            EncodedTrace& out) const {
  encodeScattered(
      spec, candidate, traces.size(),
      [&traces](std::size_t i) -> const std::vector<dsl::Value>& {
        return traces[i];
      },
      out);
}

void NnffModel::encodeTrace(const dsl::Spec& spec,
                            const dsl::Program& candidate,
                            const std::vector<dsl::ExecResult>& runs,
                            EncodedTrace& out) const {
  encodeScattered(
      spec, candidate, runs.size(),
      [&runs](std::size_t i) -> const std::vector<dsl::Value>& {
        return runs[i].trace;
      },
      out);
}

std::vector<std::vector<float>> NnffModel::predictBatch(
    const dsl::Spec& spec, const std::vector<const dsl::Program*>& candidates,
    const std::vector<const EncodedTrace*>& encoded) const {
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
  return predictRows(spec, batch, encoded);
}

std::vector<float> NnffModel::predictIOOnly(const dsl::Spec& spec) const {
  if (config_.useTrace)
    throw std::logic_error("NnffModel::predictIOOnly requires useTrace=false");
  return predictRows(spec, 1, {})[0];
}

std::vector<std::vector<float>> NnffModel::predictRows(
    const dsl::Spec& spec, std::size_t batch,
    const std::vector<const EncodedTrace*>& encoded) const {
  const std::size_t h = config_.hiddenDim;
  const std::size_t m = std::min(spec.size(), config_.maxExamples);

  // His: example-major blocks of B x h (block i feeds exampleLstm step i).
  std::vector<float> His(std::max<std::size_t>(m, 1) * batch * h);
  std::vector<float> hProg(batch * h), cProg(batch * h), hMul(batch * h),
      hFeat(batch * h);
  std::vector<float> h1s(h), c1s(h), h2s(h), c2s(h);
  std::vector<float> hC(batch * h), cC(batch * h), h2(batch * h),
      c2(batch * h);

  // Shared spec encodings, computed once for the whole population and
  // batched across the m examples.
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
  std::vector<float> hInAll(m * h), hOutAll(m * h), hIoFAll(m * h);
  nn::lstmEncodeTokensBatchFast(*inputLstm_, *valueEmb_, inTokens,
                                hInAll.data(), scratch_);
  nn::lstmEncodeTokensBatchFast(*outputLstm_, *valueEmb_, outTokens,
                                hOutAll.data(), scratch_);
  nn::linearForwardBatchFast(*ioFeatProj_, ioFeatsAll.data(), m,
                             hIoFAll.data());
  for (float& v : hIoFAll) v = std::tanh(v);

  for (std::size_t i = 0; i < m; ++i) {
    const float* hIn = hInAll.data() + i * h;
    const float* hOut = hOutAll.data() + i * h;
    const float* hIoF = hIoFAll.data() + i * h;

    if (config_.useTrace) {
      // Program branch, batched over genes: step k runs all genes that are
      // at least k+1 long through stepLstm as one B x stepWidth block of
      // the encoded rows, fed verbatim.
      const std::size_t stepWidth = encoded[0]->stepWidth;
      std::size_t maxLen = 0;
      for (std::size_t b = 0; b < batch; ++b)
        maxLen = std::max(maxLen, encoded[b]->length);
      std::vector<float> xStep(batch * stepWidth, 0.0f);
      std::vector<std::uint8_t> active(batch);
      std::fill(hProg.begin(), hProg.end(), 0.0f);
      std::fill(cProg.begin(), cProg.end(), 0.0f);
      for (std::size_t k = 0; k < maxLen; ++k) {
        for (std::size_t b = 0; b < batch; ++b) {
          const EncodedTrace& et = *encoded[b];
          active[b] = k < et.length ? 1 : 0;
          if (!active[b]) continue;
          const float* row = et.steps.data() + (i * et.length + k) * stepWidth;
          std::copy(row, row + stepWidth, xStep.data() + b * stepWidth);
        }
        nn::lstmStepBatchFast(*stepLstm_, xStep.data(), batch, hProg.data(),
                              cProg.data(), scratch_, active.data());
      }
      for (std::size_t b = 0; b < batch; ++b)
        for (std::size_t j = 0; j < h; ++j)
          hMul[b * h + j] = hOut[j] * hProg[b * h + j];
      std::vector<float> g(batch * 4);
      for (std::size_t b = 0; b < batch; ++b)
        std::copy(encoded[b]->gfeat.data() + i * 4,
                  encoded[b]->gfeat.data() + (i + 1) * 4, g.data() + b * 4);
      nn::linearForwardBatchFast(*featProj_, g.data(), batch, hFeat.data());
      for (float& v : hFeat) v = std::tanh(v);
    }

    // Stacked combiners. The first three pieces are spec-level — identical
    // for every gene — so both combiner LSTMs advance through them once on a
    // single row; the resulting states are broadcast and the gene pieces run
    // batched. Layer 2 consumes layer 1's hidden right after each step
    // (equivalent to encodeAll + encode, without materializing the l1
    // sequence).
    std::fill(h1s.begin(), h1s.end(), 0.0f);
    std::fill(c1s.begin(), c1s.end(), 0.0f);
    std::fill(h2s.begin(), h2s.end(), 0.0f);
    std::fill(c2s.begin(), c2s.end(), 0.0f);
    const float* sharedPieces[3] = {hIn, hOut, hIoF};
    for (const float* piece : sharedPieces) {
      nn::lstmStepFast(*combine1_, piece, h1s.data(), c1s.data(), scratch_);
      nn::lstmStepFast(*combine2_, h1s.data(), h2s.data(), c2s.data(),
                       scratch_);
    }
    float* Hi = His.data() + i * batch * h;
    if (config_.useTrace) {
      for (std::size_t b = 0; b < batch; ++b) {
        std::copy(h1s.begin(), h1s.end(), hC.begin() + b * h);
        std::copy(c1s.begin(), c1s.end(), cC.begin() + b * h);
        std::copy(h2s.begin(), h2s.end(), h2.begin() + b * h);
        std::copy(c2s.begin(), c2s.end(), c2.begin() + b * h);
      }
      const float* genePieces[3] = {hProg.data(), hMul.data(), hFeat.data()};
      for (const float* piece : genePieces) {
        nn::lstmStepBatchFast(*combine1_, piece, batch, hC.data(), cC.data(),
                              scratch_);
        nn::lstmStepBatchFast(*combine2_, hC.data(), batch, h2.data(),
                              c2.data(), scratch_);
      }
      std::copy(h2.begin(), h2.end(), Hi);
    } else {
      for (std::size_t b = 0; b < batch; ++b)
        std::copy(h2s.begin(), h2s.end(), Hi + b * h);
    }
  }

  std::vector<const float*> hiPtrs(m);
  for (std::size_t i = 0; i < m; ++i) hiPtrs[i] = His.data() + i * batch * h;
  std::vector<float> fused(batch * h);
  nn::lstmEncodeVectorsBatchFast(*exampleLstm_, hiPtrs, batch, fused.data(),
                                 scratch_);
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
  const auto& src = params_.params();
  const auto& dst = copy->params_.params();
  for (std::size_t i = 0; i < src.size(); ++i)
    dst[i]->value() = src[i]->value();
  return copy;
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
