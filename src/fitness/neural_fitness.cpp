#include "fitness/neural_fitness.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <thread>

namespace netsyn::fitness {
namespace {

/// Stable softmax over raw logits.
std::vector<double> softmaxOfLogits(const std::vector<float>& logits) {
  const float mx = *std::max_element(logits.begin(), logits.end());
  std::vector<double> probs(logits.size());
  double sum = 0.0;
  for (std::size_t j = 0; j < logits.size(); ++j) {
    probs[j] = std::exp(static_cast<double>(logits[j] - mx));
    sum += probs[j];
  }
  for (double& p : probs) p /= sum;
  return probs;
}

double expectationFromLogits(const std::vector<float>& logits) {
  const auto probs = softmaxOfLogits(logits);
  double expectation = 0.0;
  for (std::size_t j = 0; j < probs.size(); ++j)
    expectation += static_cast<double>(j) * probs[j];
  return expectation;
}

/// BatchGrader::jobOf_ of a gene whose features are already encoded.
constexpr std::size_t kReady = static_cast<std::size_t>(-1);

}  // namespace

void ModelLaneSink::beginCapture(const dsl::Spec& spec, std::size_t count) {
  spec_ = &spec;
  if (slots_.size() < count) {
    slots_.resize(count);
    firstCell_.resize(count);
    pending_.resize(count);
  }
  std::fill(pending_.begin(), pending_.end(), 0);
  cells_.clear();
}

void ModelLaneSink::capture(std::size_t slot, const dsl::Program& candidate,
                            const dsl::LaneTraceView& view) {
  firstCell_[slot] = cells_.cells.size();
  model_->captureLaneCells(*spec_, candidate, view, cells_);
  slots_[slot].stepWidth = 0;  // fits no model until it is encoded
  pending_[slot] = 1;
}

ModelLaneSink::Captured ModelLaneSink::take(const EncodedTrace* e) {
  const std::less<const EncodedTrace*> before;
  if (slots_.empty() || before(e, slots_.data()) ||
      !before(e, slots_.data() + slots_.size()))
    return {};
  const auto slot = static_cast<std::size_t>(e - slots_.data());
  if (pending_[slot] == 0) return {};
  pending_[slot] = 0;
  return {&slots_[slot], cells_.cells.data() + firstCell_[slot],
          cells_.words.data()};
}

std::size_t gradeThreads(std::size_t searches) {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::max<std::size_t>(1, hw / std::max<std::size_t>(1, searches));
}

BatchGrader::BatchGrader(std::shared_ptr<NnffModel> model,
                         ModelLaneSink* sink, std::size_t threads)
    : model_(std::move(model)),
      sink_(sink),
      threads_(std::max<std::size_t>(1, threads)) {}

std::vector<std::vector<float>> BatchGrader::logits(
    const std::vector<const dsl::Program*>& genes,
    const std::vector<const EvalContext*>& contexts) {
  // One round per maximal run of contexts sharing a spec: the memos and the
  // spec cache hold one spec at a time. In the GA every context shares the
  // generation's spec, so this is one round.
  std::vector<std::vector<float>> out(genes.size());
  std::size_t begin = 0;
  while (begin < genes.size()) {
    const dsl::Spec& spec = contexts[begin]->spec;
    std::size_t end = begin + 1;
    while (end < genes.size() && &contexts[end]->spec == &spec) ++end;
    gradeRound(genes, contexts, begin, end, out);
    begin = end;
  }
  return out;
}

void BatchGrader::gradeRound(const std::vector<const dsl::Program*>& genes,
                             const std::vector<const EvalContext*>& contexts,
                             std::size_t begin, std::size_t end,
                             std::vector<std::vector<float>>& out) {
  const dsl::Spec& spec = contexts[begin]->spec;
  const std::size_t n = end - begin;
  const std::size_t shards =
      std::clamp<std::size_t>(n / kMinGenesPerShard, 1, threads_);

  // A job per gene whose features are still to be encoded, in gene order.
  if (slots_.size() < n) slots_.resize(n);
  encoded_.resize(n);
  jobOf_.assign(n, kReady);
  jobs_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const EvalContext& ctx = *contexts[begin + i];
    const EncodedTrace* e = ctx.encoded;
    if (e == nullptr) {
      e = &slots_[i];
      jobOf_[i] = jobs_.size();
      jobs_.push_back({&slots_[i], nullptr, nullptr, begin + i});
    } else if (const auto c =
                   sink_ ? sink_->take(e) : ModelLaneSink::Captured{};
               c.out != nullptr) {
      jobOf_[i] = jobs_.size();
      jobs_.push_back({c.out, c.cells, c.words, begin + i});
    } else {
      // The same slot twice in one call: wait for the first one's job.
      for (std::size_t j = 0; j < jobs_.size(); ++j)
        if (jobs_[j].out == e) jobOf_[i] = j;
    }
    encoded_[i] = e;
  }
  claims_.reset(jobs_.size());
  // The gang and the workspaces grow to the most shards a call has needed,
  // not to threads_: workers that no call would feed are never started.
  if (workspaces_.size() < shards) {
    if (shards > 1) gang_ = std::make_unique<util::Gang>(shards - 1);
    while (workspaces_.size() < shards)
      workspaces_.push_back(std::make_unique<NnffModel::Workspace>());
  }

  const NnffModel& model = *model_;
  model.beginGrading(spec);
  const auto participant = [&](std::size_t s) {
    NnffModel::Workspace& ws = *workspaces_[s];
    const auto encode = [&](std::size_t j) {
      const Job& job = jobs_[j];
      if (job.cells != nullptr)
        model.encodeCells(spec, *genes[job.gene], job.cells, job.words,
                          *job.out, ws);
      else
        model.encodeTrace(spec, *genes[job.gene], contexts[job.gene]->runs,
                          *job.out, ws);
    };
    claims_.help(encode);
    const std::size_t lo = n * s / shards;
    const std::size_t hi = n * (s + 1) / shards;
    for (std::size_t i = lo; i < hi; ++i)
      if (jobOf_[i] != kReady && !claims_.await(jobOf_[i], encode))
        return;  // its encoder's exception ends the call
    auto logits = model.predictBatch(
        spec, {genes.begin() + begin + lo, genes.begin() + begin + hi},
        {encoded_.begin() + lo, encoded_.begin() + hi}, ws);
    std::move(logits.begin(), logits.end(), out.begin() + begin + lo);
  };
  const auto mergeAll = [&] {
    for (std::size_t s = 0; s < shards; ++s)
      model.mergeWorkspace(*workspaces_[s]);
  };
  try {
    if (shards == 1)
      participant(0);
    else
      gang_->runWithCaller(shards, participant);
  } catch (...) {
    mergeAll();
    throw;
  }
  mergeAll();
}

NeuralFitness::NeuralFitness(std::shared_ptr<NnffModel> model,
                             std::string name, std::size_t threads)
    : model_(std::move(model)),
      name_(std::move(name)),
      sink_(model_.get()),
      grader_(model_, &sink_, threads) {
  if (model_->config().head != HeadKind::Classifier)
    throw std::invalid_argument("NeuralFitness requires a Classifier head");
}

std::vector<double> NeuralFitness::classProbabilities(
    const dsl::Program& gene, const EvalContext& ctx) const {
  EncodedTrace slot;
  const EncodedTrace* encoded = ctx.encoded;
  if (encoded == nullptr) {
    model_->encodeTrace(ctx.spec, gene, ctx.runs, slot);
    encoded = &slot;
  }
  return softmaxOfLogits(
      model_->predictBatch(ctx.spec, {&gene}, {encoded})[0]);
}

double NeuralFitness::score(const dsl::Program& gene,
                            const EvalContext& ctx) {
  return scoreBatch({&gene}, {&ctx})[0];
}

std::vector<double> NeuralFitness::scoreBatch(
    const std::vector<const dsl::Program*>& genes,
    const std::vector<const EvalContext*>& contexts) {
  const auto logits = grader_.logits(genes, contexts);
  std::vector<double> out(logits.size());
  for (std::size_t i = 0; i < logits.size(); ++i)
    out[i] = expectationFromLogits(logits[i]);
  return out;
}

ProbMapFitness::ProbMapFitness(std::shared_ptr<NnffModel> fpModel)
    : model_(std::move(fpModel)),
      domain_(&dsl::resolveDomain(model_->config().domain)) {
  if (model_->config().head != HeadKind::Multilabel ||
      model_->config().useTrace)
    throw std::invalid_argument(
        "ProbMapFitness requires an IO-only Multilabel model");
  if (model_->outDim() != domain_->vocabSize())
    throw std::invalid_argument(
        "ProbMapFitness: multilabel width != domain vocabulary size");
}

std::vector<double> ProbMapFitness::probMap(const dsl::Spec& spec) {
  const std::uint64_t fp = spec.fingerprint();
  if (hasCachedMap_ && cachedFingerprint_ == fp) return cachedMap_;
  const auto logits = model_->predictIOOnly(spec);
  cachedMap_.resize(domain_->vocabSize());
  for (std::size_t j = 0; j < cachedMap_.size(); ++j) {
    cachedMap_[j] =
        1.0 / (1.0 + std::exp(-static_cast<double>(logits[j])));
  }
  hasCachedMap_ = true;
  cachedFingerprint_ = fp;
  return cachedMap_;
}

double ProbMapFitness::score(const dsl::Program& gene,
                             const EvalContext& ctx) {
  const auto map = probMap(ctx.spec);
  double total = 0.0;
  for (dsl::FuncId f : gene.functions()) total += map[domain_->localIndex(f)];
  return total;
}

std::vector<double> ProbMapFitness::scoreBatch(
    const std::vector<const dsl::Program*>& genes,
    const std::vector<const EvalContext*>& contexts) {
  std::vector<double> out(genes.size());
  std::size_t begin = 0;
  while (begin < genes.size()) {
    std::size_t end = begin + 1;
    while (end < genes.size() &&
           &contexts[end]->spec == &contexts[begin]->spec)
      ++end;
    const auto map = probMap(contexts[begin]->spec);
    for (std::size_t i = begin; i < end; ++i) {
      double total = 0.0;
      for (dsl::FuncId f : genes[i]->functions())
        total += map[domain_->localIndex(f)];
      out[i] = total;
    }
    begin = end;
  }
  return out;
}

RegressionFitness::RegressionFitness(std::shared_ptr<NnffModel> model,
                                     std::size_t threads)
    : model_(std::move(model)),
      sink_(model_.get()),
      grader_(model_, &sink_, threads) {
  if (model_->config().head != HeadKind::Regression)
    throw std::invalid_argument("RegressionFitness requires Regression head");
}

double RegressionFitness::score(const dsl::Program& gene,
                                const EvalContext& ctx) {
  return scoreBatch({&gene}, {&ctx})[0];
}

std::vector<double> RegressionFitness::scoreBatch(
    const std::vector<const dsl::Program*>& genes,
    const std::vector<const EvalContext*>& contexts) {
  const auto preds = grader_.logits(genes, contexts);
  std::vector<double> out(preds.size());
  for (std::size_t i = 0; i < preds.size(); ++i)
    out[i] = std::max(0.0, static_cast<double>(preds[i][0]));
  return out;
}

}  // namespace netsyn::fitness
