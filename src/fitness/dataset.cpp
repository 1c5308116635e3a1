#include "fitness/dataset.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "dsl/domain.hpp"
#include "dsl/interpreter.hpp"
#include "fitness/metrics.hpp"

namespace netsyn::fitness {
namespace {

/// Domain-vocabulary functions that appear nowhere in `target` (filler pool
/// that cannot increase CF or LCS). Vocabulary order, so the list domain's
/// pool is the classic ascending-FuncId scan.
std::vector<dsl::FuncId> absentFunctions(const dsl::Program& target,
                                         const dsl::Domain& domain) {
  std::array<bool, dsl::kTotalFunctions> present{};
  for (dsl::FuncId f : target.functions()) present[f] = true;
  std::vector<dsl::FuncId> pool;
  for (dsl::FuncId f : domain.vocabulary)
    if (!present[f]) pool.push_back(f);
  return pool;
}

/// `count` distinct indices of [0, n), sorted.
std::vector<std::size_t> sortedIndexSample(std::size_t n, std::size_t count,
                                           util::Rng& rng) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  rng.shuffle(idx);
  idx.resize(count);
  std::sort(idx.begin(), idx.end());
  return idx;
}

}  // namespace

dsl::Program DatasetBuilder::makeCandidateWithLabel(
    const dsl::Program& target, std::size_t label, BalanceMetric metric,
    util::Rng& rng) const {
  const std::size_t len = target.length();
  if (label > len)
    throw std::invalid_argument("label exceeds program length");
  const auto pool =
      absentFunctions(target, dsl::resolveDomain(config_.generator.domain));
  if (pool.empty() && label < len)
    throw std::invalid_argument("target uses the whole DSL; cannot dilute");

  const auto kept = sortedIndexSample(len, label, rng);

  std::vector<dsl::FuncId> fns;
  fns.reserve(len);
  for (std::size_t i : kept) fns.push_back(target.at(i));
  while (fns.size() < len) fns.push_back(rng.pick(pool));

  if (metric == BalanceMetric::CF) {
    // Order is irrelevant for CF; shuffle for diversity.
    rng.shuffle(fns);
  } else {
    // LCS: the kept functions must stay in target order; distribute the
    // filler functions around them uniformly. Partial Fisher-Yates over
    // *positions*: choose which slots hold fillers, fill the rest in order.
    std::vector<dsl::FuncId> out(len);
    auto fillerSlots = sortedIndexSample(len, len - label, rng);
    std::size_t fillerIdx = label;  // fns[label..] are fillers
    std::size_t keptIdx = 0;        // fns[0..label) are kept, in order
    std::size_t nextFiller = 0;
    for (std::size_t pos = 0; pos < len; ++pos) {
      if (nextFiller < fillerSlots.size() && fillerSlots[nextFiller] == pos) {
        out[pos] = fns[fillerIdx++];
        ++nextFiller;
      } else {
        out[pos] = fns[keptIdx++];
      }
    }
    fns = std::move(out);
  }
  return dsl::Program(std::move(fns));
}

std::optional<Sample> DatasetBuilder::makeSample(std::size_t label,
                                                 BalanceMetric metric,
                                                 util::Rng& rng) const {
  const dsl::Generator gen(config_.generator);
  const auto sig = gen.randomSignature(rng);
  const auto target =
      gen.randomProgram(config_.programLength, sig, rng);
  if (!target) return std::nullopt;
  const auto spec = gen.makeSpec(*target, sig, config_.numExamples, rng);
  if (!spec) return std::nullopt;

  Sample s;
  s.target = *target;
  s.spec = *spec;
  s.candidate = makeCandidateWithLabel(*target, label, metric, rng);
  s.traces = tracesFor(s.candidate, s.spec);
  s.cf = commonFunctions(s.candidate, s.target);
  s.lcs = longestCommonSubsequence(s.candidate, s.target);
  const dsl::Domain& dom = dsl::resolveDomain(config_.generator.domain);
  s.funcPresence.assign(dom.vocabSize(), 0.0f);
  for (dsl::FuncId f : s.target.functions())
    s.funcPresence[dom.localIndex(f)] = 1.0f;
  return s;
}

std::vector<Sample> DatasetBuilder::build(std::size_t n, BalanceMetric metric,
                                          util::Rng& rng) const {
  std::vector<Sample> out;
  out.reserve(n);
  std::size_t label = 0;
  while (out.size() < n) {
    // Advance the label only on success so generation failures (degenerate
    // specs) cannot skew the class balance.
    if (auto s = makeSample(label, metric, rng)) {
      out.push_back(std::move(*s));
      label = (label + 1) % (config_.programLength + 1);
    }
  }
  return out;
}

std::optional<PairSample> makePairSample(const DatasetConfig& config,
                                         std::size_t labelA,
                                         std::size_t labelB,
                                         BalanceMetric metric,
                                         util::Rng& rng) {
  const dsl::Generator gen(config.generator);
  const DatasetBuilder builder(config);
  const auto sig = gen.randomSignature(rng);
  const auto target = gen.randomProgram(config.programLength, sig, rng);
  if (!target) return std::nullopt;
  const auto spec = gen.makeSpec(*target, sig, config.numExamples, rng);
  if (!spec) return std::nullopt;

  PairSample p;
  p.target = *target;
  p.spec = *spec;
  p.a = builder.makeCandidateWithLabel(*target, labelA, metric, rng);
  p.b = builder.makeCandidateWithLabel(*target, labelB, metric, rng);
  p.tracesA = tracesFor(p.a, p.spec);
  p.tracesB = tracesFor(p.b, p.spec);
  const auto metricOf = [&](const dsl::Program& c) {
    return metric == BalanceMetric::CF
               ? commonFunctions(c, *target)
               : longestCommonSubsequence(c, *target);
  };
  p.metricA = metricOf(p.a);
  p.metricB = metricOf(p.b);
  return p;
}

std::vector<PairSample> buildPairs(const DatasetConfig& config, std::size_t n,
                                   BalanceMetric metric, util::Rng& rng) {
  // Enumerate ordered label pairs (a, b), a != b, and cycle through them.
  std::vector<std::pair<std::size_t, std::size_t>> labelPairs;
  for (std::size_t a = 0; a <= config.programLength; ++a)
    for (std::size_t b = 0; b <= config.programLength; ++b)
      if (a != b) labelPairs.emplace_back(a, b);

  std::vector<PairSample> out;
  out.reserve(n);
  std::size_t next = 0;
  while (out.size() < n) {
    const auto [la, lb] = labelPairs[next];
    if (auto p = makePairSample(config, la, lb, metric, rng)) {
      out.push_back(std::move(*p));
      next = (next + 1) % labelPairs.size();
    }
  }
  return out;
}

std::vector<std::vector<dsl::Value>> tracesFor(const dsl::Program& candidate,
                                               const dsl::Spec& spec) {
  // One plan for every example: they share the spec's signature.
  const dsl::ExecPlan plan = dsl::compilePlan(candidate, spec.signature());
  dsl::ExecResult scratch;
  std::vector<std::vector<dsl::Value>> traces;
  traces.reserve(spec.size());
  for (const auto& ex : spec.examples) {
    dsl::executePlan(plan, ex.inputs, scratch);
    traces.push_back(scratch.trace);
  }
  return traces;
}

}  // namespace netsyn::fitness
