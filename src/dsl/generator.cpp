#include "dsl/generator.hpp"

#include "dsl/domain.hpp"

namespace netsyn::dsl {

Generator::Generator(const Domain& domain)
    : Generator(domain.makeGeneratorConfig()) {}

const Domain& Generator::domain() const { return resolveDomain(config_.domain); }

InputSignature Generator::randomSignature(util::Rng& rng) const {
  InputSignature sig{Type::List};
  if (rng.bernoulli(config_.intInputProbability)) sig.push_back(Type::Int);
  return sig;
}

void Generator::drawValue(Type t, util::Rng& rng, Value& out) const {
  if (t == Type::Int) {
    const std::int32_t lo = config_.useIntRange ? config_.intMinValue
                                                : config_.minValue;
    const std::int32_t hi = config_.useIntRange ? config_.intMaxValue
                                                : config_.maxValue;
    out.setInt(static_cast<std::int32_t>(rng.uniformInt(lo, hi)));
    return;
  }
  if (auto* sample = domain().sampleListValue) {
    out = sample(config_, rng);
    return;
  }
  const int len = static_cast<int>(
      rng.uniformInt(config_.minListLength, config_.maxListLength));
  std::vector<std::int32_t>& xs = out.makeList();
  xs.resize(static_cast<std::size_t>(len));
  for (std::int32_t& x : xs) {
    x = static_cast<std::int32_t>(
        rng.uniformInt(config_.minValue, config_.maxValue));
  }
}

Value Generator::randomValue(Type t, util::Rng& rng) const {
  Value v;
  drawValue(t, rng, v);
  return v;
}

void Generator::drawInputs(const InputSignature& sig, util::Rng& rng,
                           std::vector<Value>& out) const {
  out.resize(sig.size());
  for (std::size_t i = 0; i < sig.size(); ++i) drawValue(sig[i], rng, out[i]);
}

std::vector<Value> Generator::randomInputs(const InputSignature& sig,
                                           util::Rng& rng) const {
  std::vector<Value> inputs;
  drawInputs(sig, rng, inputs);
  return inputs;
}

std::optional<Program> Generator::randomProgram(
    std::size_t length, const InputSignature& sig, util::Rng& rng,
    std::optional<Type> outputType) const {
  if (length == 0) return Program{};

  // Sample in domain-local index space. For the list domain the vocabulary
  // is the identity over 0..kNumFunctions-1, so the draws (and the RNG
  // stream) are exactly the pre-domain generator's.
  const Domain& dom = domain();
  const std::vector<FuncId>& vocab = dom.vocabulary;
  auto randomFunc = [&rng, &vocab]() {
    return vocab[rng.uniform(vocab.size())];
  };
  const std::vector<FuncId>& finals =
      outputType ? dom.returning(*outputType) : vocab;
  auto randomFinal = [&]() {
    return outputType ? rng.pick(finals) : randomFunc();
  };
  if (outputType && finals.empty()) return std::nullopt;  // domain lacks type

  std::vector<FuncId> fns(length);
  for (std::size_t i = 0; i + 1 < length; ++i) fns[i] = randomFunc();
  fns[length - 1] = randomFinal();

  Program program(std::move(fns));
  for (int attempt = 0; attempt < config_.maxAttempts; ++attempt) {
    const auto live = liveMask(program, sig);
    bool allLive = true;
    // Re-randomize dead statements in place; keeping the live prefix intact
    // makes this converge far faster than full resampling.
    for (std::size_t k = 0; k < length; ++k) {
      if (live[k]) continue;
      allLive = false;
      program.set(k, k + 1 == length ? randomFinal() : randomFunc());
    }
    if (allLive) return program;
  }
  return std::nullopt;
}

std::optional<Spec> Generator::makeSpec(const Program& program,
                                        const InputSignature& sig,
                                        std::size_t m, util::Rng& rng) const {
  // The plan depends only on (program, sig), so one compile serves every
  // example of every attempt, and the examples are redrawn in place. Running
  // a plan draws no random numbers: the RNG stream is that of one
  // randomInputs and one eval per example.
  const ExecPlan plan = compilePlan(program, sig);
  ExecResult scratch;
  Spec spec;
  spec.examples.resize(m);
  for (int attempt = 0; attempt < config_.maxAttempts; ++attempt) {
    // Reject degenerate specs: every output equal to the type default gives
    // the synthesizer (and the fitness model) nothing to distinguish.
    bool degenerate = true;
    for (IOExample& ex : spec.examples) {
      drawInputs(sig, rng, ex.inputs);
      executePlan(plan, ex.inputs, scratch);
      ex.output = scratch.output();
      degenerate = degenerate &&
                   ex.output == Value::defaultFor(ex.output.type());
    }
    if (!degenerate) return spec;
  }
  return std::nullopt;
}

std::optional<Generator::TestCase> Generator::randomTestCase(
    std::size_t length, std::size_t m, bool singleton, util::Rng& rng) const {
  const Type want = singleton ? Type::Int : Type::List;
  for (int attempt = 0; attempt < config_.maxAttempts; ++attempt) {
    const InputSignature sig = randomSignature(rng);
    auto program = randomProgram(length, sig, rng, want);
    if (!program) continue;
    auto spec = makeSpec(*program, sig, m, rng);
    if (!spec) continue;
    return TestCase{std::move(*program), sig, std::move(*spec)};
  }
  return std::nullopt;
}

}  // namespace netsyn::dsl
