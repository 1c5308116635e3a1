// The string-manipulation domain: op semantics, vocabulary structure,
// generation, NN encodings, and an end-to-end synthesis solve. Strings are
// char-code lists, so everything runs through the shared Value/ExecPlan
// machinery — these tests also pin that the shared interpreter treats the
// extended function table correctly (plan cache, DCE, totality).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/synthesizer.hpp"
#include "dsl/dce.hpp"
#include "dsl/domain.hpp"
#include "dsl/generator.hpp"
#include "dsl/interpreter.hpp"
#include "fitness/edit.hpp"
#include "fitness/neural_fitness.hpp"
#include "harness/config.hpp"
#include "util/argparse.hpp"
#include "util/rng.hpp"

namespace nc = netsyn::core;
namespace nd = netsyn::dsl;
namespace nf = netsyn::fitness;
namespace nh = netsyn::harness;
using netsyn::util::Rng;

namespace {

nd::Value str(const std::string& s) {
  std::vector<std::int32_t> xs(s.begin(), s.end());
  return nd::Value(std::move(xs));
}

std::string text(const nd::Value& v) {
  std::string out;
  for (std::int32_t c : v.asList()) out += static_cast<char>(c);
  return out;
}

/// applyFunction by display name on string-ish arguments.
nd::Value apply(const std::string& name, std::vector<nd::Value> args) {
  const auto id = nd::functionByName(name);
  EXPECT_TRUE(id.has_value()) << name;
  return nd::applyFunction(*id, args);
}

}  // namespace

// ---- op semantics -----------------------------------------------------------

TEST(StrOps, CaseAndShapeOps) {
  EXPECT_EQ(text(apply("STR.UPPER", {str("a b-C3!")})), "A B-C3!");
  EXPECT_EQ(text(apply("STR.LOWER", {str("Ab CD")})), "ab cd");
  EXPECT_EQ(text(apply("STR.TITLE", {str("heLLo  woRLD x")})),
            "Hello  World X");
  EXPECT_EQ(text(apply("STR.CAPITALIZE", {str("hELLO wORLD")})),
            "Hello world");
  EXPECT_EQ(text(apply("STR.TRIM", {str("  pad ded  ")})), "pad ded");
  EXPECT_EQ(text(apply("STR.REVERSE", {str("abc")})), "cba");
  EXPECT_EQ(text(apply("STR.SQUEEZE", {str("a   b  c")})), "a b c");
  EXPECT_EQ(text(apply("STR.HYPHENATE", {str("a b  c")})), "a-b--c");
}

TEST(StrOps, WordOps) {
  EXPECT_EQ(text(apply("STR.FIRSTWORD", {str("  one two three ")})), "one");
  EXPECT_EQ(text(apply("STR.LASTWORD", {str("one two three  ")})), "three");
  EXPECT_EQ(text(apply("STR.INITIALS", {str("John Ronald Reuel")})), "JRR");
  EXPECT_EQ(apply("STR.WORDS", {str(" a  bb ccc ")}).asInt(), 3);
  EXPECT_EQ(apply("STR.WORDS", {str("   ")}).asInt(), 0);
  EXPECT_EQ(text(apply("STR.WORD", {nd::Value(1), str("aa bb cc")})), "bb");
  EXPECT_EQ(text(apply("STR.WORD", {nd::Value(7), str("aa bb")})), "");
  EXPECT_EQ(text(apply("STR.WORD", {nd::Value(-1), str("aa bb")})), "");
  EXPECT_EQ(text(apply("STR.FIRSTWORD", {str("")})), "");
  EXPECT_EQ(text(apply("STR.LASTWORD", {str("  ")})), "");
}

TEST(StrOps, FilterAndIndexOps) {
  EXPECT_EQ(text(apply("STR.ALPHA", {str("a1b2 c!")})), "abc");
  EXPECT_EQ(text(apply("STR.DIGITS", {str("a1b2 c3")})), "123");
  EXPECT_EQ(apply("STR.LEN", {str("hello")}).asInt(), 5);
  EXPECT_EQ(apply("STR.LEN", {str("")}).asInt(), 0);
  EXPECT_EQ(text(apply("STR.TAKE", {nd::Value(3), str("abcdef")})), "abc");
  EXPECT_EQ(text(apply("STR.TAKE", {nd::Value(99), str("ab")})), "ab");
  EXPECT_EQ(text(apply("STR.DROP", {nd::Value(2), str("abcdef")})), "cdef");
  EXPECT_EQ(text(apply("STR.DROP", {nd::Value(-5), str("ab")})), "ab");
  EXPECT_EQ(apply("STR.CHARAT", {nd::Value(1), str("abc")}).asInt(), 'b');
  EXPECT_EQ(apply("STR.CHARAT", {nd::Value(9), str("abc")}).asInt(), 0);
  EXPECT_EQ(text(apply("STR.CONCAT", {str("foo"), str("bar")})), "foobar");
}

TEST(StrOps, TotalOnArbitraryInt32Content) {
  // Ops must be total on *any* list content, not just printable ASCII —
  // crossover can route any list-typed value into any op.
  const nd::Value weird(std::vector<std::int32_t>{-7, 0, 1 << 30, 'x', 32});
  for (std::size_t id = nd::kNumFunctions; id < nd::kTotalFunctions; ++id) {
    const auto& info = nd::functionInfo(id);
    std::vector<nd::Value> args;
    for (std::size_t a = 0; a < info.arity; ++a)
      args.push_back(info.argTypes[a] == nd::Type::Int ? nd::Value(3) : weird);
    EXPECT_NO_THROW(nd::applyFunction(static_cast<nd::FuncId>(id), args))
        << info.name;
  }
}

TEST(StrOps, NamesRoundTripThroughProgramParser) {
  std::vector<nd::FuncId> fns;
  for (std::size_t id = nd::kNumFunctions; id < nd::kTotalFunctions; ++id)
    fns.push_back(static_cast<nd::FuncId>(id));
  const nd::Program p(fns);
  const auto parsed = nd::Program::fromString(p.toString());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, p);
}

// ---- domain structure -------------------------------------------------------

TEST(StrDomain, VocabularyCoversExactlyTheStrOps) {
  const nd::Domain& d = nd::strDomain();
  ASSERT_EQ(d.vocabSize(), nd::kNumStrFunctions);
  for (std::size_t i = 0; i < d.vocabSize(); ++i) {
    const nd::FuncId id = d.vocabulary[i];
    EXPECT_GE(id, nd::kNumFunctions);
    EXPECT_EQ(d.localIndex(id), i);
    EXPECT_EQ(std::string(nd::functionInfo(id).name).substr(0, 4), "STR.");
  }
  for (std::size_t id = 0; id < nd::kNumFunctions; ++id)
    EXPECT_FALSE(d.contains(static_cast<nd::FuncId>(id)));
  EXPECT_FALSE(d.returning(nd::Type::Int).empty());
  EXPECT_FALSE(d.returning(nd::Type::List).empty());
}

TEST(StrDomain, RegistryResolvesNames) {
  EXPECT_EQ(nd::findDomain("list"), &nd::listDomain());
  EXPECT_EQ(nd::findDomain("str"), &nd::strDomain());
  EXPECT_EQ(nd::findDomain("bogus"), nullptr);
  EXPECT_EQ(nd::knownDomainNames(), "list, str");
  EXPECT_EQ(nd::allDomains().size(), 2u);
}

TEST(StrDomain, RenderValueQuotesText) {
  EXPECT_EQ(nd::renderValue(nd::strDomain(), str("hi there")), "\"hi there\"");
  EXPECT_EQ(nd::renderValue(nd::strDomain(), str("a\"b\\c")),
            "\"a\\\"b\\\\c\"");
  EXPECT_EQ(nd::renderValue(nd::strDomain(),
                            nd::Value(std::vector<std::int32_t>{7})),
            "\"\\x07\"");
  EXPECT_EQ(nd::renderValue(nd::strDomain(), nd::Value(42)), "42");
  // Non-textual domains keep the list rendering.
  EXPECT_EQ(nd::renderValue(nd::listDomain(), str("hi")), "[104, 105]");
}

// ---- generation -------------------------------------------------------------

TEST(StrDomain, GeneratorStaysInsideVocabularyAndCharRanges) {
  const nd::Domain& d = nd::strDomain();
  nd::Generator gen(d);
  Rng rng(5);
  for (int it = 0; it < 30; ++it) {
    const auto sig = gen.randomSignature(rng);
    const auto p = gen.randomProgram(4, sig, rng);
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(nd::isFullyLive(*p, sig));
    for (nd::FuncId f : p->functions()) EXPECT_TRUE(d.contains(f));
    const auto inputs = gen.randomInputs(sig, rng);
    for (const auto& v : inputs) {
      if (v.isInt()) {
        EXPECT_GE(v.asInt(), 0);
        EXPECT_LE(v.asInt(), 9);
      } else {
        for (std::int32_t c : v.asList()) {
          EXPECT_GE(c, 0x20);
          EXPECT_LE(c, 0x7e);
        }
      }
    }
  }
}

TEST(StrDomain, RandomProgramsExecuteTotally) {
  // Fuzz the shared interpreter over the str table: cached plans must agree
  // with fresh runs, and nothing may throw.
  const nd::Domain& d = nd::strDomain();
  nd::Generator gen(d);
  nd::Executor exec;
  Rng rng(17);
  for (int it = 0; it < 300; ++it) {
    const auto sig = gen.randomSignature(rng);
    std::vector<nd::FuncId> fns;
    const std::size_t len = 1 + rng.uniform(5);
    for (std::size_t k = 0; k < len; ++k)
      fns.push_back(d.vocabulary[rng.uniform(d.vocabSize())]);
    const nd::Program p(std::move(fns));
    const auto inputs = gen.randomInputs(sig, rng);
    const auto fresh = nd::run(p, inputs);
    nd::ExecResult pooled;
    nd::executePlan(exec.planFor(p, sig), inputs, pooled);
    ASSERT_EQ(fresh.trace.size(), pooled.trace.size());
    for (std::size_t k = 0; k < fresh.trace.size(); ++k)
      EXPECT_TRUE(fresh.trace[k] == pooled.trace[k]);
  }
}

TEST(StrDomain, SpecsAreNonDegenerate) {
  nd::Generator gen(nd::strDomain());
  Rng rng(23);
  for (int it = 0; it < 10; ++it) {
    const auto tc = gen.randomTestCase(3, 5, /*singleton=*/it % 2 == 0, rng);
    ASSERT_TRUE(tc.has_value());
    bool anyNonDefault = false;
    for (const auto& ex : tc->spec.examples) {
      if (!(ex.output == nd::Value::defaultFor(ex.output.type())))
        anyNonDefault = true;
    }
    EXPECT_TRUE(anyNonDefault);
  }
}

// ---- search + fitness end-to-end --------------------------------------------

TEST(StrDomain, EditGaSolvesEndToEnd) {
  nd::Generator gen(nd::strDomain());
  Rng rng(99);
  const auto tc = gen.randomTestCase(3, 5, false, rng);
  ASSERT_TRUE(tc.has_value());
  nc::SynthesizerConfig sc;
  sc.ga.populationSize = 40;
  sc.ga.eliteCount = 4;
  sc.maxGenerations = 500;
  sc.nsTopN = 3;
  sc.nsWindow = 6;
  sc.generator = nd::strDomain().makeGeneratorConfig();
  nc::Synthesizer syn(
      sc, std::make_shared<nf::EditDistanceFitness>(&nd::strDomain()));
  Rng srng(1234);
  const auto r = syn.synthesize(tc->spec, 3, 20000, srng);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(nd::satisfiesSpec(r.solution, tc->spec));
  for (nd::FuncId f : r.solution.functions())
    EXPECT_TRUE(nd::strDomain().contains(f));
}

TEST(StrDomain, EditDistanceIsStringLevenshtein) {
  EXPECT_EQ(nf::valueEditDistance(str("kitten"), str("sitting")), 3u);
  EXPECT_EQ(nf::valueEditDistance(str(""), str("abc")), 3u);
  EXPECT_EQ(nf::valueEditDistance(str("same"), str("same")), 0u);
}

TEST(StrDomain, FpModelAndProbMapUseVocabularyWidth) {
  nf::NnffConfig mc;
  mc.encoder = {.vmax = 128, .maxValueTokens = 16};
  mc.embedDim = 4;
  mc.hiddenDim = 6;
  mc.head = nf::HeadKind::Multilabel;
  mc.useTrace = false;
  mc.domain = &nd::strDomain();
  auto model = std::make_shared<nf::NnffModel>(mc);
  EXPECT_EQ(model->outDim(), nd::kNumStrFunctions);

  nf::ProbMapFitness fp(model);
  EXPECT_EQ(&fp.domain(), &nd::strDomain());

  nd::Generator gen(nd::strDomain());
  Rng rng(3);
  const auto tc = gen.randomTestCase(3, 4, false, rng);
  ASSERT_TRUE(tc.has_value());
  const auto map = fp.probMap(tc->spec);
  ASSERT_EQ(map.size(), nd::kNumStrFunctions);
  for (double p : map) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
  // score = sum of the gene's per-function probabilities (local-indexed).
  const auto runs = std::vector<nd::ExecResult>(tc->spec.size());
  const nf::EvalContext ctx{tc->spec, runs};
  double expected = 0.0;
  for (nd::FuncId f : tc->program.functions())
    expected += map[nd::strDomain().localIndex(f)];
  EXPECT_DOUBLE_EQ(fp.score(tc->program, ctx), expected);
}

TEST(StrDomain, ClassifierModelScoresStrGenes) {
  nf::NnffConfig mc;
  mc.encoder = {.vmax = 128, .maxValueTokens = 16};
  mc.embedDim = 4;
  mc.hiddenDim = 6;
  mc.numClasses = 4;
  mc.domain = &nd::strDomain();
  auto model = std::make_shared<nf::NnffModel>(mc);

  nd::Generator gen(nd::strDomain());
  Rng rng(7);
  const auto tc = gen.randomTestCase(3, 3, false, rng);
  ASSERT_TRUE(tc.has_value());
  std::vector<std::vector<nd::Value>> traces;
  for (const auto& ex : tc->spec.examples)
    traces.push_back(nd::run(tc->program, ex.inputs).trace);
  const auto slow = model->forward(tc->spec, tc->program, traces);
  nf::EncodedTrace encoded;
  model->encodeTrace(tc->spec, tc->program, traces, encoded);
  const auto fast =
      model->predictBatch(tc->spec, {&tc->program}, {&encoded})[0];
  ASSERT_EQ(fast.size(), 4u);
  for (std::size_t j = 0; j < fast.size(); ++j)
    EXPECT_EQ(slow->value().at(j), fast[j]);
}

// ---- config plumbing --------------------------------------------------------

TEST(StrDomainConfig, FromArgsAppliesDomainDefaults) {
  const char* argv[] = {"prog", "--domain=str"};
  const netsyn::util::ArgParse args(2, argv);
  const auto cfg = nh::ExperimentConfig::fromArgs(args);
  EXPECT_EQ(cfg.domainName, "str");
  EXPECT_EQ(cfg.synthesizer.generator.domain, &nd::strDomain());
  EXPECT_EQ(cfg.modelConfig.domain, &nd::strDomain());
  EXPECT_EQ(cfg.modelConfig.encoder.vmax, 128);
  EXPECT_TRUE(cfg.synthesizer.generator.useIntRange);
}

TEST(StrDomainConfig, JsonRoundTripsDomain) {
  auto cfg = nh::ExperimentConfig::forScale("ci");
  cfg.domainName = "str";
  cfg.applyDomain();
  const auto back = nh::ExperimentConfig::fromJson(cfg.toJson());
  EXPECT_EQ(back.domainName, "str");
  EXPECT_EQ(back.synthesizer.generator.domain, &nd::strDomain());
  EXPECT_EQ(back.modelConfig.domain, &nd::strDomain());

  const auto list = nh::ExperimentConfig::fromJson(
      nh::ExperimentConfig::forScale("ci").toJson());
  EXPECT_EQ(list.domainName, "list");
  EXPECT_EQ(list.synthesizer.generator.domain, nullptr);
}

TEST(StrDomainConfig, UnknownDomainFailsLoudly) {
  auto cfg = nh::ExperimentConfig::forScale("ci");
  cfg.domainName = "flashfill";
  try {
    cfg.applyDomain();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("flashfill"), std::string::npos);
    EXPECT_NE(msg.find("list, str"), std::string::npos);
  }
}
