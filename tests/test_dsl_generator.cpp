// Generator tests: fully-live random programs, spec construction, test-case
// generation (singleton vs list programs), determinism, and Program
// serialization round-trips.
#include <gtest/gtest.h>

#include <optional>

#include "dsl/dce.hpp"
#include "dsl/domain.hpp"
#include "dsl/generator.hpp"
#include "dsl/interpreter.hpp"
#include "util/rng.hpp"

namespace nd = netsyn::dsl;
using netsyn::util::Rng;

TEST(Generator, RandomSignatureStartsWithList) {
  nd::Generator gen;
  Rng rng(1);
  bool saw_int = false, saw_list_only = false;
  for (int i = 0; i < 200; ++i) {
    const auto sig = gen.randomSignature(rng);
    ASSERT_GE(sig.size(), 1u);
    ASSERT_LE(sig.size(), 2u);
    EXPECT_EQ(sig[0], nd::Type::List);
    if (sig.size() == 2) {
      EXPECT_EQ(sig[1], nd::Type::Int);
      saw_int = true;
    } else {
      saw_list_only = true;
    }
  }
  EXPECT_TRUE(saw_int);
  EXPECT_TRUE(saw_list_only);
}

TEST(Generator, RandomValuesRespectConfiguredRanges) {
  nd::GeneratorConfig cfg;
  cfg.minValue = -5;
  cfg.maxValue = 5;
  cfg.minListLength = 2;
  cfg.maxListLength = 4;
  nd::Generator gen(cfg);
  Rng rng(2);
  for (int i = 0; i < 300; ++i) {
    const auto v = gen.randomValue(nd::Type::Int, rng);
    EXPECT_GE(v.asInt(), -5);
    EXPECT_LE(v.asInt(), 5);
    const auto l = gen.randomValue(nd::Type::List, rng);
    EXPECT_GE(l.asList().size(), 2u);
    EXPECT_LE(l.asList().size(), 4u);
    for (auto x : l.asList()) {
      EXPECT_GE(x, -5);
      EXPECT_LE(x, 5);
    }
  }
}

class RandomProgramLengths : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramLengths, FullyLiveAtExactLength) {
  const auto length = static_cast<std::size_t>(GetParam());
  nd::Generator gen;
  Rng rng(100 + GetParam());
  for (int i = 0; i < 30; ++i) {
    const auto sig = gen.randomSignature(rng);
    const auto p = gen.randomProgram(length, sig, rng);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->length(), length);
    EXPECT_TRUE(nd::isFullyLive(*p, sig)) << p->toString();
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, RandomProgramLengths,
                         ::testing::Values(1, 2, 3, 5, 7, 10, 12));

TEST(Generator, RandomProgramHonorsOutputTypeConstraint) {
  nd::Generator gen;
  Rng rng(7);
  const nd::InputSignature sig = {nd::Type::List};
  for (int i = 0; i < 20; ++i) {
    const auto pInt = gen.randomProgram(5, sig, rng, nd::Type::Int);
    ASSERT_TRUE(pInt.has_value());
    EXPECT_EQ(pInt->outputType(), nd::Type::Int);
    const auto pList = gen.randomProgram(5, sig, rng, nd::Type::List);
    ASSERT_TRUE(pList.has_value());
    EXPECT_EQ(pList->outputType(), nd::Type::List);
  }
}

TEST(Generator, MakeSpecOutputsMatchProgramExecution) {
  nd::Generator gen;
  Rng rng(11);
  const nd::InputSignature sig = {nd::Type::List};
  const auto p = gen.randomProgram(4, sig, rng);
  ASSERT_TRUE(p.has_value());
  const auto spec = gen.makeSpec(*p, sig, 5, rng);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->size(), 5u);
  for (const auto& ex : spec->examples) {
    EXPECT_EQ(nd::eval(*p, ex.inputs), ex.output);
  }
  EXPECT_TRUE(nd::satisfiesSpec(*p, *spec));
}

TEST(Generator, MakeSpecRejectsAllDefaultOutputs) {
  nd::Generator gen;
  Rng rng(13);
  const nd::InputSignature sig = {nd::Type::List};
  for (int i = 0; i < 20; ++i) {
    const auto p = gen.randomProgram(3, sig, rng);
    ASSERT_TRUE(p.has_value());
    const auto spec = gen.makeSpec(*p, sig, 5, rng);
    if (!spec) continue;  // genuinely degenerate program; acceptable
    bool any_nondefault = false;
    for (const auto& ex : spec->examples) {
      any_nondefault |=
          !(ex.output == nd::Value::defaultFor(ex.output.type()));
    }
    EXPECT_TRUE(any_nondefault);
  }
}

namespace {

/// makeSpec as one eval per example: a fresh plan for every example and a
/// fresh spec for every attempt. The oracle for the compile-once makeSpec.
std::optional<nd::Spec> makeSpecByEval(const nd::Generator& gen,
                                       const nd::Program& program,
                                       const nd::InputSignature& sig,
                                       std::size_t m, Rng& rng) {
  for (int attempt = 0; attempt < gen.config().maxAttempts; ++attempt) {
    nd::Spec spec;
    for (std::size_t j = 0; j < m; ++j) {
      nd::IOExample ex;
      ex.inputs = gen.randomInputs(sig, rng);
      ex.output = nd::eval(program, ex.inputs);
      spec.examples.push_back(std::move(ex));
    }
    bool degenerate = true;
    for (const nd::IOExample& ex : spec.examples)
      degenerate = degenerate &&
                   ex.output == nd::Value::defaultFor(ex.output.type());
    if (!degenerate) return spec;
  }
  return std::nullopt;
}

void expectSameSpec(const std::optional<nd::Spec>& got,
                    const std::optional<nd::Spec>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got) return;
  ASSERT_EQ(got->size(), want->size());
  for (std::size_t j = 0; j < got->size(); ++j) {
    EXPECT_EQ(got->examples[j].inputs, want->examples[j].inputs) << j;
    EXPECT_EQ(got->examples[j].output, want->examples[j].output) << j;
  }
}

}  // namespace

TEST(Generator, MakeSpecMatchesPerExampleEvalStream) {
  for (const nd::Domain* domain : {&nd::listDomain(), &nd::strDomain()}) {
    SCOPED_TRACE(domain->name);
    const nd::Generator gen(*domain);
    Rng draw(31), fast(37), slow(37);
    std::size_t specs = 0;
    for (int i = 0; i < 300; ++i) {
      const auto sig = gen.randomSignature(draw);
      const auto length = static_cast<std::size_t>(draw.uniformInt(1, 6));
      const auto m = static_cast<std::size_t>(draw.uniformInt(1, 10));
      const auto p = gen.randomProgram(length, sig, draw);
      ASSERT_TRUE(p.has_value());
      const auto got = gen.makeSpec(*p, sig, m, fast);
      expectSameSpec(got, makeSpecByEval(gen, *p, sig, m, slow));
      specs += got.has_value();
      ASSERT_EQ(fast(), slow()) << "program " << i;
    }
    EXPECT_GT(specs, 200u);
  }
}

TEST(Generator, MakeSpecExhaustsAttemptsOnTheEvalStream) {
  // Every output of this program is the empty list: all 1000 attempts are
  // degenerate, and the call must consume exactly the eval loop's draws.
  const nd::Generator gen;
  const auto p = nd::Program::fromString("FILTER(>0) | FILTER(<0)");
  ASSERT_TRUE(p.has_value());
  for (const nd::InputSignature& sig :
       {nd::InputSignature{nd::Type::List},
        nd::InputSignature{nd::Type::List, nd::Type::Int}}) {
    Rng fast(41), slow(41);
    EXPECT_FALSE(gen.makeSpec(*p, sig, 5, fast).has_value());
    EXPECT_FALSE(makeSpecByEval(gen, *p, sig, 5, slow).has_value());
    EXPECT_EQ(fast(), slow());
  }
}

TEST(Generator, TestCaseSingletonFlagControlsOutputType) {
  nd::Generator gen;
  Rng rng(17);
  for (int i = 0; i < 10; ++i) {
    const auto tcInt = gen.randomTestCase(5, 5, /*singleton=*/true, rng);
    ASSERT_TRUE(tcInt.has_value());
    EXPECT_EQ(tcInt->program.outputType(), nd::Type::Int);
    EXPECT_TRUE(nd::isFullyLive(tcInt->program, tcInt->signature));
    EXPECT_EQ(tcInt->spec.size(), 5u);

    const auto tcList = gen.randomTestCase(5, 5, /*singleton=*/false, rng);
    ASSERT_TRUE(tcList.has_value());
    EXPECT_EQ(tcList->program.outputType(), nd::Type::List);
  }
}

TEST(Generator, DeterministicUnderSeed) {
  nd::Generator gen;
  Rng a(42), b(42);
  const nd::InputSignature sig = {nd::Type::List};
  for (int i = 0; i < 10; ++i) {
    const auto pa = gen.randomProgram(6, sig, a);
    const auto pb = gen.randomProgram(6, sig, b);
    ASSERT_TRUE(pa && pb);
    EXPECT_EQ(*pa, *pb);
  }
}

TEST(Generator, SpecSignatureMatchesGeneratedInputs) {
  nd::Generator gen;
  Rng rng(23);
  const auto tc = gen.randomTestCase(5, 5, false, rng);
  ASSERT_TRUE(tc.has_value());
  EXPECT_EQ(tc->spec.signature(), tc->signature);
}

// ------------------------------------------ Program serialization ---------

TEST(Program, ToStringUsesBarSeparators) {
  const auto p = nd::Program::fromString("FILTER(>0) | MAP(*2) | SORT");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 3u);
  EXPECT_EQ(p->toString(), "FILTER(>0) | MAP(*2) | SORT");
}

TEST(Program, FromStringRejectsUnknownNames) {
  EXPECT_FALSE(nd::Program::fromString("FILTER(>0) | FROB").has_value());
  EXPECT_FALSE(nd::Program::fromString("|").has_value());
}

TEST(Program, EmptyStringParsesToEmptyProgram) {
  const auto p = nd::Program::fromString("");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->empty());
}

class ProgramRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ProgramRoundTrip, RandomProgramsSurviveToStringFromString) {
  nd::Generator gen;
  Rng rng(3000 + GetParam());
  const nd::InputSignature sig = {nd::Type::List};
  for (int i = 0; i < 25; ++i) {
    const auto p = gen.randomProgram(1 + rng.uniform(9), sig, rng);
    ASSERT_TRUE(p.has_value());
    const auto back = nd::Program::fromString(p->toString());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, *p);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProgramRoundTrip, ::testing::Range(0, 4));

TEST(Program, HashDistinguishesDifferentPrograms) {
  const auto a = nd::Program::fromString("SORT | REVERSE");
  const auto b = nd::Program::fromString("REVERSE | SORT");
  ASSERT_TRUE(a && b);
  EXPECT_NE(a->hash(), b->hash());
  EXPECT_EQ(a->hash(), nd::Program::fromString("SORT | REVERSE")->hash());
}

TEST(Program, OutputTypeFollowsLastFunction) {
  EXPECT_EQ(nd::Program::fromString("SORT | HEAD")->outputType(),
            nd::Type::Int);
  EXPECT_EQ(nd::Program::fromString("HEAD | TAKE")->outputType(),
            nd::Type::List);
  EXPECT_THROW(nd::Program{}.outputType(), std::logic_error);
}
