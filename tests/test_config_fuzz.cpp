// Adversarial inputs for ExperimentConfig::fromJson and the shared JSON
// parser: truncations, duplicate keys, huge numbers, deep nesting, random
// byte corruption. The contract under attack is simple — reject cleanly
// with std::invalid_argument, never crash, never hang — and the CI
// asan-ubsan job runs this suite to make "never crash" mean something.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "harness/config.hpp"
#include "util/argparse.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace nh = netsyn::harness;
namespace nu = netsyn::util;

namespace {

/// A maximal valid document: every optional section present (islands,
/// tweaks, strings with escapes), so truncation cuts through all of them.
std::string richConfigJson() {
  auto cfg = nh::ExperimentConfig::forScale("ci");
  cfg.modelDir = "dir with \"quotes\"\nand\tcontrols";
  cfg.synthesizer.strategy = netsyn::core::SearchStrategy::Islands;
  cfg.synthesizer.islands.count = 4;
  cfg.synthesizer.islands.heterogeneous = true;
  cfg.synthesizer.islands.tweaks.resize(2);
  cfg.synthesizer.islands.tweaks[0].nsKind = netsyn::core::NsKind::DFS;
  cfg.synthesizer.islands.tweaks[1].fpGuidedMutation = true;
  return cfg.toJson();
}

}  // namespace

TEST(ConfigFuzz, EveryTruncationIsRejectedCleanly) {
  const std::string full = richConfigJson();
  ASSERT_NO_THROW(nh::ExperimentConfig::fromJson(full));
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_THROW(nh::ExperimentConfig::fromJson(full.substr(0, len)),
                 std::invalid_argument)
        << "prefix of length " << len << " parsed";
  }
}

TEST(ConfigFuzz, DuplicateKeysAreFirstWins) {
  // RFC 8259 leaves duplicate-key behavior open; ours is pinned: first
  // occurrence wins, later ones are ignored, nothing crashes.
  const auto cfg = nh::ExperimentConfig::fromJson(
      "{\"scale\": \"ci\", \"search_budget\": 111, \"search_budget\": 222}");
  EXPECT_EQ(cfg.searchBudget, 111u);
}

TEST(ConfigFuzz, HugeAndMalformedNumbersAreRejected) {
  // Exponent floats where integers are required: stoull would truncate
  // "1e4" to 1 — the reader must refuse instead.
  EXPECT_THROW(nh::ExperimentConfig::fromJson("{\"search_budget\": 1e4}"),
               std::invalid_argument);
  // Out-of-range integers must not wrap.
  EXPECT_THROW(nh::ExperimentConfig::fromJson(
                   "{\"search_budget\": 99999999999999999999999999}"),
               std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson("{\"search_budget\": -4}"),
               std::invalid_argument);
  // Out-of-range doubles (1e999 overflows) and number-shaped garbage.
  EXPECT_THROW(nh::ExperimentConfig::fromJson(
                   "{\"training\": {\"learning_rate\": 1e999}}"),
               std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson(
                   "{\"training\": {\"learning_rate\": 1.2.3}}"),
               std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson("{\"seed\": 1-2}"),
               std::invalid_argument);
}

TEST(ConfigFuzz, SemanticZeroesAreRejectedAtLoadTime) {
  EXPECT_THROW(nh::ExperimentConfig::fromJson(
                   "{\"synthesizer\": {\"population_size\": 0}}"),
               std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson("{\"program_lengths\": [0]}"),
               std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson(
                   "{\"synthesizer\": {\"islands\": {\"count\": 0}}}"),
               std::invalid_argument);
}

TEST(ConfigFuzz, WrongShapesAreRejected) {
  EXPECT_THROW(nh::ExperimentConfig::fromJson("[]"), std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson("42"), std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson("{\"program_lengths\": 5}"),
               std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson("{\"synthesizer\": \"x\"}"),
               std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson("{\"training\": [1, 2]}"),
               std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson("{\"scale\": \"huge\"}"),
               std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson(
                   "{\"synthesizer\": {\"ns_kind\": \"ids\"}}"),
               std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson("{} trailing"),
               std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson(""), std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson("   "), std::invalid_argument);
}

TEST(ConfigFuzz, UnknownOrMalformedDomainIsRejected) {
  // Unknown names fail with a message naming the valid domains — a typo'd
  // --domain in a service request must not silently search the wrong DSL.
  try {
    nh::ExperimentConfig::fromJson("{\"domain\": \"flashfil\"}");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("flashfil"), std::string::npos);
    EXPECT_NE(msg.find("list, str"), std::string::npos);
  }
  // Wrong JSON types for the key are shape errors, not crashes.
  EXPECT_THROW(nh::ExperimentConfig::fromJson("{\"domain\": 12}"),
               std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson("{\"domain\": [\"str\"]}"),
               std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson("{\"domain\": \"\"}"),
               std::invalid_argument);
  // Valid names load, round-trip, and resolve their Domain pointers.
  EXPECT_EQ(nh::ExperimentConfig::fromJson("{\"domain\": \"str\"}").domainName,
            "str");
  EXPECT_EQ(nh::ExperimentConfig::fromJson("{\"domain\": \"list\"}")
                .synthesizer.generator.domain,
            nullptr);
}

TEST(ConfigFuzz, MalformedLengthsFlagIsRejectedNamingTheFlag) {
  // --lengths used to go through bare std::stol: junk like "5x" silently
  // parsed its prefix, and overflow threw an unnamed std::out_of_range that
  // surfaced as terminate in tools without a top-level handler. The parse
  // must reject whole-item, range-check, and name the flag in the message.
  const auto parse = [](const char* lengths) {
    const char* argv[] = {"prog", "--scale=ci", lengths};
    const nu::ArgParse args(3, argv);
    return nh::ExperimentConfig::fromArgs(args);
  };
  EXPECT_EQ(parse("--lengths=3,5,7").programLengths,
            (std::vector<std::size_t>{3, 5, 7}));
  for (const char* bad :
       {"--lengths=5x", "--lengths=99999999999999999999999", "--lengths=-3",
        "--lengths=0", "--lengths=", "--lengths=1,two,3",
        "--lengths=4294967295x7", "--lengths=nan"}) {
    try {
      parse(bad);
      FAIL() << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--lengths"), std::string::npos)
          << "message for '" << bad << "' does not name the flag: "
          << e.what();
    }
  }
}

TEST(ConfigFuzz, DeepNestingHitsTheDepthCapNotTheStack) {
  // Without the parser's depth cap these are a stack overflow (the
  // recursive-descent parser recurses per '['/'{').
  const std::string arrays(100000, '[');
  EXPECT_THROW(nu::parseJson(arrays), std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson(arrays),
               std::invalid_argument);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_THROW(nu::parseJson(objects), std::invalid_argument);

  // The cap is a boundary, not a cliff: comfortably-nested documents parse.
  std::string shallow;
  for (int i = 0; i < 40; ++i) shallow += '[';
  shallow += "1";
  for (int i = 0; i < 40; ++i) shallow += ']';
  EXPECT_NO_THROW(nu::parseJson(shallow));
  std::string deep;
  for (int i = 0; i < 80; ++i) deep += '[';
  deep += "1";
  for (int i = 0; i < 80; ++i) deep += ']';
  EXPECT_THROW(nu::parseJson(deep), std::invalid_argument);
}

TEST(ConfigFuzz, BrokenStringsAndEscapesAreRejected) {
  EXPECT_THROW(nh::ExperimentConfig::fromJson("{\"scale\": \"unterminated"),
               std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson("{\"scale\": \"bad\\q\"}"),
               std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson("{\"scale\": \"\\u12\"}"),
               std::invalid_argument);
  EXPECT_THROW(nh::ExperimentConfig::fromJson("{\"scale\": \"\\u1234\"}"),
               std::invalid_argument);  // only \u00XX is in the subset
  EXPECT_THROW(nh::ExperimentConfig::fromJson("{\"scale\" \"ci\"}"),
               std::invalid_argument);
}

TEST(ConfigFuzz, RandomByteCorruptionNeverCrashes) {
  // 4000 corrupted variants of a valid document: every one must either
  // still parse (a benign mutation) or throw std::invalid_argument. Any
  // other escape — a crash, a sanitizer report, a different exception —
  // fails the test. Deterministic, so failures replay.
  const std::string base = richConfigJson();
  nu::Rng rng(0xF00DF00D);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string doc = base;
    const std::size_t edits = 1 + rng.uniform(3);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t pos = rng.uniform(doc.size());
      switch (rng.uniform(3)) {
        case 0: doc[pos] = static_cast<char>(rng.uniform(256)); break;
        case 1: doc.erase(pos, 1 + rng.uniform(4)); break;
        default:
          doc.insert(pos, 1, static_cast<char>(rng.uniform(256)));
          break;
      }
      // push_back, not `doc = "{"`: GCC 12 flags the one-char literal
      // assignment with a bogus -Wrestrict (GCC bug 105329).
      if (doc.empty()) doc.push_back('{');
    }
    try {
      (void)nh::ExperimentConfig::fromJson(doc);
      ++parsed;
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  // Sanity on the distribution: corruption mostly breaks documents.
  EXPECT_GT(rejected, parsed);
  EXPECT_EQ(parsed + rejected, 4000u);
}

TEST(ConfigFuzz, RoundTripSurvivesTheRichConfig) {
  // The adversarial suite should not cost the honest path anything: a
  // maximal config still round-trips exactly.
  const std::string json = richConfigJson();
  const auto cfg = nh::ExperimentConfig::fromJson(json);
  EXPECT_EQ(cfg.toJson(), json);
}
