// Unit tests for the util library: RNG determinism and distribution sanity,
// argument parsing, statistics, sliding-window saturation, confusion
// matrices, and table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>

#include "util/argparse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace nu = netsyn::util;

// ---------------------------------------------------------------- Rng -----

TEST(Rng, SameSeedSameStream) {
  nu::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDifferentStreams) {
  nu::Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 16; ++i) differences += (a() != b()) ? 1 : 0;
  EXPECT_GT(differences, 0);
}

TEST(Rng, UniformRespectsBound) {
  nu::Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform(bound), bound);
  }
}

TEST(Rng, UniformCoversAllResidues) {
  nu::Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntInclusiveRange) {
  nu::Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRealInUnitInterval) {
  nu::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniformReal();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRealMeanIsCentered) {
  nu::Rng rng(9);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniformReal();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

// Golden bits of the scaled draws that initialize every weight
// (nn/layers.cpp): lo + (hi - lo) * u must round twice on every build. A
// build that fuses it into one multiply-add (FMA codegen with contraction
// on, e.g. -march=native) rounds once and fails here.
TEST(Rng, ScaledUniformRealBitsAreBuildIndependent) {
  const std::uint64_t kGolden[] = {
      0x3fd6de074d152776ULL, 0xbfbebe61989dc284ULL, 0x3f70718d6b4a6f40ULL,
      0x3fd72492db5b27f4ULL, 0x3fc8a6ea38a1f198ULL, 0x3fce6b84063b4f34ULL,
      0xbfa670d61bd0c2c8ULL, 0xbf969c82165c7e70ULL};
  nu::Rng rng(2021);
  const double s = std::sqrt(6.0 / 40.0);  // a Xavier bound
  for (std::size_t i = 0; i < std::size(kGolden); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rng.uniformReal(-s, s)),
              kGolden[i])
        << "draw " << i;
}

TEST(Rng, NormalMoments) {
  nu::Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(Rng, RouletteProportionalSelection) {
  nu::Rng rng(17);
  const std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::array<int, 4> counts{};
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[rng.roulette(weights)];
  EXPECT_EQ(counts[2], 0);  // zero weight never selected
  EXPECT_NEAR(counts[0] / double(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / double(n), 0.3, 0.02);
  EXPECT_NEAR(counts[3] / double(n), 0.6, 0.02);
}

TEST(Rng, RouletteAllZeroFallsBackToUniform) {
  nu::Rng rng(19);
  const std::vector<double> weights = {0.0, 0.0, 0.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 3000; ++i) ++counts[rng.roulette(weights)];
  for (int c : counts) EXPECT_GT(c, 700);
}

TEST(Rng, RouletteNegativeWeightsTreatedAsZero) {
  nu::Rng rng(23);
  const std::vector<double> weights = {-5.0, 1.0};
  for (int i = 0; i < 200; ++i) EXPECT_EQ(rng.roulette(weights), 1u);
}

TEST(Rng, ShuffleIsPermutation) {
  nu::Rng rng(29);
  std::vector<int> xs = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = xs;
  rng.shuffle(xs);
  std::sort(xs.begin(), xs.end());
  EXPECT_EQ(xs, sorted);
}

TEST(Rng, ForkProducesIndependentStream) {
  nu::Rng parent(31);
  nu::Rng child = parent.fork();
  // The child stream should not just replay the parent's.
  int equal = 0;
  for (int i = 0; i < 16; ++i) equal += (parent() == child()) ? 1 : 0;
  EXPECT_LT(equal, 4);
}

// ----------------------------------------------------------- ArgParse -----

TEST(ArgParse, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "4.5", "--flag"};
  nu::ArgParse args(5, argv);
  EXPECT_EQ(args.getInt("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(args.getDouble("beta", 0.0), 4.5);
  EXPECT_TRUE(args.getBool("flag", false));
}

TEST(ArgParse, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  nu::ArgParse args(1, argv);
  EXPECT_EQ(args.getInt("missing", 7), 7);
  EXPECT_EQ(args.getString("missing", "x"), "x");
  EXPECT_FALSE(args.getBool("missing", false));
}

TEST(ArgParse, LaterOccurrenceWins) {
  const char* argv[] = {"prog", "--k=1", "--k=2"};
  nu::ArgParse args(3, argv);
  EXPECT_EQ(args.getInt("k", 0), 2);
}

TEST(ArgParse, RejectsPositional) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(nu::ArgParse(2, argv), std::invalid_argument);
}

TEST(ArgParse, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--n=abc"};
  nu::ArgParse args(2, argv);
  EXPECT_THROW(args.getInt("n", 0), std::invalid_argument);
  EXPECT_THROW(args.getDouble("n", 0.0), std::invalid_argument);
  EXPECT_THROW(args.getBool("n", false), std::invalid_argument);
}

TEST(ArgParse, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=yes", "--b=off", "--c=1", "--d=false"};
  nu::ArgParse args(5, argv);
  EXPECT_TRUE(args.getBool("a", false));
  EXPECT_FALSE(args.getBool("b", true));
  EXPECT_TRUE(args.getBool("c", false));
  EXPECT_FALSE(args.getBool("d", true));
}

// -------------------------------------------------------------- stats -----

TEST(Stats, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(nu::mean({}), 0.0);
  EXPECT_DOUBLE_EQ(nu::mean({2, 4, 6}), 4.0);
  EXPECT_DOUBLE_EQ(nu::stddev({5}), 0.0);
  EXPECT_NEAR(nu::stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.0, 1e-12);
}

TEST(Stats, MedianAndPercentiles) {
  EXPECT_DOUBLE_EQ(nu::median({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(nu::median({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(nu::percentile({10, 20, 30, 40}, 0), 10.0);
  EXPECT_DOUBLE_EQ(nu::percentile({10, 20, 30, 40}, 100), 40.0);
  EXPECT_DOUBLE_EQ(nu::percentile({10, 20, 30, 40}, 50), 25.0);
  EXPECT_DOUBLE_EQ(nu::percentile({}, 50), 0.0);
}

TEST(SlidingWindowMean, TracksWindowAndPrior) {
  nu::SlidingWindowMean w(3);
  for (double v : {1.0, 2.0, 3.0}) w.push(v);
  EXPECT_DOUBLE_EQ(w.windowMean(), 2.0);
  EXPECT_DOUBLE_EQ(w.priorMean(), 0.0);
  EXPECT_FALSE(w.saturated());  // nothing precedes the window yet
  w.push(4.0);                  // window {2,3,4}, prior {1}
  EXPECT_DOUBLE_EQ(w.windowMean(), 3.0);
  EXPECT_DOUBLE_EQ(w.priorMean(), 1.0);
  EXPECT_FALSE(w.saturated());  // still improving
}

TEST(SlidingWindowMean, DetectsSaturation) {
  nu::SlidingWindowMean w(2);
  // Fitness rises then flat-lines: 5, 5, 5 -> window {5,5}, prior {5}.
  w.push(5.0);
  w.push(5.0);
  w.push(5.0);
  EXPECT_TRUE(w.saturated());
}

TEST(SlidingWindowMean, DecayCountsAsSaturated) {
  nu::SlidingWindowMean w(2);
  w.push(10.0);
  w.push(3.0);
  w.push(2.0);  // window mean 2.5 <= prior mean 10
  EXPECT_TRUE(w.saturated());
}

TEST(SlidingWindowMean, ResetClearsEverything) {
  nu::SlidingWindowMean w(2);
  w.push(1.0);
  w.push(2.0);
  w.push(3.0);
  w.reset();
  EXPECT_EQ(w.count(), 0u);
  EXPECT_FALSE(w.saturated());
  EXPECT_DOUBLE_EQ(w.windowMean(), 0.0);
}

TEST(SlidingWindowMean, RejectsZeroWindow) {
  EXPECT_THROW(nu::SlidingWindowMean(0), std::invalid_argument);
}

// --------------------------------------------------- ConfusionMatrix -----

TEST(ConfusionMatrix, CountsAndNormalization) {
  nu::ConfusionMatrix cm(3);
  cm.add(0, 0);
  cm.add(0, 1);
  cm.add(1, 1);
  cm.add(2, 2);
  EXPECT_EQ(cm.total(), 4u);
  EXPECT_EQ(cm.count(0, 1), 1u);
  EXPECT_DOUBLE_EQ(cm.rowNormalized(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(cm.rowNormalized(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.75);
}

TEST(ConfusionMatrix, WithinK) {
  nu::ConfusionMatrix cm(4);
  cm.add(0, 1);  // off by 1
  cm.add(3, 0);  // off by 3
  cm.add(2, 2);  // exact
  EXPECT_DOUBLE_EQ(cm.withinK(0), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(cm.withinK(1), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(cm.withinK(3), 1.0);
}

TEST(ConfusionMatrix, EmptyRowNormalizesToZero) {
  nu::ConfusionMatrix cm(2);
  EXPECT_DOUBLE_EQ(cm.rowNormalized(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.0);
}

TEST(ConfusionMatrix, RejectsOutOfRange) {
  nu::ConfusionMatrix cm(2);
  EXPECT_THROW(cm.add(2, 0), std::out_of_range);
  EXPECT_THROW(cm.add(0, 5), std::out_of_range);
}

// -------------------------------------------------------------- Table -----

TEST(Table, RendersAlignedText) {
  nu::Table t({"method", "rate"});
  t.newRow().add("NetSyn").addPercent(0.94);
  t.newRow().add("DeepCoder").addPercent(0.40);
  const std::string s = t.toString();
  EXPECT_NE(s.find("method"), std::string::npos);
  EXPECT_NE(s.find("94.0%"), std::string::npos);
  EXPECT_NE(s.find("DeepCoder"), std::string::npos);
}

TEST(Table, NanRendersAsDash) {
  nu::Table t({"x"});
  t.newRow().addDouble(std::nan(""));
  EXPECT_NE(t.toString().find("-"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  nu::Table t({"a", "b"});
  t.newRow().add("x,y").add("he said \"hi\"");
  const std::string csv = t.toCsv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, RowWiderThanHeaderThrows) {
  nu::Table t({"only"});
  t.newRow().add("one");
  EXPECT_THROW(t.add("two"), std::out_of_range);
}

TEST(Table, IntFormatting) {
  nu::Table t({"n"});
  t.newRow().addInt(-42);
  EXPECT_NE(t.toString().find("-42"), std::string::npos);
}
