// The LSTM gate kernels (nn/gates.hpp) must return exactly what the scalar
// expressions return — std::tanh and nn::sigmoid, i.e. libm — bit for bit,
// on every input: inference scores, search trajectories and the exact
// guards built on them all depend on it. On the AVX2 backend this pins the
// 8-wide transcriptions of libm's tanhf/expf; on the scalar backend it is
// trivially true. DISABLED_Exhaustive checks all 2^32 floats (run it with
// --gtest_also_run_disabled_tests --gtest_filter='*Exhaustive*').
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "nn/gates.hpp"
#include "nn/inference.hpp"
#include "nn/layers.hpp"
#include "util/rng.hpp"

namespace nn = netsyn::nn;
using netsyn::util::Rng;

namespace {

std::uint32_t bitsOf(float f) {
  std::uint32_t b = 0;
  std::memcpy(&b, &f, sizeof b);
  return b;
}

float fromBits(std::uint32_t b) {
  float f = 0.0f;
  std::memcpy(&f, &b, sizeof f);
  return f;
}

/// Every 251st bit pattern, the special values, and +-4 ULP around each
/// branch threshold of tanhf, expm1f and expf, in both signs; shuffled so
/// the lanes of one vector take different branches.
std::vector<float> buildSweep() {
  std::vector<std::uint32_t> bits;
  for (std::uint64_t b = 0; b < (1ull << 32); b += 251)
    bits.push_back(static_cast<std::uint32_t>(b));
  const std::uint32_t specials[] = {
      0x00000000, 0x7f800000,  // 0, inf
      0x7fc00000, 0x7f800001,  // quiet and signalling NaN
      0x7fffffff, 0x00000001,  // NaN with full payload, smallest denormal
      0x007fffff, 0x00400000,  // largest denormal, a middle one
      0x00800000, 0x7f7fffff,  // smallest normal, largest finite
  };
  // tanhf: 22, 1, 2^-55. expm1f: 27 ln2, 0.5 ln2, 1.5 ln2, 2^-25 and the
  // k = 23 and k = 57 switches (22.5 and 56.5 ln2), each also halved,
  // since tanhf calls expm1f(+-2|x|); k = -3 at 2|x| = 2.5 ln2. expf's
  // slow-path filter: |x| >= 88.
  const std::uint32_t thresholds[] = {
      0x41b00000, 0x3f800000, 0x24000000, 0x4195b844, 0x3eb17218,
      0x3f851592, 0x33000000, 0x41798872, 0x421ca6b9, 0x4115b844,
      0x3e317218, 0x3f051592, 0x32800000, 0x40f98872, 0x419ca6b9,
      0x3f5dce9e, 0x42b00000};
  for (std::uint32_t s : specials)
    for (std::uint32_t sign : {0u, 0x80000000u}) bits.push_back(s | sign);
  for (std::uint32_t t : thresholds)
    for (std::uint32_t sign : {0u, 0x80000000u})
      for (std::uint32_t d = 0; d <= 8; ++d) bits.push_back((t - 4 + d) | sign);
  std::shuffle(bits.begin(), bits.end(), std::mt19937(2021));
  std::vector<float> xs(bits.size());
  std::memcpy(xs.data(), bits.data(), bits.size() * sizeof(float));
  return xs;
}

/// The sweep (17M floats), built once per test binary.
const std::vector<float>& sweepInputs() {
  static const std::vector<float> xs = buildSweep();
  return xs;
}

/// Counts positions where got differs from oracle(in) in any bit, and
/// records the first few inputs.
template <class Oracle>
std::size_t countMismatches(const std::vector<float>& in,
                            const std::vector<float>& got, Oracle oracle,
                            std::vector<std::uint32_t>* firstBad) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (bitsOf(oracle(in[i])) == bitsOf(got[i])) continue;
    if (bad++ < 5) firstBad->push_back(bitsOf(in[i]));
  }
  return bad;
}

float libmTanh(float x) { return std::tanh(x); }

}  // namespace

TEST(NnGates, TanhMatchesLibmBitwise) {
  const std::vector<float>& xs = sweepInputs();
  std::vector<float> got = xs;
  nn::tanhInPlace(got.data(), got.size());
  std::vector<std::uint32_t> firstBad;
  EXPECT_EQ(countMismatches(xs, got, libmTanh, &firstBad), 0u);
  for (std::uint32_t b : firstBad) ADD_FAILURE() << std::hex << "x = 0x" << b;
}

TEST(NnGates, SigmoidMatchesScalarBitwise) {
  const std::vector<float>& xs = sweepInputs();
  std::vector<float> got = xs;
  nn::sigmoidInPlace(got.data(), got.size());
  std::vector<std::uint32_t> firstBad;
  EXPECT_EQ(countMismatches(xs, got, nn::sigmoid, &firstBad), 0u);
  for (std::uint32_t b : firstBad) ADD_FAILURE() << std::hex << "x = 0x" << b;
}

TEST(NnGates, TailsAndOffsetsMatchScalar) {
  // Every length and start offset around the vector width, so scalar tails
  // and unaligned loads are covered; one lane at |x| >= 88 sends its
  // sigmoid vector down the scalar path.
  Rng rng(3);
  std::vector<float> base(40);
  for (float& v : base) v = static_cast<float>(rng.uniformReal(-30, 30));
  base[13] = 95.0f;
  for (std::size_t off = 0; off < 8; ++off)
    for (std::size_t n = 0; n + off <= base.size(); ++n) {
      std::vector<float> t(base.begin() + off, base.begin() + off + n);
      std::vector<float> s = t;
      nn::tanhInPlace(t.data(), n);
      nn::sigmoidInPlace(s.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bitsOf(t[i]), bitsOf(std::tanh(base[off + i])));
        EXPECT_EQ(bitsOf(s[i]), bitsOf(nn::sigmoid(base[off + i])));
      }
    }
}

TEST(NnGates, InPlaceEqualsOutOfPlace) {
  const std::vector<float>& xs = sweepInputs();
  std::vector<float> out(xs.size());
  nn::tanhOf(xs.data(), out.data(), xs.size());
  std::vector<float> inPlace = xs;
  nn::tanhInPlace(inPlace.data(), inPlace.size());
  EXPECT_EQ(std::memcmp(out.data(), inPlace.data(), out.size() * sizeof(float)),
            0);
}

TEST(NnGates, LstmGatesMatchScalarFormula) {
  // The pre-kernel gate loop, element by element, is the oracle. This file
  // is built with -ffp-contract=off like gates.cpp, so the products here
  // round separately too.
  Rng rng(4);
  for (std::size_t hd : {5u, 24u, 32u}) {
    std::vector<float> z(4 * hd), h(hd), c(hd);
    for (float& v : z) v = static_cast<float>(rng.uniformReal(-6, 6));
    for (float& v : c) v = static_cast<float>(rng.uniformReal(-3, 3));
    std::vector<float> hRef(hd), cRef = c;
    for (std::size_t j = 0; j < hd; ++j) {
      const float ig = nn::sigmoid(z[j]);
      const float fg = nn::sigmoid(z[hd + j]);
      const float gg = std::tanh(z[2 * hd + j]);
      const float og = nn::sigmoid(z[3 * hd + j]);
      cRef[j] = fg * cRef[j] + ig * gg;
      hRef[j] = og * std::tanh(cRef[j]);
    }
    nn::lstmGates(z.data(), h.data(), c.data(), hd);
    for (std::size_t j = 0; j < hd; ++j) {
      EXPECT_EQ(h[j], hRef[j]) << "hd " << hd << " j " << j;
      EXPECT_EQ(c[j], cRef[j]) << "hd " << hd << " j " << j;
    }
  }
}

TEST(NnGates, BatchStepRowsEqualSingleSteps) {
  // hd 5 and 24 leave scalar tails on every gate segment; 32 does not.
  for (std::size_t hd : {5u, 24u, 32u}) {
    Rng rng(5 + hd);
    nn::ParamStore store;
    const std::size_t in = 6, batch = 7;
    nn::Lstm lstm(in, hd, store, rng);
    std::vector<float> x(batch * in);
    for (float& v : x) v = static_cast<float>(rng.uniformReal(-4, 4));
    for (bool masked : {false, true}) {
      std::vector<std::uint8_t> active(batch);
      for (std::size_t b = 0; b < batch; ++b)
        active[b] = masked ? static_cast<std::uint8_t>(b % 3 != 1) : 1;
      std::vector<float> h(batch * hd, 0.25f), c(batch * hd, -0.5f);
      std::vector<float> hOne = h, cOne = c;
      nn::InferenceScratch scratch;
      for (int step = 0; step < 3; ++step) {
        nn::lstmStepBatchFast(lstm, x.data(), batch, h.data(), c.data(),
                              scratch, masked ? active.data() : nullptr);
        for (std::size_t b = 0; b < batch; ++b)
          if (active[b])
            nn::lstmStepFast(lstm, x.data() + b * in, hOne.data() + b * hd,
                             cOne.data() + b * hd, scratch);
      }
      for (std::size_t k = 0; k < batch * hd; ++k) {
        EXPECT_EQ(h[k], hOne[k]) << "hd " << hd << " masked " << masked;
        EXPECT_EQ(c[k], cOne[k]) << "hd " << hd << " masked " << masked;
      }
    }
  }
}

TEST(NnGates, DISABLED_Exhaustive) {
  // All 2^32 inputs of both kernels against their scalar oracles, in
  // blocks of 64k floats over 4 threads (~40 s on a 4-core x86 host).
  constexpr std::uint64_t kBlock = 1 << 16;
  constexpr unsigned kThreads = 4;
  std::atomic<std::uint64_t> tanhBad{0}, sigmoidBad{0};
  std::mutex firstMu;
  std::vector<std::uint32_t> firstBad;
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < kThreads; ++w)
    workers.emplace_back([&, w] {
      std::vector<float> in(kBlock), th(kBlock), sg(kBlock);
      for (std::uint64_t base = w * kBlock; base < (1ull << 32);
           base += kThreads * kBlock) {
        for (std::uint64_t i = 0; i < kBlock; ++i)
          in[i] = fromBits(static_cast<std::uint32_t>(base + i));
        nn::tanhOf(in.data(), th.data(), kBlock);
        sg = in;
        nn::sigmoidInPlace(sg.data(), kBlock);
        for (std::uint64_t i = 0; i < kBlock; ++i) {
          const bool t = bitsOf(th[i]) != bitsOf(std::tanh(in[i]));
          const bool s = bitsOf(sg[i]) != bitsOf(nn::sigmoid(in[i]));
          if (!t && !s) continue;
          tanhBad += t;
          sigmoidBad += s;
          std::lock_guard<std::mutex> lock(firstMu);
          if (firstBad.size() < 10) firstBad.push_back(bitsOf(in[i]));
        }
      }
    });
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(tanhBad.load(), 0u);
  EXPECT_EQ(sigmoidBad.load(), 0u);
  for (std::uint32_t b : firstBad) ADD_FAILURE() << std::hex << "x = 0x" << b;
}
