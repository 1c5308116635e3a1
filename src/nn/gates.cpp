#include "nn/gates.hpp"

#include <cstdint>

#if defined(NETSYN_SIMD) && defined(__AVX2__)
#define NETSYN_GATES_AVX2 1
#include <immintrin.h>
#endif

// The vector kernels are exact only if every multiply and add rounds
// separately, as in the libm they transcribe: this file is built with
// -ffp-contract=off (CMakeLists.txt), and the one FMA kernel spells each
// fused step as an explicit _mm256_fmadd_pd.

namespace netsyn::nn {
namespace {

#if NETSYN_GATES_AVX2

using F8 = __m256;
using I8 = __m256i;

inline F8 splat(float v) { return _mm256_set1_ps(v); }
inline F8 splatBits(std::uint32_t b) {
  return _mm256_castsi256_ps(_mm256_set1_epi32(static_cast<int>(b)));
}
inline I8 splatI(std::int32_t v) { return _mm256_set1_epi32(v); }
inline I8 bitsOf(F8 v) { return _mm256_castps_si256(v); }
inline F8 fromBits(I8 v) { return _mm256_castsi256_ps(v); }
inline F8 negate(F8 v) { return _mm256_xor_ps(v, splatBits(0x80000000u)); }

/// Per 32-bit lane: m ? a : b, for masks of all ones or all zeros.
inline F8 pick(I8 m, F8 a, F8 b) {
  return _mm256_blendv_ps(b, a, _mm256_castsi256_ps(m));
}
inline I8 pickI(I8 m, I8 a, I8 b) { return _mm256_blendv_epi8(b, a, m); }
inline I8 below(I8 a, std::int32_t bound) {  // a < bound, signed
  return _mm256_cmpgt_epi32(splatI(bound), a);
}
inline I8 atLeast(I8 a, std::int32_t bound) {  // a >= bound, signed
  return _mm256_cmpgt_epi32(a, splatI(bound - 1));
}
inline I8 between(I8 a, std::int32_t lo, std::int32_t hi) {  // lo <= a <= hi
  return _mm256_andnot_si256(below(a, lo), below(a, hi + 1));
}
inline I8 equals(I8 a, std::int32_t v) {
  return _mm256_cmpeq_epi32(a, splatI(v));
}

inline F8 add(F8 a, F8 b) { return _mm256_add_ps(a, b); }
inline F8 sub(F8 a, F8 b) { return _mm256_sub_ps(a, b); }
inline F8 mul(F8 a, F8 b) { return _mm256_mul_ps(a, b); }
inline F8 div(F8 a, F8 b) { return _mm256_div_ps(a, b); }

/// fdlibm expm1f (glibc's sysdeps/ieee754/flt-32/s_expm1f.c) on 8 lanes.
/// Every branch is computed and each lane takes its own. Valid for finite
/// x below the overflow threshold 0x42b17218; tanhf8 passes |x| < 44.
inline F8 expm1f8(F8 x) {
  const F8 ln2Hi = splatBits(0x3f317180), ln2Lo = splatBits(0x3717f7d1);
  const F8 invLn2 = splatBits(0x3fb8aa3b);
  const F8 q1 = splatBits(0xbd088889), q2 = splatBits(0x3ad00d01),
           q3 = splatBits(0xb8a670cd), q4 = splatBits(0x36867e54),
           q5 = splatBits(0xb457edbb);
  const F8 one = splat(1.0f), half = splat(0.5f);

  const I8 hx = _mm256_and_si256(bitsOf(x), splatI(0x7fffffff));
  const I8 neg = _mm256_srai_epi32(bitsOf(x), 31);

  // Argument reduction x = k*ln2 + r (+ correction c): k = 0 for |x| <=
  // 0.5 ln2, +-1 below 1.5 ln2, else invln2*x rounded half away from 0.
  I8 k = _mm256_cvttps_epi32(
      add(mul(invLn2, x), pick(neg, splat(-0.5f), half)));
  k = pickI(below(hx, 0x3F851592), _mm256_or_si256(neg, splatI(1)), k);
  k = _mm256_andnot_si256(below(hx, 0x3eb17219), k);
  const F8 t = _mm256_cvtepi32_ps(k);
  const F8 hi = sub(x, mul(t, ln2Hi));
  const F8 lo = mul(t, ln2Lo);
  const F8 r = sub(hi, lo);
  const F8 c = sub(sub(hi, r), lo);

  // Primary range.
  const F8 hfx = mul(half, r);
  const F8 hxs = mul(r, hfx);
  F8 r1 = add(q4, mul(hxs, q5));
  r1 = add(q3, mul(hxs, r1));
  r1 = add(q2, mul(hxs, r1));
  r1 = add(q1, mul(hxs, r1));
  r1 = add(one, mul(hxs, r1));
  const F8 tt = sub(splat(3.0f), mul(r1, hfx));
  F8 e = mul(hxs, div(sub(r1, tt), sub(splat(6.0f), mul(r, tt))));
  const F8 yK0 = sub(r, sub(mul(r, e), hxs));
  e = sub(sub(mul(r, sub(e, c)), c), hxs);
  const F8 yKm1 = sub(mul(half, sub(r, e)), half);
  const F8 yK1 = pick(bitsOf(_mm256_cmp_ps(r, splat(-0.25f), _CMP_LT_OQ)),
                      mul(splat(-2.0f), sub(e, add(r, half))),
                      add(one, mul(splat(2.0f), sub(r, e))));
  // k >= 2 and the tails scale y by 2^k through its exponent bits.
  const I8 kExp = _mm256_slli_epi32(k, 23);
  const auto scale = [&](F8 y) {
    return fromBits(_mm256_add_epi32(bitsOf(y), kExp));
  };
  const F8 yTail = sub(scale(sub(one, sub(e, r))), one);
  const F8 tLow = fromBits(_mm256_sub_epi32(
      splatI(0x3f800000), _mm256_srlv_epi32(splatI(0x1000000), k)));
  const F8 yLow = scale(sub(tLow, sub(e, r)));
  const F8 tHigh =
      fromBits(_mm256_slli_epi32(_mm256_sub_epi32(splatI(0x7f), k), 23));
  const F8 yHigh = scale(add(sub(r, add(e, tHigh)), one));

  F8 y = yTail;  // k <= -2 or k > 56
  y = pick(between(k, 2, 22), yLow, y);
  y = pick(between(k, 23, 56), yHigh, y);
  y = pick(equals(k, 1), yK1, y);
  y = pick(equals(k, -1), yKm1, y);
  y = pick(equals(k, 0), yK0, y);
  y = pick(below(hx, 0x33000000), x, y);  // |x| < 2^-25
  // x <= -27 ln2: tiny - one, which rounds to -1.
  return pick(_mm256_and_si256(neg, atLeast(hx, 0x4195b844)), splat(-1.0f),
              y);
}

/// fdlibm tanhf (glibc's sysdeps/ieee754/flt-32/s_tanhf.c) on 8 lanes.
inline F8 tanhf8(F8 x) {
  const I8 ix = _mm256_and_si256(bitsOf(x), splatI(0x7fffffff));
  const F8 ax = fromBits(ix);
  // |x| >= 1: 1 - 2/(t+2) with t = expm1(2|x|); else -t/(t+2) with
  // t = expm1(-2|x|). One expm1 serves both, lane by lane.
  const I8 geOne = atLeast(ix, 0x3f800000);
  const F8 two = splat(2.0f), one = splat(1.0f);
  const F8 t = expm1f8(pick(geOne, mul(two, ax), mul(splat(-2.0f), ax)));
  const F8 t2 = add(t, two);
  F8 z = pick(geOne, sub(one, div(two, t2)), div(negate(t), t2));
  z = pick(atLeast(ix, 0x41b00000), one, z);  // |x| >= 22: one - tiny
  z = pick(_mm256_srai_epi32(bitsOf(x), 31), negate(z), z);
  // |x| < 2^-55: x * (1 + x); NaN: x + x.
  z = pick(below(ix, 0x24000000), mul(x, add(one, x)), z);
  return pick(_mm256_cmpgt_epi32(ix, splatI(0x7f800000)), add(x, x), z);
}

/// glibc's __exp2f_data.tab: bits(2^(i/32)) - (i << 47), i.e. the correctly
/// rounded double with the index's share of the exponent taken out.
alignas(32) constexpr long long kExp2Tab[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540};

/// glibc's expf (sysdeps/ieee754/flt-32/e_expf.c) as its FMA ifunc variant
/// computes it, on 4 lanes in double. Only for |x| < 88 (no special cases).
__attribute__((target("avx2,fma"))) inline __m128 expf4(__m128 x) {
  const __m256d invLn2N = _mm256_set1_pd(0x1.71547652b82fep+5);
  const __m256d shift = _mm256_set1_pd(0x1.8p+52);
  const __m256d xd = _mm256_cvtps_pd(x);
  // x*32/ln2 = k + r with k rounded to nearest through the shift constant.
  __m256d kd = _mm256_fmadd_pd(invLn2N, xd, shift);
  const __m256i ki = _mm256_castpd_si256(kd);
  kd = _mm256_sub_pd(kd, shift);
  const __m256d r = _mm256_fmsub_pd(invLn2N, xd, kd);
  // s = 2^(k/32) from the table plus k's integer part in the exponent.
  const __m256i idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
  const __m256i tbits =
      _mm256_add_epi64(_mm256_i64gather_epi64(kExp2Tab, idx, 8),
                       _mm256_slli_epi64(ki, 47));
  const __m256d s = _mm256_castsi256_pd(tbits);
  const __m256d z = _mm256_fmadd_pd(_mm256_set1_pd(0x1.c6af84b912394p-20), r,
                                    _mm256_set1_pd(0x1.ebfce50fac4f3p-13));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d y = _mm256_fmadd_pd(_mm256_set1_pd(0x1.62e42ff0c52d6p-6), r,
                              _mm256_set1_pd(1.0));
  y = _mm256_fmadd_pd(z, r2, y);
  return _mm256_cvtpd_ps(_mm256_mul_pd(y, s));
}

/// sigmoid on 8 lanes: (x >= 0 ? 1 : e) / (1 + e) with e = exp(-|x|), the
/// value nn::sigmoid computes on either branch. A vector holding any lane
/// that expf would send down its slow path (|x| >= 88, inf, NaN) runs the
/// scalar expression instead.
__attribute__((target("avx2,fma"))) void sigmoidAvx2Fma(float* x,
                                                       std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const F8 v = _mm256_loadu_ps(x + i);
    const I8 ia = _mm256_and_si256(bitsOf(v), splatI(0x7fffffff));
    if (_mm256_movemask_ps(fromBits(atLeast(ia, 0x42b00000))) != 0) {
      for (std::size_t j = i; j < i + 8; ++j) x[j] = sigmoid(x[j]);
      continue;
    }
    const F8 negAbs = fromBits(_mm256_or_si256(ia, splatI(INT32_MIN)));
    const F8 e = _mm256_set_m128(expf4(_mm256_extractf128_ps(negAbs, 1)),
                                 expf4(_mm256_castps256_ps128(negAbs)));
    const F8 num = _mm256_blendv_ps(
        e, splat(1.0f), _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GE_OQ));
    _mm256_storeu_ps(x + i, div(num, add(splat(1.0f), e)));
  }
  for (; i < n; ++i) x[i] = sigmoid(x[i]);
}

/// The libm expf this reproduces is its FMA variant, which glibc selects
/// only on CPUs with FMA; elsewhere the sigmoid stays scalar.
bool cpuHasFma() {
  static const bool has = __builtin_cpu_supports("fma");
  return has;
}

#endif  // NETSYN_GATES_AVX2

}  // namespace

void sigmoidInPlace(float* x, std::size_t n) {
#if NETSYN_GATES_AVX2
  if (cpuHasFma()) {
    sigmoidAvx2Fma(x, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) x[i] = sigmoid(x[i]);
}

void tanhOf(const float* x, float* out, std::size_t n) {
  std::size_t i = 0;
#if NETSYN_GATES_AVX2
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(out + i, tanhf8(_mm256_loadu_ps(x + i)));
#endif
  for (; i < n; ++i) out[i] = std::tanh(x[i]);
}

void lstmGates(float* z, float* h, float* c, std::size_t hd) {
  float* ig = z;
  float* fg = z + hd;
  float* gg = z + 2 * hd;
  float* og = z + 3 * hd;
  sigmoidInPlace(ig, 2 * hd);  // [i | f]
  tanhInPlace(gg, hd);
  sigmoidInPlace(og, hd);
  for (std::size_t j = 0; j < hd; ++j) c[j] = fg[j] * c[j] + ig[j] * gg[j];
  tanhOf(c, gg, hd);  // g is spent; its slot takes tanh(c)
  for (std::size_t j = 0; j < hd; ++j) h[j] = og[j] * gg[j];
}

}  // namespace netsyn::nn
