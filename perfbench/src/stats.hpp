// The benchmark's own arithmetic: order statistics under the percentile
// rule, and the attribution of a root span's wall time to its child layers.
// Both are self-tested on every run (selftest.cpp) before any number is
// reported.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile (p in [0, 100]) of `v`; 0 for empty input.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// Samples strictly beyond the p-th percentile's rank in a sample of n:
/// n - ceil(p * n / 100).
std::size_t samplesBeyond(std::size_t n, double p);

/// The percentile rule: the highest percentile of a sample of n that keeps
/// at least `minTail` samples beyond it, 100 * (n - minTail) / n (0 when
/// n <= minTail). A reported tail percentile p is valid iff
/// samplesBeyond(n, p) >= minTail.
double highestPercentileWithTail(std::size_t n, std::size_t minTail = 10);

/// A ratio kept with its base, so every printed fraction names what it
/// divides by.
struct Ratio {
  double num = 0.0;
  double den = 0.0;
  double value() const { return den > 0.0 ? num / den : 0.0; }
};

// ---- span attribution -------------------------------------------------------

/// Number of span layers the attribution distinguishes (see trace.hpp).
inline constexpr std::size_t kMaxLayers = 16;

/// One closed interval [start, end] (seconds) of a child span and its layer.
struct Interval {
  double start = 0.0;
  double end = 0.0;
  std::size_t layer = 0;
};

/// A root span's wall time split exactly between its direct children and
/// itself. Children may overlap (island threads run concurrently): each
/// instant covered by k child spans is split equally between them, and an
/// instant covered by none is the root's self time. So
/// self + sum(layer) == duration up to rounding, whatever the overlap.
struct Attribution {
  double duration = 0.0;
  double self = 0.0;
  std::array<double, kMaxLayers> layer{};
  /// Child spans that stick out of the root's interval (a tracing bug;
  /// their outside part is ignored).
  std::size_t outside = 0;
};

Attribution attribute(double rootStart, double rootEnd,
                      const std::vector<Interval>& children);

/// Runs every arithmetic self-test; returns the failures (empty = pass).
std::vector<std::string> selfTest();

}  // namespace perfbench
