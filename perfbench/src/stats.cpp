#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

std::size_t samplesBeyond(std::size_t n, double p) {
  // The tolerance keeps ceil() from rounding an exact rank such as
  // 80% of 60 = 48 up to 49 through floating-point error.
  const double rank =
      std::clamp(p, 0.0, 100.0) * static_cast<double>(n) / 100.0;
  const auto atOrBelow = static_cast<std::size_t>(std::ceil(rank - 1e-7));
  return atOrBelow >= n ? 0 : n - atOrBelow;
}

double highestPercentileWithTail(std::size_t n, std::size_t minTail) {
  if (n <= minTail) return 0.0;
  return 100.0 * static_cast<double>(n - minTail) / static_cast<double>(n);
}

Attribution attribute(double rootStart, double rootEnd,
                      const std::vector<Interval>& children) {
  Attribution a;
  a.duration = std::max(0.0, rootEnd - rootStart);
  struct Event {
    double t;
    int delta;  // +1 open, -1 close
    std::size_t layer;
  };
  std::vector<Event> events;
  events.reserve(children.size() * 2);
  for (const Interval& c : children) {
    if (c.start < rootStart || c.end > rootEnd) ++a.outside;
    const double s = std::max(c.start, rootStart);
    const double e = std::min(c.end, rootEnd);
    if (e <= s) continue;
    events.push_back({s, +1, c.layer});
    events.push_back({e, -1, c.layer});
  }
  // Closes sort before opens at equal times, so back-to-back spans never
  // count as overlapping.
  std::sort(events.begin(), events.end(), [](const Event& x, const Event& y) {
    return x.t != y.t ? x.t < y.t : x.delta < y.delta;
  });
  std::array<std::size_t, kMaxLayers> open{};
  std::size_t active = 0;
  double t = rootStart;
  for (const Event& ev : events) {
    const double dt = ev.t - t;
    if (dt > 0.0) {
      if (active == 0) {
        a.self += dt;
      } else {
        for (std::size_t l = 0; l < kMaxLayers; ++l)
          if (open[l] > 0)
            a.layer[l] += dt * static_cast<double>(open[l]) /
                          static_cast<double>(active);
      }
    }
    t = ev.t;
    if (ev.delta > 0) {
      ++open[ev.layer];
      ++active;
    } else {
      --open[ev.layer];
      --active;
    }
  }
  a.self += rootEnd - t > 0.0 ? rootEnd - t : 0.0;
  return a;
}

}  // namespace perfbench
