// Self-tests of the benchmark's own arithmetic, run at the start of every
// benchmark run (and alone with --self-test): the percentile rule, span
// self-time subtraction with nested and multi-threaded children, and ratios
// that keep their base.
#include <cmath>
#include <cstdio>
#include <thread>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

struct Checker {
  std::vector<std::string> failures;
  void near(double got, double want, const char* what) {
    if (std::abs(got - want) > 1e-9 * std::max(1.0, std::abs(want))) {
      char buf[200];
      std::snprintf(buf, sizeof buf, "%s: got %.12g, want %.12g", what, got,
                    want);
      failures.push_back(buf);
    }
  }
  void check(bool ok, const char* what) {
    if (!ok) failures.emplace_back(what);
  }
};

void percentileRule(Checker& c) {
  std::vector<double> v;
  for (int i = 1; i <= 60; ++i) v.push_back(i);
  c.near(median(v), 30.5, "median of 1..60");
  c.near(percentile(v, 80), 48.2, "p80 of 1..60 (linear interpolation)");
  c.near(percentile({7.0}, 95), 7.0, "percentile of one sample");
  c.near(percentile({}, 50), 0.0, "percentile of no samples");
  // n = 60: p80 keeps 12 beyond it; p95 keeps 3 and is not reportable.
  c.check(samplesBeyond(60, 80) == 12, "samplesBeyond(60, p80) == 12");
  c.check(samplesBeyond(64, 80) == 12, "samplesBeyond(64, p80) == 12");
  c.check(samplesBeyond(60, 95) == 3, "samplesBeyond(60, p95) == 3");
  c.check(samplesBeyond(400, 95) == 20, "samplesBeyond(400, p95) == 20");
  c.check(samplesBeyond(400, 97.5) == 10, "samplesBeyond(400, p97.5) == 10");
  c.check(samplesBeyond(10, 50) == 5, "samplesBeyond(10, p50) == 5");
  c.near(highestPercentileWithTail(60), 100.0 * 50 / 60, "highest p, n=60");
  c.near(highestPercentileWithTail(400), 97.5, "highest p, n=400");
  c.near(highestPercentileWithTail(10), 0.0, "highest p, n=10");
  // The rule's answer always keeps its tail.
  for (std::size_t n : {11u, 37u, 60u, 64u, 400u, 1001u})
    c.check(samplesBeyond(n, highestPercentileWithTail(n)) >= 10,
            "highest percentile keeps >= 10 samples beyond it");
}

void spanAttribution(Checker& c) {
  // Nothing below the root: all self time.
  Attribution a = attribute(0.0, 4.0, {});
  c.near(a.self, 4.0, "empty root self");
  // Sequential children of two layers: self is the gaps.
  a = attribute(0.0, 10.0, {{1.0, 3.0, 1}, {3.0, 4.0, 2}, {6.0, 9.0, 1}});
  c.near(a.layer[1], 5.0, "sequential layer 1");
  c.near(a.layer[2], 1.0, "sequential layer 2");
  c.near(a.self, 4.0, "sequential self");
  // Two threads overlapping on [2, 4): each instant is split equally, so
  // children + self still equal the root's duration.
  a = attribute(0.0, 10.0, {{0.0, 4.0, 1}, {2.0, 6.0, 3}});
  c.near(a.layer[1], 2.0 + 1.0, "overlap layer 1");
  c.near(a.layer[3], 1.0 + 2.0, "overlap layer 3");
  c.near(a.self, 4.0, "overlap self");
  c.near(a.self + a.layer[1] + a.layer[3], a.duration, "overlap sums");
  // A child outside the root is clipped and counted.
  a = attribute(1.0, 2.0, {{0.5, 1.5, 1}});
  c.check(a.outside == 1, "child outside root counted");
  c.near(a.layer[1], 0.5, "outside child clipped");

  // The recorder itself: a root with a nested child on its own thread and
  // two children on other threads. Nested spans are charged to their
  // direct parent, so only direct children enter the root's attribution.
  Tracer& t = Tracer::instance();
  const bool was = t.enabled();
  t.clear();
  t.setEnabled(true);
  {
    ScopedSpan root(Layer::Synthesize);
    {
      ScopedSpan child(Layer::GradeNn, 3);
      ScopedSpan nested(Layer::Encode, 1);
    }
    std::thread a1([] { ScopedSpan s(Layer::GradeEdit, 2); });
    std::thread a2([] { ScopedSpan s(Layer::GradeEdit, 2); });
    a1.join();
    a2.join();
  }
  t.setEnabled(was);
  const std::vector<Span> spans = t.collect();
  t.clear();
  const Span* root = nullptr;
  const Span* grade = nullptr;
  for (const Span& s : spans) {
    if (s.layer == Layer::Synthesize) root = &s;
    if (s.layer == Layer::GradeNn) grade = &s;
  }
  c.check(spans.size() == 5 && root && grade, "recorder kept five spans");
  if (!root || !grade) return;
  std::vector<Interval> direct;
  std::size_t crossThread = 0;
  for (const Span& s : spans) {
    if (s.layer == Layer::Encode)
      c.check(s.parent == grade->id, "nested span parented to its caller");
    if (s.parent != root->id) continue;
    direct.push_back({s.start, s.end, static_cast<std::size_t>(s.layer)});
    if (s.thread != root->thread) ++crossThread;
  }
  c.check(direct.size() == 3, "three direct children");
  c.check(crossThread == 2, "children on other threads find the root");
  const Attribution ra = attribute(root->start, root->end, direct);
  // The grade child ran before the other threads started, so nothing
  // overlapped it: it is attributed its whole duration.
  c.near(ra.layer[static_cast<std::size_t>(Layer::GradeNn)],
         grade->end - grade->start, "same-thread child keeps its duration");
  c.check(ra.outside == 0, "recorded children inside root");
}

void ratios(Checker& c) {
  c.near(Ratio{3, 4}.value(), 0.75, "ratio value");
  c.near(Ratio{5, 0}.value(), 0.0, "ratio with empty base");
}

}  // namespace

std::vector<std::string> selfTest() {
  Checker c;
  percentileRule(c);
  spanAttribution(c);
  ratios(c);
  return c.failures;
}

}  // namespace perfbench
