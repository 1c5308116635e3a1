// Bench-baseline comparison: the logic behind the CI perf-regression gate.
//
// The bench binaries emit machine-readable records (BENCH_interpreter.json,
// BENCH_nn.json, BENCH_islands.json); snapshots of known-good runs live in
// bench/baselines/. compareBenchRecords() lines a fresh record up against
// its snapshot, metric by metric, and the gate (bench/bench_gate.cpp) fails
// the job when a gated metric regresses beyond the tolerance.
//
// Gating policy — gated metrics must survive a change of machine, because
// the committed snapshot and the CI runner are rarely the same hardware:
//   - "speedup" ratios are gated. Each bench times its subject against an
//     in-process reference on the same machine in the same run (the
//     interpreter bench against the frozen PR 1 interpreter, the NN bench
//     scalar vs batched), so the ratio cancels the machine out: a >15%
//     speedup drop means the subject path itself got slower relative to
//     its fixed reference — a genes/sec regression in machine-independent
//     units.
//   - solve counts are gated: deterministic for a fixed config, so any
//     drop is an algorithmic change, not noise.
//   - absolute genes/sec and wall-clock rates are informational only: they
//     track the raw trajectory but swing with the host, so failing on
//     them would fail every hardware change.
#pragma once

#include <string>
#include <vector>

namespace netsyn::util {

struct BenchDelta {
  std::string metric;
  double baseline = 0.0;
  double fresh = 0.0;
  bool higherIsBetter = true;
  bool gated = true;  ///< informational rows never fail the gate

  /// Absolute floor for gated higher-is-better rows (0 = none): the row
  /// fails whenever fresh < floor, regardless of how the baseline moved.
  /// Used for ratios that carry a hard acceptance bar (the SIMD lane view
  /// must stay >= 1.5x the scalar engine), where drifting the committed
  /// baseline downward must not quietly lower the bar.
  double floor = 0.0;

  /// fresh/baseline - 1, signed so that positive is "more" (not "better").
  double change() const {
    return baseline == 0.0 ? 0.0 : fresh / baseline - 1.0;
  }

  /// True when this row fails at `tolerance` (e.g. 0.15 = 15%). A zero
  /// baseline can't regress (a solved-count of 0 has nothing to lose) —
  /// but a floor still applies.
  bool regressed(double tolerance) const {
    if (!gated) return false;
    if (floor > 0.0 && fresh < floor) return true;
    if (baseline == 0.0) return false;
    return higherIsBetter ? fresh < baseline * (1.0 - tolerance)
                          : fresh > baseline * (1.0 + tolerance);
  }
};

struct BenchComparison {
  std::string bench;  ///< the records' "bench" tag
  std::vector<BenchDelta> rows;

  bool anyRegression(double tolerance) const {
    for (const BenchDelta& d : rows)
      if (d.regressed(tolerance)) return true;
    return false;
  }
};

/// Compares two bench records of the same kind ("interpreter",
/// "nn_scoring", "islands" or "strdsl"). Throws
/// std::invalid_argument on malformed JSON, unknown bench tags, or a tag
/// mismatch between the two records.
BenchComparison compareBenchRecords(const std::string& baselineJson,
                                    const std::string& freshJson);

/// GitHub-flavored markdown table of the comparison (one row per metric,
/// status column ok / REGRESSED / info) — what the CI job appends to its
/// step summary.
std::string renderMarkdown(const BenchComparison& cmp, double tolerance);

}  // namespace netsyn::util
