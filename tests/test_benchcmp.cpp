// Bench-gate comparison tests: the CI perf gate must trip on a 20%
// regression of any gated metric (the acceptance demonstration), tolerate
// noise inside the tolerance, ignore informational rows, and be loud about
// malformed or mismatched records.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "util/benchcmp.hpp"

namespace nu = netsyn::util;

namespace {

const char* kInterp =
    "{\"bench\": \"interpreter\", \"legacy_genes_per_sec\": 100000.0, "
    "\"engine_genes_per_sec\": 400000.0, \"speedup\": 4.0}";

const char* kNn =
    "{\"bench\": \"nn_scoring\", \"scalar_genes_per_sec\": 2000.0, "
    "\"batched_genes_per_sec\": 10000.0, \"speedup\": 5.0}";

const char* kIslands =
    "{\"bench\": \"islands\", \"sweep\": ["
    "{\"islands\": 1, \"solved\": 3, \"solved_per_sec\": 120.0}, "
    "{\"islands\": 4, \"solved\": 4, \"solved_per_sec\": 90.0}]}";

}  // namespace

TEST(BenchCmp, IdentityPassesEveryGate) {
  for (const char* record : {kInterp, kNn, kIslands}) {
    const auto cmp = nu::compareBenchRecords(record, record);
    EXPECT_FALSE(cmp.anyRegression(0.15)) << record;
    EXPECT_FALSE(cmp.anyRegression(0.0)) << record;
  }
}

TEST(BenchCmp, TwentyPercentThroughputRegressionTripsTheGate) {
  // The acceptance demonstration: the engine path losing 20% genes/sec
  // against the frozen legacy reference (same machine, same run) must fail
  // the 15% gate — and still pass a hypothetical 25% gate.
  const std::string fresh =
      "{\"bench\": \"interpreter\", \"legacy_genes_per_sec\": 100000.0, "
      "\"engine_genes_per_sec\": 320000.0, \"speedup\": 3.2}";
  const auto cmp = nu::compareBenchRecords(kInterp, fresh);
  EXPECT_TRUE(cmp.anyRegression(0.15));
  EXPECT_FALSE(cmp.anyRegression(0.25));
  EXPECT_NE(nu::renderMarkdown(cmp, 0.15).find("REGRESSED"),
            std::string::npos);
}

TEST(BenchCmp, UniformMachineSlowdownDoesNotTrip) {
  // The committed baseline and the CI runner are different machines: when
  // both the engine and its frozen reference halve together (slower host,
  // noisy neighbor), the speedup ratio is unchanged and the gate must not
  // fire — only relative regressions are build-breaking.
  const std::string slowHost =
      "{\"bench\": \"interpreter\", \"legacy_genes_per_sec\": 50000.0, "
      "\"engine_genes_per_sec\": 200000.0, \"speedup\": 4.0}";
  EXPECT_FALSE(nu::compareBenchRecords(kInterp, slowHost).anyRegression(0.15));

  const std::string slowNn =
      "{\"bench\": \"nn_scoring\", \"scalar_genes_per_sec\": 1000.0, "
      "\"batched_genes_per_sec\": 5000.0, \"speedup\": 5.0}";
  EXPECT_FALSE(nu::compareBenchRecords(kNn, slowNn).anyRegression(0.15));
}

TEST(BenchCmp, TenPercentNoiseStaysInsideTheGate) {
  const std::string fresh =
      "{\"bench\": \"nn_scoring\", \"scalar_genes_per_sec\": 1800.0, "
      "\"batched_genes_per_sec\": 9000.0, \"speedup\": 5.0}";
  EXPECT_FALSE(nu::compareBenchRecords(kNn, fresh).anyRegression(0.15));
}

TEST(BenchCmp, ImprovementsNeverTrip) {
  const std::string fresh =
      "{\"bench\": \"interpreter\", \"legacy_genes_per_sec\": 100000.0, "
      "\"engine_genes_per_sec\": 800000.0, \"speedup\": 8.0}";
  EXPECT_FALSE(nu::compareBenchRecords(kInterp, fresh).anyRegression(0.15));
}

TEST(BenchCmp, InformationalRowsNeverTrip) {
  // Absolute genes/sec rows are informational: the batched NN path
  // halving *together with* its scalar reference (pure host effect) keeps
  // the gated ratio intact even though every absolute row dropped.
  const std::string fresh =
      "{\"bench\": \"nn_scoring\", \"scalar_genes_per_sec\": 900.0, "
      "\"batched_genes_per_sec\": 4600.0, \"speedup\": 5.1}";
  const auto cmp = nu::compareBenchRecords(kNn, fresh);
  EXPECT_FALSE(cmp.anyRegression(0.15));
}

TEST(BenchCmp, SolveRateDropTripsTheIslandsGate) {
  // 4 -> 2 solved at K=4 is a 50% solve-rate regression; solve counts are
  // deterministic, so this is algorithmic, not noise.
  const std::string fresh =
      "{\"bench\": \"islands\", \"sweep\": ["
      "{\"islands\": 1, \"solved\": 3, \"solved_per_sec\": 120.0}, "
      "{\"islands\": 4, \"solved\": 2, \"solved_per_sec\": 95.0}]}";
  EXPECT_TRUE(nu::compareBenchRecords(kIslands, fresh).anyRegression(0.15));

  // Wall-clock solved/sec halving alone: informational only.
  const std::string slow =
      "{\"bench\": \"islands\", \"sweep\": ["
      "{\"islands\": 1, \"solved\": 3, \"solved_per_sec\": 60.0}, "
      "{\"islands\": 4, \"solved\": 4, \"solved_per_sec\": 45.0}]}";
  EXPECT_FALSE(nu::compareBenchRecords(kIslands, slow).anyRegression(0.15));
}

TEST(BenchCmp, SweepEntriesMatchByIslandCountNotPosition) {
  const std::string reordered =
      "{\"bench\": \"islands\", \"sweep\": ["
      "{\"islands\": 4, \"solved\": 4, \"solved_per_sec\": 90.0}, "
      "{\"islands\": 1, \"solved\": 3, \"solved_per_sec\": 120.0}]}";
  EXPECT_FALSE(
      nu::compareBenchRecords(kIslands, reordered).anyRegression(0.0));
}

TEST(BenchCmp, MalformedRecordsAreLoud) {
  EXPECT_THROW(nu::compareBenchRecords(kInterp, kNn), std::invalid_argument);
  EXPECT_THROW(nu::compareBenchRecords("{}", "{}"), std::invalid_argument);
  EXPECT_THROW(nu::compareBenchRecords("not json", kInterp),
               std::invalid_argument);
  EXPECT_THROW(
      nu::compareBenchRecords("{\"bench\": \"mystery\"}",
                              "{\"bench\": \"mystery\"}"),
      std::invalid_argument);
  // A fresh record that lost a sweep entry must not silently pass.
  const std::string lost =
      "{\"bench\": \"islands\", \"sweep\": ["
      "{\"islands\": 1, \"solved\": 3, \"solved_per_sec\": 120.0}]}";
  EXPECT_THROW(nu::compareBenchRecords(kIslands, lost),
               std::invalid_argument);
  // Missing metric keys are loud too.
  EXPECT_THROW(
      nu::compareBenchRecords(kInterp, "{\"bench\": \"interpreter\"}"),
      std::invalid_argument);
}

TEST(BenchCmp, TraceRowGatesWithoutTheCheckRatio) {
  // Records written since the lane check ratio was deleted carry no
  // "lanes_speedup": the trace row must gate on its own.
  const std::string base =
      "{\"bench\": \"interpreter\", \"legacy_genes_per_sec\": 100000.0, "
      "\"engine_genes_per_sec\": 400000.0, \"speedup\": 4.0, "
      "\"lanes_genes_per_sec\": 720000.0, \"trace_lanes_speedup\": 1.8, "
      "\"simd_backend\": \"avx2\"}";
  const auto identity = nu::compareBenchRecords(base, base);
  EXPECT_FALSE(identity.anyRegression(0.15));
  bool traceRowGated = false;
  for (const auto& row : identity.rows)
    if (row.metric.find("lane trace view") != std::string::npos)
      traceRowGated = row.gated && row.floor == 1.5;
  EXPECT_TRUE(traceRowGated);

  // A 22% drop below the floor trips.
  const std::string dropped =
      "{\"bench\": \"interpreter\", \"legacy_genes_per_sec\": 100000.0, "
      "\"engine_genes_per_sec\": 400000.0, \"speedup\": 4.0, "
      "\"lanes_genes_per_sec\": 560000.0, \"trace_lanes_speedup\": 1.4, "
      "\"simd_backend\": \"avx2\"}";
  EXPECT_TRUE(nu::compareBenchRecords(base, dropped).anyRegression(0.15));
  // The floor is absolute: a weak baseline cannot lower the bar for itself.
  EXPECT_TRUE(nu::compareBenchRecords(dropped, dropped).anyRegression(0.15));

  // Across backends the row demotes to info, as before.
  const std::string scalarHost =
      "{\"bench\": \"interpreter\", \"legacy_genes_per_sec\": 100000.0, "
      "\"engine_genes_per_sec\": 400000.0, \"speedup\": 4.0, "
      "\"lanes_genes_per_sec\": 400000.0, \"trace_lanes_speedup\": 1.0, "
      "\"simd_backend\": \"scalar\"}";
  EXPECT_FALSE(nu::compareBenchRecords(base, scalarHost).anyRegression(0.15));

  // A baseline that still carries the deleted check keys compares against
  // a fresh record without them; a weak old check ratio no longer gates.
  const std::string oldBase =
      "{\"bench\": \"interpreter\", \"legacy_genes_per_sec\": 100000.0, "
      "\"engine_genes_per_sec\": 400000.0, \"speedup\": 4.0, "
      "\"lanes_genes_per_sec\": 720000.0, \"trace_lanes_speedup\": 1.8, "
      "\"check_lanes_genes_per_sec\": 900000.0, \"lanes_speedup\": 1.1, "
      "\"simd_backend\": \"avx2\"}";
  EXPECT_FALSE(nu::compareBenchRecords(oldBase, base).anyRegression(0.15));
  EXPECT_TRUE(nu::compareBenchRecords(oldBase, dropped).anyRegression(0.15));

  // Once the baseline gates the trace row, a fresh record that lost the key
  // is malformed, not silently ungated.
  EXPECT_THROW(nu::compareBenchRecords(base, kInterp), std::invalid_argument);
}

TEST(BenchCmp, TraceLaneRowGatesAtItsOwnFloor) {
  const std::string base =
      "{\"bench\": \"interpreter\", \"legacy_genes_per_sec\": 100000.0, "
      "\"engine_genes_per_sec\": 400000.0, \"speedup\": 4.0, "
      "\"lanes_genes_per_sec\": 720000.0, \"lanes_speedup\": 3.0, "
      "\"trace_lanes_speedup\": 1.8, \"simd_backend\": \"avx2\"}";
  EXPECT_FALSE(nu::compareBenchRecords(base, base).anyRegression(0.15));

  // 1.8 -> 1.4 is a 22% drop AND below the 1.5 floor: trips.
  const std::string dropped =
      "{\"bench\": \"interpreter\", \"legacy_genes_per_sec\": 100000.0, "
      "\"engine_genes_per_sec\": 400000.0, \"speedup\": 4.0, "
      "\"lanes_genes_per_sec\": 560000.0, \"lanes_speedup\": 3.0, "
      "\"trace_lanes_speedup\": 1.4, \"simd_backend\": \"avx2\"}";
  EXPECT_TRUE(nu::compareBenchRecords(base, dropped).anyRegression(0.15));

  // The >= 1.5x floor is absolute: a weak committed baseline cannot lower
  // the bar for itself.
  const std::string weak =
      "{\"bench\": \"interpreter\", \"legacy_genes_per_sec\": 100000.0, "
      "\"engine_genes_per_sec\": 400000.0, \"speedup\": 4.0, "
      "\"lanes_genes_per_sec\": 560000.0, \"lanes_speedup\": 3.0, "
      "\"trace_lanes_speedup\": 1.4, \"simd_backend\": \"avx2\"}";
  EXPECT_TRUE(nu::compareBenchRecords(weak, weak).anyRegression(0.15));

  // A baseline written by the older bench (no trace key) still compares —
  // the trace row is simply absent.
  const std::string old =
      "{\"bench\": \"interpreter\", \"legacy_genes_per_sec\": 100000.0, "
      "\"engine_genes_per_sec\": 400000.0, \"speedup\": 4.0, "
      "\"lanes_genes_per_sec\": 720000.0, \"lanes_speedup\": 3.0, "
      "\"simd_backend\": \"avx2\"}";
  EXPECT_FALSE(nu::compareBenchRecords(old, base).anyRegression(0.15));

  // Cross-backend comparisons demote the trace row to info like the check
  // row: a scalar host's 1.0x against an avx2 baseline is not a regression.
  const std::string scalarHost =
      "{\"bench\": \"interpreter\", \"legacy_genes_per_sec\": 100000.0, "
      "\"engine_genes_per_sec\": 400000.0, \"speedup\": 4.0, "
      "\"lanes_genes_per_sec\": 400000.0, \"lanes_speedup\": 1.1, "
      "\"trace_lanes_speedup\": 1.0, \"simd_backend\": \"scalar\"}";
  EXPECT_FALSE(nu::compareBenchRecords(base, scalarHost).anyRegression(0.15));
}

TEST(BenchCmp, LaneRowsDemoteToInfoAcrossBackendsAndOldBaselines) {
  const std::string avx2 =
      "{\"bench\": \"interpreter\", \"legacy_genes_per_sec\": 100000.0, "
      "\"engine_genes_per_sec\": 400000.0, \"speedup\": 4.0, "
      "\"lanes_genes_per_sec\": 1200000.0, \"lanes_speedup\": 3.0, "
      "\"simd_backend\": \"avx2\"}";
  // A scalar-fallback host comparing against an avx2 baseline says nothing
  // about the code: the lanes rows must not gate (ratio 1.1 would fail both
  // the tolerance and the floor if they did).
  const std::string scalarHost =
      "{\"bench\": \"interpreter\", \"legacy_genes_per_sec\": 100000.0, "
      "\"engine_genes_per_sec\": 400000.0, \"speedup\": 4.0, "
      "\"lanes_genes_per_sec\": 440000.0, \"lanes_speedup\": 1.1, "
      "\"simd_backend\": \"scalar\"}";
  EXPECT_FALSE(nu::compareBenchRecords(avx2, scalarHost).anyRegression(0.15));

  // Records predating the lane executor have no lanes keys: comparison
  // still works and simply has no lane rows.
  const auto cmp = nu::compareBenchRecords(kInterp, kInterp);
  for (const auto& row : cmp.rows)
    EXPECT_EQ(row.metric.find("lane"), std::string::npos) << row.metric;
}

TEST(BenchCmp, ZeroBaselineCannotRegress) {
  const std::string zero =
      "{\"bench\": \"islands\", \"sweep\": ["
      "{\"islands\": 1, \"solved\": 0, \"solved_per_sec\": 0.0}]}";
  EXPECT_FALSE(nu::compareBenchRecords(zero, zero).anyRegression(0.15));
}
