// One run's result: end-to-end and per-layer metrics, the base of every
// ratio, the environment stamp, and the correctness tally. Printed as a
// detail record line followed by the one-line summary (always the last
// line of stdout).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 2021;
  double seconds = 15.0;
  bool trace = false;
  std::string synthd;   ///< daemon binary (service workload)
  std::string workDir;  ///< scratch directory for this run, inside the checkout
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RatioNote {
  std::string name;
  Ratio ratio;
  std::string base;  ///< what the numerator and denominator count
};

class Result {
 public:
  void endToEnd(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  /// A per-layer fraction, recorded with its base.
  void layerRatio(const std::string& name, Ratio r, const std::string& base);
  /// A latency percentile, recorded with its sample count and tail size
  /// (fails the run if the tail keeps fewer than 10 samples).
  void percentileNote(const std::string& name, std::size_t n, double p);
  void stamp(const std::string& key, const std::string& value);

  void attempt(std::size_t n = 1) { attempted_ += n; }
  /// A failed operation: counts in failed_frac and makes the run incorrect.
  void fail(const std::string& why);
  /// A broken benchmark invariant (fidelity, arithmetic): the run is
  /// incorrect, though no user-visible operation failed.
  void error(const std::string& why);

  bool correct() const { return errors_.empty(); }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

  /// Prints the detail record, then the summary line with the
  /// end-to-end metrics (trace off) or the per-layer metrics (trace on).
  void print(const Options& opt) const;

 private:
  std::vector<Metric> e2e_, layers_;
  std::vector<RatioNote> ratios_;
  std::vector<std::pair<std::string, std::string>> stamp_, percentiles_;
  std::vector<std::string> errors_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Compiler, build type, lane backend, CPU model, nproc and the filesystem
/// holding `dir`.
void stampEnvironment(Result& r, const std::string& dir);

/// Filesystem type name of the directory (statfs magic), e.g. "ext4".
std::string filesystemOf(const std::string& dir);

/// Peak resident set size of this process in MB.
double selfPeakRssMb();

}  // namespace perfbench
