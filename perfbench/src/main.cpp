// perfbench — the end-to-end synthesis benchmark.
//
//   perfbench --workload=netsyn_list|edit_islands|service_durable
//             [--seed=2021] [--seconds=15] [--trace=0|1]
//             [--work-dir=DIR] [--synthd=PATH]
//   perfbench --self-test
//
// Prints a detail record line, then one summary JSON line (always last):
// {"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). Exits 1 when any output
// check, fidelity check or self-test fails, 2 on bad usage.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "report.hpp"
#include "util/argparse.hpp"
#include "workloads.hpp"

namespace {

std::string exeDir() {
  std::error_code ec;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::string(".") : exe.parent_path().string();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const netsyn::util::ArgParse args(argc, argv);
    if (args.getBool("self-test", false)) {
      const auto failures = selfTest();
      for (const auto& f : failures) std::printf("FAIL %s\n", f.c_str());
      std::printf("self-test: %s\n", failures.empty() ? "pass" : "FAIL");
      return failures.empty() ? 0 : 1;
    }

    Options opt;
    opt.workload = args.getString("workload", "");
    if (opt.workload != "netsyn_list" && opt.workload != "edit_islands" &&
        opt.workload != "service_durable")
      throw std::invalid_argument(
          "--workload must be netsyn_list, edit_islands or service_durable");
    const long seed = args.getInt("seed", 2021);
    if (seed < 0) throw std::invalid_argument("--seed must be >= 0");
    opt.seed = static_cast<std::uint64_t>(seed);
    opt.seconds = args.getDouble("seconds", 15.0);
    if (!(opt.seconds > 0.0 && opt.seconds <= 600.0))
      throw std::invalid_argument("--seconds must be in (0, 600]");
    opt.trace = args.getInt("trace", 0) != 0;
    opt.synthd = args.getString("synthd", exeDir() + "/synthd");
    opt.workDir = args.getString(
        "work-dir", ".bench_build/run-" + std::to_string(getpid()));
    std::filesystem::create_directories(opt.workDir);

    Result r;
    stampEnvironment(r, opt.workDir);
    r.stamp("workload_seed", std::to_string(opt.seed));
    for (const auto& f : selfTest()) r.error("self-test: " + f);
    try {
      if (opt.workload == "service_durable")
        runServiceWorkload(opt, r);
      else
        runSearchWorkload(opt, r);
    } catch (const std::exception& e) {
      r.fail(std::string("workload aborted: ") + e.what());
    }
    std::error_code ec;
    std::filesystem::remove_all(opt.workDir, ec);
    r.print(opt);
    return r.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
