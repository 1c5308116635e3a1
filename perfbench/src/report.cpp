#include "report.hpp"

#include <sys/resource.h>
#include <sys/vfs.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "dsl/interpreter.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string str(const std::string& s) {
  std::string out(1, '"');
  out += netsyn::util::escapeJson(s);
  out += '"';
  return out;
}

std::string metricsObject(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", " : "") + str(ms[i].name) + ": {\"value\": " +
           num(ms[i].value) + ", \"unit\": " + str(ms[i].unit) + "}";
  }
  return out + "}";
}

std::string pairsObject(
    const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string out = "{";
  for (std::size_t i = 0; i < kv.size(); ++i)
    out += (i ? ", " : "") + str(kv[i].first) + ": " + str(kv[i].second);
  return out + "}";
}

}  // namespace

void Result::endToEnd(const std::string& name, double value,
                      const std::string& unit) {
  if (!std::isfinite(value)) error(name + " is not finite");
  e2e_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Result::layer(const std::string& name, double value,
                   const std::string& unit) {
  if (!std::isfinite(value)) error(name + " is not finite");
  layers_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Result::layerRatio(const std::string& name, Ratio r,
                        const std::string& base) {
  layer(name, r.value(), "fraction");
  ratios_.push_back({name, r, base});
}

void Result::percentileNote(const std::string& name, std::size_t n, double p) {
  const std::size_t tail = samplesBeyond(n, p);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "p%g of n=%zu, %zu samples beyond; highest allowed p%.2f", p,
                n, tail, highestPercentileWithTail(n));
  percentiles_.emplace_back(name, buf);
  if (p > 50.0 && tail < 10)
    error(name + ": fewer than 10 samples beyond p" + num(p));
}

void Result::stamp(const std::string& key, const std::string& value) {
  stamp_.emplace_back(key, value);
}

void Result::fail(const std::string& why) {
  ++failed_;
  error(why);
}

void Result::error(const std::string& why) {
  if (errors_.size() < 50) errors_.push_back(why);
}

void Result::print(const Options& opt) const {
  std::string ratios = "[";
  for (std::size_t i = 0; i < ratios_.size(); ++i) {
    const RatioNote& r = ratios_[i];
    ratios += std::string(i ? ", " : "") + "{\"name\": " + str(r.name) +
              ", \"value\": " + num(r.ratio.value()) +
              ", \"num\": " + num(r.ratio.num) +
              ", \"den\": " + num(r.ratio.den) + ", \"base\": " + str(r.base) +
              "}";
  }
  ratios += "]";
  std::string errors = "[";
  for (std::size_t i = 0; i < errors_.size(); ++i)
    errors += (i ? ", " : "") + str(errors_[i]);
  errors += "]";

  std::printf(
      "{\"record\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"stamp\": %s, \"end_to_end\": %s, \"per_layer\": %s, "
      "\"ratios\": %s, \"percentiles\": %s, \"errors\": %s}}\n",
      str(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed),
      num(opt.seconds).c_str(), opt.trace ? 1 : 0,
      pairsObject(stamp_).c_str(), metricsObject(e2e_).c_str(),
      metricsObject(layers_).c_str(), ratios.c_str(),
      pairsObject(percentiles_).c_str(), errors.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      correct() ? "true" : "false", attempted_, failed_,
      metricsObject(opt.trace ? layers_ : e2e_).c_str());
  std::fflush(stdout);
}

std::string filesystemOf(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

void stampEnvironment(Result& r, const std::string& dir) {
  r.stamp("compiler", PERFBENCH_COMPILER);
  r.stamp("build_type", PERFBENCH_BUILD_TYPE);
  r.stamp("lane_backend", netsyn::dsl::Executor::backendName());
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  r.stamp("cpu_model", cpu);
  r.stamp("nproc", std::to_string(std::thread::hardware_concurrency()));
  r.stamp("work_dir_fs", filesystemOf(dir));
}

double selfPeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
