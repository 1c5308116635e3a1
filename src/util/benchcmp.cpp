#include "util/benchcmp.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace netsyn::util {
namespace {

double numberAt(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (!v)
    throw std::invalid_argument("bench record missing \"" + key + "\"");
  return jsonDouble(*v, key.c_str());
}

void pushDelta(BenchComparison& cmp, const std::string& metric,
               const JsonValue& baseline, const JsonValue& fresh,
               const std::string& key, bool gated) {
  cmp.rows.push_back(BenchDelta{metric, numberAt(baseline, key),
                                numberAt(fresh, key),
                                /*higherIsBetter=*/true, gated});
}

/// Islands records carry a per-size "sweep" array; rows are matched by the
/// sizing key ("islands") so a re-ordered sweep still compares correctly.
const JsonValue* sweepEntry(const JsonValue& record, const char* key,
                            double k) {
  const JsonValue* sweep = record.find("sweep");
  if (!sweep || sweep->kind != JsonValue::Kind::Array)
    throw std::invalid_argument("bench record missing sweep array");
  for (const JsonValue& entry : sweep->items)
    if (numberAt(entry, key) == k) return &entry;
  return nullptr;
}

}  // namespace

BenchComparison compareBenchRecords(const std::string& baselineJson,
                                    const std::string& freshJson) {
  const JsonValue baseline = parseJson(baselineJson);
  const JsonValue fresh = parseJson(freshJson);
  if (baseline.kind != JsonValue::Kind::Object ||
      fresh.kind != JsonValue::Kind::Object)
    throw std::invalid_argument("bench records must be JSON objects");

  std::string baseTag;
  std::string freshTag;
  readString(baseline, "bench", baseTag);
  readString(fresh, "bench", freshTag);
  if (baseTag.empty() || baseTag != freshTag)
    throw std::invalid_argument("bench tag mismatch: baseline '" + baseTag +
                                "' vs fresh '" + freshTag + "'");

  BenchComparison cmp;
  cmp.bench = baseTag;
  if (baseTag == "interpreter") {
    // The speedup ratio (engine vs the frozen legacy interpreter, timed in
    // the same process) is the machine-independent engine-throughput gate;
    // raw genes/sec rows track the absolute trajectory, info only.
    pushDelta(cmp, "speedup vs frozen legacy", baseline, fresh, "speedup",
              /*gated=*/true);
    pushDelta(cmp, "engine genes/sec", baseline, fresh,
              "engine_genes_per_sec", /*gated=*/false);
    pushDelta(cmp, "legacy genes/sec", baseline, fresh,
              "legacy_genes_per_sec", /*gated=*/false);
    // SIMD lane-view rows. `trace_lanes_speedup` is the lane trace view
    // (executeMultiView, SoA blocks consumed in place through a
    // LaneTraceView — the path the NN fitness encoders ride) against the
    // scalar engine's build-then-walk, gated at a >= 1.5x floor. A baseline
    // predating the lane view lacks the key and skips the row; once the
    // baseline has it, a fresh record without it is malformed, so the gate
    // cannot lapse unnoticed. The row gates only when the two records ran
    // the same SIMD backend: comparing an avx2 baseline on a
    // scalar-fallback host says nothing about the code, so it demotes to
    // info.
    if (baseline.find("trace_lanes_speedup")) {
      std::string baseBackend;
      std::string freshBackend;
      readString(baseline, "simd_backend", baseBackend);
      readString(fresh, "simd_backend", freshBackend);
      const bool sameBackend =
          !baseBackend.empty() && baseBackend == freshBackend;
      const std::string backendTag =
          sameBackend ? baseBackend
                      : baseBackend + " baseline, " + freshBackend + " fresh";
      cmp.rows.push_back(BenchDelta{
          "lane trace view vs scalar engine (" + backendTag + ")",
          numberAt(baseline, "trace_lanes_speedup"),
          numberAt(fresh, "trace_lanes_speedup"),
          /*higherIsBetter=*/true, /*gated=*/sameBackend,
          /*floor=*/sameBackend ? 1.5 : 0.0});
    }
    if (baseline.find("lanes_genes_per_sec") &&
        fresh.find("lanes_genes_per_sec"))
      pushDelta(cmp, "lanes genes/sec", baseline, fresh, "lanes_genes_per_sec",
                /*gated=*/false);
  } else if (baseTag == "nn_scoring") {
    pushDelta(cmp, "batched/scalar speedup", baseline, fresh, "speedup",
              /*gated=*/true);
    pushDelta(cmp, "batched genes/sec", baseline, fresh,
              "batched_genes_per_sec", /*gated=*/false);
    pushDelta(cmp, "scalar genes/sec", baseline, fresh,
              "scalar_genes_per_sec", /*gated=*/false);
  } else if (baseTag == "islands") {
    const JsonValue* sweep = baseline.find("sweep");
    if (!sweep || sweep->kind != JsonValue::Kind::Array)
      throw std::invalid_argument("islands record missing sweep array");
    for (const JsonValue& entry : sweep->items) {
      const double k = numberAt(entry, "islands");
      const JsonValue* other = sweepEntry(fresh, "islands", k);
      if (!other)
        throw std::invalid_argument("fresh islands record lost the K=" +
                                    std::to_string(static_cast<long>(k)) +
                                    " sweep entry");
      const std::string tag = "K=" + std::to_string(static_cast<long>(k));
      // Solve counts are deterministic: gated. Wall-clock rate: info only.
      cmp.rows.push_back(BenchDelta{tag + " solved", numberAt(entry, "solved"),
                                    numberAt(*other, "solved"), true, true});
      cmp.rows.push_back(BenchDelta{tag + " solved/sec",
                                    numberAt(entry, "solved_per_sec"),
                                    numberAt(*other, "solved_per_sec"), true,
                                    false});
    }
  } else if (baseTag == "strdsl") {
    // String-domain synthesis record: one entry per search mode, matched by
    // name. Solve counts are deterministic per seed: gated. Rates: info.
    const JsonValue* modes = baseline.find("modes");
    if (!modes || modes->kind != JsonValue::Kind::Array)
      throw std::invalid_argument("strdsl record missing modes array");
    const JsonValue* freshModes = fresh.find("modes");
    if (!freshModes || freshModes->kind != JsonValue::Kind::Array)
      throw std::invalid_argument("fresh strdsl record missing modes array");
    for (const JsonValue& entry : modes->items) {
      std::string mode;
      readString(entry, "mode", mode);
      const JsonValue* other = nullptr;
      for (const JsonValue& cand : freshModes->items) {
        std::string name;
        readString(cand, "mode", name);
        if (name == mode) other = &cand;
      }
      if (!other)
        throw std::invalid_argument("fresh strdsl record lost mode '" + mode +
                                    "'");
      cmp.rows.push_back(BenchDelta{mode + " solved",
                                    numberAt(entry, "solved"),
                                    numberAt(*other, "solved"), true, true});
      cmp.rows.push_back(BenchDelta{mode + " solved/sec",
                                    numberAt(entry, "solved_per_sec"),
                                    numberAt(*other, "solved_per_sec"), true,
                                    false});
    }
  } else {
    throw std::invalid_argument("unknown bench tag '" + baseTag + "'");
  }
  return cmp;
}

std::string renderMarkdown(const BenchComparison& cmp, double tolerance) {
  std::ostringstream os;
  os << "### bench gate: " << cmp.bench << " (tolerance "
     << static_cast<int>(std::lround(tolerance * 100.0)) << "%)\n\n";
  os << "| metric | baseline | fresh | change | status |\n";
  os << "|---|---:|---:|---:|---|\n";
  for (const BenchDelta& d : cmp.rows) {
    char change[32];
    std::snprintf(change, sizeof change, "%+.1f%%", d.change() * 100.0);
    os << "| " << d.metric << " | " << d.baseline << " | " << d.fresh
       << " | " << change << " | "
       << (!d.gated ? "info" : d.regressed(tolerance) ? "**REGRESSED**" : "ok")
       << " |\n";
  }
  return os.str();
}

}  // namespace netsyn::util
