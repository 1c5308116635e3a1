#include "harness/config.hpp"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/executor.hpp"
#include "util/json.hpp"

namespace netsyn::harness {
namespace {

using util::JsonValue;
using util::escapeJson;
using util::jsonUnsigned;
using util::readBool;
using util::readDouble;
using util::readSize;
using util::readString;
using util::readU64;

ExperimentConfig ciScale() {
  ExperimentConfig cfg;
  cfg.scaleName = "ci";
  cfg.programLengths = {4, 5};
  cfg.programsPerLength = 8;
  cfg.examplesPerProgram = 5;
  cfg.runsPerProgram = 2;
  cfg.searchBudget = 10000;

  cfg.trainingPrograms = 8000;
  cfg.validationPrograms = 400;
  cfg.trainingLength = 5;

  cfg.modelConfig.encoder = {.vmax = 64, .maxValueTokens = 8};
  cfg.modelConfig.embedDim = 16;
  cfg.modelConfig.hiddenDim = 24;
  cfg.modelConfig.numClasses = 6;  // labels 0..5 for length-5 training
  cfg.modelConfig.maxExamples = 3;
  cfg.modelConfig.seed = 12345;

  cfg.trainConfig.epochs = 8;
  cfg.trainConfig.batchSize = 8;
  cfg.trainConfig.learningRate = 1e-2f;

  cfg.synthesizer.ga.populationSize = 40;
  cfg.synthesizer.ga.eliteCount = 4;
  cfg.synthesizer.maxGenerations = 4000;
  cfg.synthesizer.nsTopN = 3;
  cfg.synthesizer.nsWindow = 8;
  return cfg;
}

ExperimentConfig paperScale() {
  ExperimentConfig cfg = ciScale();
  cfg.scaleName = "paper";
  cfg.programLengths = {5, 7, 10};
  cfg.programsPerLength = 100;
  cfg.examplesPerProgram = 5;
  cfg.runsPerProgram = 10;       // K = 10 (§5)
  cfg.searchBudget = 3000000;    // 3M candidates (§5)

  cfg.trainingPrograms = 4200000;  // §5
  cfg.validationPrograms = 20000;

  cfg.modelConfig.encoder = {.vmax = 128, .maxValueTokens = 12};
  cfg.modelConfig.embedDim = 32;
  cfg.modelConfig.hiddenDim = 64;
  cfg.modelConfig.maxExamples = 5;

  cfg.trainConfig.epochs = 40;  // Figure 7(c) trains ~40 epochs
  cfg.trainConfig.learningRate = 1e-3f;

  cfg.synthesizer.ga.populationSize = 100;  // Appendix B
  cfg.synthesizer.ga.eliteCount = 5;
  cfg.synthesizer.maxGenerations = 30000;
  cfg.synthesizer.nsTopN = 5;
  cfg.synthesizer.nsWindow = 10;
  return cfg;
}

std::vector<std::size_t> parseLengths(const std::string& text) {
  std::vector<std::size_t> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    // Range-checked parse: std::stol would throw bare std::invalid_argument
    // / std::out_of_range on junk like "5x" or "99999999999999999999999",
    // which surfaces as an unhelpful terminate in tools without a top-level
    // handler. Name the flag and the offending item instead.
    errno = 0;
    char* end = nullptr;
    const long v = std::strtol(item.c_str(), &end, 10);
    if (end == item.c_str() || *end != '\0')
      throw std::invalid_argument("--lengths: '" + item +
                                  "' is not a number");
    if (errno == ERANGE || v <= 0)
      throw std::invalid_argument(
          "--lengths: '" + item + "' is out of range (lengths must be > 0)");
    out.push_back(static_cast<std::size_t>(v));
  }
  if (out.empty()) throw std::invalid_argument("--lengths needs a value");
  return out;
}

core::Topology parseTopology(const std::string& name) {
  if (name == "ring") return core::Topology::Ring;
  if (name == "full" || name == "fully-connected")
    return core::Topology::FullyConnected;
  throw std::invalid_argument("unknown topology '" + name +
                              "' (expected ring or full)");
}

const char* topologyName(core::Topology t) {
  return t == core::Topology::Ring ? "ring" : "full";
}

// The JSON parser and typed readers live in util/json.{hpp,cpp} — shared
// with the synthesis-service protocol and the bench regression gate.
// Unknown keys are ignored by the loaders so configs stay
// forward-compatible across PRs.

}  // namespace

ExperimentConfig ExperimentConfig::forScale(const std::string& scale) {
  if (scale == "ci") return ciScale();
  if (scale == "paper") return paperScale();
  throw std::invalid_argument("unknown scale '" + scale +
                              "' (expected ci or paper)");
}

const dsl::Domain& ExperimentConfig::domain() const {
  const dsl::Domain* d = dsl::findDomain(domainName);
  if (!d)
    throw std::invalid_argument("unknown domain '" + domainName +
                                "' (expected one of: " +
                                dsl::knownDomainNames() + ")");
  return *d;
}

void ExperimentConfig::applyDomain() {
  const dsl::Domain& d = domain();  // validates the name
  if (d.name == "list") {
    // The list domain is the historical default: leave every knob exactly
    // as the scale preset set it (generator.domain stays null, which the
    // whole engine treats as "list"). test_domain_parity separately pins
    // that an *explicit* list-domain pointer changes nothing.
    return;
  }
  synthesizer.generator = d.makeGeneratorConfig();
  modelConfig.domain = &d;
  modelConfig.encoder.vmax = d.tokenVmax;
  modelConfig.encoder.maxValueTokens = d.maxValueTokens;
}

ExperimentConfig ExperimentConfig::fromArgs(const util::ArgParse& args) {
  // --config-file=PATH seeds the config from a toJson() document (the
  // fleet coordinator and synth_client hand configs around this way);
  // individual flags still override field-wise below. The file records its
  // own scale, so combining it with an explicit --scale is ambiguous.
  const bool fromFile = args.has("config-file");
  ExperimentConfig cfg;
  if (fromFile) {
    if (args.has("scale"))
      throw std::invalid_argument(
          "--config-file and --scale are mutually exclusive (the file "
          "records its scale)");
    const std::string path = args.getString("config-file", "");
    std::ifstream in(path);
    if (!in)
      throw std::invalid_argument("cannot read --config-file " + path);
    std::ostringstream text;
    text << in.rdbuf();
    cfg = fromJson(text.str());
  } else {
    cfg = forScale(args.getString("scale", "ci"));
  }
  if (!fromFile || args.has("domain")) {
    cfg.domainName = args.getString("domain", cfg.domainName);
    cfg.applyDomain();  // validates --domain and re-seeds domain knobs
  }
  cfg.searchBudget = static_cast<std::size_t>(
      args.getInt("budget", static_cast<long>(cfg.searchBudget)));
  cfg.runsPerProgram = static_cast<std::size_t>(
      args.getInt("runs", static_cast<long>(cfg.runsPerProgram)));
  cfg.programsPerLength = static_cast<std::size_t>(args.getInt(
      "programs-per-length", static_cast<long>(cfg.programsPerLength)));
  cfg.trainingPrograms = static_cast<std::size_t>(args.getInt(
      "train-programs", static_cast<long>(cfg.trainingPrograms)));
  cfg.trainConfig.epochs = static_cast<std::size_t>(
      args.getInt("epochs", static_cast<long>(cfg.trainConfig.epochs)));
  cfg.workers = static_cast<std::size_t>(
      args.getInt("workers", static_cast<long>(cfg.workers)));
  cfg.seed = static_cast<std::uint64_t>(
      args.getInt("seed", static_cast<long>(cfg.seed)));
  cfg.modelDir = args.getString("model-dir", cfg.modelDir);
  if (args.has("lengths"))
    cfg.programLengths = parseLengths(args.getString("lengths", ""));

  // ---- island strategy ----
  // Negative values would wrap through size_t into "never migrate"-sized
  // numbers; reject them like --islands=0 instead of silently changing the
  // search.
  const auto nonNegative = [&args](const char* flag, std::size_t fallback) {
    const long v = args.getInt(flag, static_cast<long>(fallback));
    if (v < 0)
      throw std::invalid_argument(std::string("--") + flag +
                                  " must be >= 0");
    return static_cast<std::size_t>(v);
  };
  core::IslandsConfig& is = cfg.synthesizer.islands;
  if (args.has("islands")) {
    const long k = args.getInt("islands", 1);
    if (k <= 0) throw std::invalid_argument("--islands must be > 0");
    is.count = static_cast<std::size_t>(k);
    cfg.synthesizer.strategy = core::SearchStrategy::Islands;
  }
  is.migrationInterval = nonNegative("migration-interval",
                                     is.migrationInterval);
  is.migrationSize = nonNegative("migration-size", is.migrationSize);
  if (args.has("topology"))
    is.topology = parseTopology(args.getString("topology", "ring"));
  is.threads = nonNegative("island-threads", is.threads);
  is.heterogeneous = args.getBool("island-hetero", is.heterogeneous);
  return cfg;
}

std::size_t ExperimentConfig::resolvedWorkers() const {
  return workers != 0 ? workers : util::Executor::instance().concurrency();
}

std::string ExperimentConfig::toJson() const {
  std::ostringstream os;
  os.precision(17);  // doubles survive the round trip exactly
  os << "{";
  os << "\"scale\": \"" << escapeJson(scaleName) << "\"";
  os << ", \"domain\": \"" << escapeJson(domainName) << "\"";
  os << ", \"program_lengths\": [";
  for (std::size_t i = 0; i < programLengths.size(); ++i)
    os << (i ? ", " : "") << programLengths[i];
  os << "]";
  os << ", \"programs_per_length\": " << programsPerLength;
  os << ", \"examples_per_program\": " << examplesPerProgram;
  os << ", \"runs_per_program\": " << runsPerProgram;
  os << ", \"search_budget\": " << searchBudget;
  os << ", \"training_programs\": " << trainingPrograms;
  os << ", \"validation_programs\": " << validationPrograms;
  os << ", \"training_length\": " << trainingLength;
  os << ", \"training\": {";
  os << "\"epochs\": " << trainConfig.epochs;
  os << ", \"batch_size\": " << trainConfig.batchSize;
  os << ", \"learning_rate\": " << trainConfig.learningRate;
  os << "}";
  os << ", \"workers\": " << workers;
  os << ", \"seed\": " << seed;
  os << ", \"model_dir\": \"" << escapeJson(modelDir) << "\"";
  os << ", \"synthesizer\": {";
  os << "\"population_size\": " << synthesizer.ga.populationSize;
  os << ", \"elite_count\": " << synthesizer.ga.eliteCount;
  os << ", \"crossover_rate\": " << synthesizer.ga.crossoverRate;
  os << ", \"mutation_rate\": " << synthesizer.ga.mutationRate;
  os << ", \"max_generations\": " << synthesizer.maxGenerations;
  os << ", \"neighborhood_search\": "
     << (synthesizer.useNeighborhoodSearch ? "true" : "false");
  os << ", \"ns_kind\": \""
     << (synthesizer.nsKind == core::NsKind::BFS ? "bfs" : "dfs") << "\"";
  os << ", \"ns_top_n\": " << synthesizer.nsTopN;
  os << ", \"ns_window\": " << synthesizer.nsWindow;
  os << ", \"strategy\": \""
     << (synthesizer.strategy == core::SearchStrategy::Islands ? "islands"
                                                               : "single")
     << "\"";
  os << ", \"islands\": {";
  os << "\"count\": " << synthesizer.islands.count;
  os << ", \"migration_interval\": " << synthesizer.islands.migrationInterval;
  os << ", \"migration_size\": " << synthesizer.islands.migrationSize;
  os << ", \"topology\": \"" << topologyName(synthesizer.islands.topology)
     << "\"";
  os << ", \"threads\": " << synthesizer.islands.threads;
  os << ", \"heterogeneous\": "
     << (synthesizer.islands.heterogeneous ? "true" : "false");
  os << ", \"tweaks\": [";
  for (std::size_t i = 0; i < synthesizer.islands.tweaks.size(); ++i) {
    const core::IslandTweak& t = synthesizer.islands.tweaks[i];
    os << (i ? ", " : "") << "{\"mutation_rate_scale\": "
       << t.mutationRateScale
       << ", \"crossover_rate_scale\": " << t.crossoverRateScale;
    if (t.nsKind)
      os << ", \"ns_kind\": \""
         << (*t.nsKind == core::NsKind::BFS ? "bfs" : "dfs") << "\"";
    if (t.fpGuidedMutation)
      os << ", \"fp_guided_mutation\": "
         << (*t.fpGuidedMutation ? "true" : "false");
    os << "}";
  }
  os << "]";
  os << "}";  // islands
  os << "}";  // synthesizer
  os << "}";
  return os.str();
}

ExperimentConfig ExperimentConfig::fromJson(const std::string& json) {
  return fromJsonValue(util::parseJson(json));
}

ExperimentConfig ExperimentConfig::fromJsonValue(const util::JsonValue& root) {
  if (root.kind != JsonValue::Kind::Object)
    throw std::invalid_argument("config JSON: top level must be an object");

  std::string scale = "ci";
  readString(root, "scale", scale);
  ExperimentConfig cfg = forScale(scale);
  readString(root, "domain", cfg.domainName);
  // Validate and apply *before* the overrides below, so an explicit
  // generator/model setting in the JSON could later win over the domain
  // defaults, and an unknown name fails with the flag-style message rather
  // than deep inside a search.
  cfg.applyDomain();

  if (const JsonValue* lengths = root.find("program_lengths")) {
    if (lengths->kind != JsonValue::Kind::Array)
      throw std::invalid_argument(
          "config JSON: program_lengths must be an array");
    cfg.programLengths.clear();
    for (const JsonValue& v : lengths->items)
      cfg.programLengths.push_back(
          static_cast<std::size_t>(jsonUnsigned(v, "program_lengths")));
  }
  readSize(root, "programs_per_length", cfg.programsPerLength);
  readSize(root, "examples_per_program", cfg.examplesPerProgram);
  readSize(root, "runs_per_program", cfg.runsPerProgram);
  readSize(root, "search_budget", cfg.searchBudget);
  readSize(root, "training_programs", cfg.trainingPrograms);
  readSize(root, "validation_programs", cfg.validationPrograms);
  readSize(root, "training_length", cfg.trainingLength);
  if (const JsonValue* training = root.find("training")) {
    if (training->kind != JsonValue::Kind::Object)
      throw std::invalid_argument("config JSON: training must be an object");
    readSize(*training, "epochs", cfg.trainConfig.epochs);
    readSize(*training, "batch_size", cfg.trainConfig.batchSize);
    double lr = static_cast<double>(cfg.trainConfig.learningRate);
    readDouble(*training, "learning_rate", lr);
    cfg.trainConfig.learningRate = static_cast<float>(lr);
  }
  readSize(root, "workers", cfg.workers);
  readU64(root, "seed", cfg.seed);
  readString(root, "model_dir", cfg.modelDir);

  if (const JsonValue* syn = root.find("synthesizer")) {
    if (syn->kind != JsonValue::Kind::Object)
      throw std::invalid_argument("config JSON: synthesizer must be an object");
    readSize(*syn, "population_size", cfg.synthesizer.ga.populationSize);
    readSize(*syn, "elite_count", cfg.synthesizer.ga.eliteCount);
    readDouble(*syn, "crossover_rate", cfg.synthesizer.ga.crossoverRate);
    readDouble(*syn, "mutation_rate", cfg.synthesizer.ga.mutationRate);
    readSize(*syn, "max_generations", cfg.synthesizer.maxGenerations);
    readBool(*syn, "neighborhood_search", cfg.synthesizer.useNeighborhoodSearch);
    std::string nsKind;
    readString(*syn, "ns_kind", nsKind);
    if (!nsKind.empty()) {
      if (nsKind != "bfs" && nsKind != "dfs")
        throw std::invalid_argument("config JSON: ns_kind must be bfs or dfs");
      cfg.synthesizer.nsKind =
          nsKind == "bfs" ? core::NsKind::BFS : core::NsKind::DFS;
    }
    readSize(*syn, "ns_top_n", cfg.synthesizer.nsTopN);
    readSize(*syn, "ns_window", cfg.synthesizer.nsWindow);
    std::string strategy;
    readString(*syn, "strategy", strategy);
    if (!strategy.empty()) {
      if (strategy != "single" && strategy != "islands")
        throw std::invalid_argument(
            "config JSON: strategy must be single or islands");
      cfg.synthesizer.strategy = strategy == "islands"
                                     ? core::SearchStrategy::Islands
                                     : core::SearchStrategy::SinglePopulation;
    }
    if (const JsonValue* is = syn->find("islands")) {
      if (is->kind != JsonValue::Kind::Object)
        throw std::invalid_argument("config JSON: islands must be an object");
      readSize(*is, "count", cfg.synthesizer.islands.count);
      readSize(*is, "migration_interval",
               cfg.synthesizer.islands.migrationInterval);
      readSize(*is, "migration_size", cfg.synthesizer.islands.migrationSize);
      std::string topology;
      readString(*is, "topology", topology);
      if (!topology.empty())
        cfg.synthesizer.islands.topology = parseTopology(topology);
      readSize(*is, "threads", cfg.synthesizer.islands.threads);
      readBool(*is, "heterogeneous", cfg.synthesizer.islands.heterogeneous);
      if (cfg.synthesizer.islands.count == 0)
        throw std::invalid_argument(
            "config JSON: islands.count must be >= 1");
      if (const JsonValue* tweaks = is->find("tweaks")) {
        if (tweaks->kind != JsonValue::Kind::Array)
          throw std::invalid_argument(
              "config JSON: islands.tweaks must be an array");
        cfg.synthesizer.islands.tweaks.clear();
        for (const JsonValue& tv : tweaks->items) {
          if (tv.kind != JsonValue::Kind::Object)
            throw std::invalid_argument(
                "config JSON: islands.tweaks entries must be objects");
          core::IslandTweak tweak;
          readDouble(tv, "mutation_rate_scale", tweak.mutationRateScale);
          readDouble(tv, "crossover_rate_scale", tweak.crossoverRateScale);
          std::string tweakNs;
          readString(tv, "ns_kind", tweakNs);
          if (!tweakNs.empty()) {
            if (tweakNs != "bfs" && tweakNs != "dfs")
              throw std::invalid_argument(
                  "config JSON: tweak ns_kind must be bfs or dfs");
            tweak.nsKind =
                tweakNs == "bfs" ? core::NsKind::BFS : core::NsKind::DFS;
          }
          if (tv.find("fp_guided_mutation")) {
            bool fp = false;
            readBool(tv, "fp_guided_mutation", fp);
            tweak.fpGuidedMutation = fp;
          }
          cfg.synthesizer.islands.tweaks.push_back(tweak);
        }
      }
    }
  }

  // Range sanity at load time: a zero here would only surface much later as
  // an unrelated exception deep inside the search (or a trivially-empty
  // workload), long after models were trained. Fail loudly, naming the key.
  if (cfg.synthesizer.ga.populationSize == 0)
    throw std::invalid_argument(
        "config JSON: synthesizer.population_size must be >= 1");
  for (std::size_t len : cfg.programLengths)
    if (len == 0)
      throw std::invalid_argument(
          "config JSON: program_lengths entries must be >= 1");
  return cfg;
}

}  // namespace netsyn::harness
