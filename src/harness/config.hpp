// Experiment configuration: the paper's constants and the scaled-down
// defaults this repo uses on a single-core container.
//
// `paper` scale restores the constants of §5 / Appendix B (4.2M-program
// corpus, 3,000,000-candidate budget, 100 test programs per length, K=10
// repetitions, lengths {5,7,10}); `ci` scale preserves every ratio and
// method ordering at a size that runs in minutes (see DESIGN.md §5 for why
// the paper's search-space-percentage metric is scale-relative).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/synthesizer.hpp"
#include "dsl/domain.hpp"
#include "fitness/model.hpp"
#include "fitness/trainer.hpp"
#include "util/argparse.hpp"
#include "util/json.hpp"

namespace netsyn::harness {

struct ExperimentConfig {
  std::string scaleName = "ci";

  /// Which DSL the experiment runs on ("list" or "str"; dsl::findDomain
  /// names). Selecting a non-list domain re-seeds the generator knobs and
  /// NN-encoder hints from the domain's defaults (applyDomain); the list
  /// domain keeps the historical values bit-identically.
  std::string domainName = "list";

  // ---- workload ----
  std::vector<std::size_t> programLengths = {4, 5};
  std::size_t programsPerLength = 8;  ///< half singleton, half list
  std::size_t examplesPerProgram = 5; ///< m
  std::size_t runsPerProgram = 2;     ///< K
  std::size_t searchBudget = 4000;    ///< max candidates per run

  // ---- NN-FF training ----
  std::size_t trainingPrograms = 2400;  ///< corpus size (paper: 4.2M)
  std::size_t validationPrograms = 300;
  std::size_t trainingLength = 5;  ///< corpus program length (paper: 5)
  fitness::NnffConfig modelConfig;   ///< dims shared by CF/LCS/FP models
  fitness::TrainConfig trainConfig;

  // ---- GA ----
  core::SynthesizerConfig synthesizer;

  /// Worker threads for the experiment runner: (program, run) pairs are
  /// dispatched onto up to this many executor threads, each owning its own
  /// method instance. 1 = sequential (default); 0 = the process-wide
  /// util::Executor's concurrency. The
  /// per-(seed, program, run) seeding makes the resulting MethodReport
  /// identical to a sequential run (wall-clock `seconds` aside).
  std::size_t workers = 1;
  /// `workers` with 0 resolved to the executor's concurrency.
  std::size_t resolvedWorkers() const;

  std::uint64_t seed = 2021;
  std::string modelDir = "netsyn_models";  ///< trained-model cache

  /// The resolved domain (throws std::invalid_argument with the known
  /// names when domainName is unknown).
  const dsl::Domain& domain() const;

  /// Re-seeds the domain-dependent knobs (synthesizer.generator, NN encoder
  /// hints, modelConfig.domain) from domainName. Called by fromArgs /
  /// fromJson after the name is set; call it yourself after assigning
  /// domainName directly. Throws std::invalid_argument on unknown names.
  void applyDomain();

  /// Named presets: "ci" (default) or "paper".
  static ExperimentConfig forScale(const std::string& scale);

  /// Preset selected by --scale — or a full toJson() document loaded via
  /// --config-file=PATH (exclusive with --scale) — plus individual flag
  /// overrides
  /// (--domain=list|str, --budget, --runs, --programs-per-length,
  ///  --train-programs, --epochs, --seed, --model-dir, --lengths=5,7,10,
  ///  --workers=N, and the island strategy: --islands=K,
  ///  --migration-interval=M, --migration-size=E, --topology=ring|full,
  ///  --island-threads=T, --island-hetero).
  ///  --islands selects SearchStrategy::Islands (also for K=1, which is
  ///  pinned identical to the single-population search).
  static ExperimentConfig fromArgs(const util::ArgParse& args);

  /// Serializes the experiment-defining fields (workload, budget, GA,
  /// island strategy, seed) as one JSON object — the scenario record the
  /// bench JSONs and external sweep drivers consume.
  std::string toJson() const;

  /// Parses toJson() output (strict on structure, unknown keys ignored).
  /// Round-trip identity — fromJson(c.toJson()) equals c on every
  /// serialized field — is pinned by tests. Throws std::invalid_argument
  /// on malformed input.
  static ExperimentConfig fromJson(const std::string& json);

  /// fromJson() on an already-parsed document — the synthesis service's
  /// protocol handler carries configs as sub-objects of a request and loads
  /// them without re-serializing.
  static ExperimentConfig fromJsonValue(const util::JsonValue& root);
};

}  // namespace netsyn::harness
