// Per-gene vs population-batched fitness scoring throughput.
//
// Reproduces the GA's actual hot loop: a population evolves by breeding for
// a number of generations, and every generation is graded twice — once with
// per-gene FitnessFunction::score calls and once with one scoreBatch call.
// NeuralFitness::score is a batch of one, so the "scalar" column measures
// the same encode + predictBatch path run one gene at a time, and the batched
// column grades on one thread: the speedup is the gain from batching alone
// (sharding a batch over threads is pinned by tests, not timed here). Each
// column grades with its own clone of
// the model, so each reads only the memos its own earlier generations
// filled (the scalar pass would otherwise warm the batched one). Gene
// execution (the interpreter) is excluded from both timings; this isolates
// NN scoring throughput. One breed-and-grade loop at CI settings is ~25 ms
// per column, too short for a stable ratio, so the whole loop repeats
// kRepeats times from fresh clones of one model and the same seed, and the
// gated `speedup` is the median repetition's (min and max alongside).
//
//   $ ./bench_batch_inference [--population=100] [--generations=30]
//                             [--length=5] [--seed=2021]
#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/ga.hpp"
#include "dsl/generator.hpp"
#include "fitness/model.hpp"
#include "fitness/neural_fitness.hpp"
#include "util/argparse.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace netsyn;

namespace {

constexpr std::size_t kRepeats = 5;

struct GradedPopulation {
  std::vector<dsl::Program> genes;
  std::vector<std::vector<dsl::ExecResult>> runs;  // per gene, per example
};

GradedPopulation execute(const std::vector<dsl::Program>& genes,
                         const dsl::Spec& spec) {
  GradedPopulation out;
  out.genes = genes;
  out.runs.reserve(genes.size());
  for (const auto& g : genes) {
    std::vector<dsl::ExecResult> runs;
    runs.reserve(spec.size());
    for (const auto& ex : spec.examples) runs.push_back(dsl::run(g, ex.inputs));
    out.runs.push_back(std::move(runs));
  }
  return out;
}

/// One breed-and-grade loop: seconds spent in each column and genes graded.
struct Repetition {
  double scalarSeconds = 0.0;
  double batchSeconds = 0.0;
  std::size_t graded = 0;
  double speedup() const { return scalarSeconds / batchSeconds; }
};

/// Evolves a population from `seed` for `generations`, grading every
/// generation per gene and as one batch, each column on its own fresh clone
/// of `model`. Empty when no test case can be generated.
std::optional<Repetition> runOnce(const fitness::NnffModel& model,
                                  std::size_t population,
                                  std::size_t generations, std::size_t length,
                                  std::uint64_t seed) {
  std::shared_ptr<fitness::NnffModel> scalarModel = model.clone();
  std::shared_ptr<fitness::NnffModel> batchModel = model.clone();
  fitness::NeuralFitness scalarFitness(scalarModel, "NN_CF");
  fitness::NeuralFitness batchFitness(batchModel, "NN_CF", /*threads=*/1);

  util::Rng rng(seed);
  const dsl::Generator gen;
  const auto tc = gen.randomTestCase(length, 5, false, rng);
  if (!tc) return std::nullopt;
  const dsl::InputSignature sig = tc->spec.signature();

  // Initial random population.
  std::vector<dsl::Program> genes;
  genes.reserve(population);
  for (std::size_t i = 0; i < population; ++i)
    genes.push_back(*gen.randomProgram(length, sig, rng));

  Repetition rep;
  core::GaConfig gaConfig;
  gaConfig.populationSize = population;

  for (std::size_t g = 0; g < generations; ++g) {
    const GradedPopulation pop = execute(genes, tc->spec);
    std::deque<fitness::EvalContext> store;
    std::vector<const fitness::EvalContext*> contexts;
    std::vector<const dsl::Program*> genePtrs;
    for (std::size_t b = 0; b < pop.genes.size(); ++b) {
      store.push_back(fitness::EvalContext{tc->spec, pop.runs[b]});
      contexts.push_back(&store.back());
      genePtrs.push_back(&pop.genes[b]);
    }

    util::Timer scalarTimer;
    std::vector<double> scalarScores;
    scalarScores.reserve(pop.genes.size());
    for (std::size_t b = 0; b < pop.genes.size(); ++b)
      scalarScores.push_back(scalarFitness.score(pop.genes[b], *contexts[b]));
    rep.scalarSeconds += scalarTimer.seconds();

    util::Timer batchTimer;
    const auto batchScores = batchFitness.scoreBatch(genePtrs, contexts);
    rep.batchSeconds += batchTimer.seconds();

    rep.graded += pop.genes.size();

    // Evolve with the batched scores so later generations look like the
    // GA's real workload (shared ancestry, recurring trace values).
    core::Population scored;
    for (std::size_t b = 0; b < pop.genes.size(); ++b)
      scored.push_back(core::Individual{pop.genes[b], batchScores[b]});
    genes = core::breed(scored, gaConfig, sig, gen, rng, nullptr);
  }
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParse args(argc, argv);
  const auto population =
      static_cast<std::size_t>(args.getInt("population", 100));
  const auto generations =
      static_cast<std::size_t>(args.getInt("generations", 30));
  const auto length = static_cast<std::size_t>(args.getInt("length", 5));
  const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 2021));
  if (population == 0 || generations == 0) {
    std::fprintf(stderr, "--population and --generations must be > 0\n");
    return 1;
  }

  fitness::NnffConfig mc;
  mc.encoder = {.vmax = 64, .maxValueTokens = 8};
  mc.embedDim = 16;
  mc.hiddenDim = 24;
  mc.maxExamples = 3;
  mc.head = fitness::HeadKind::Classifier;
  const fitness::NnffModel model(mc);

  std::printf("=== bench_batch_inference ===\n");
  std::printf("population=%zu generations=%zu length=%zu hidden=%zu "
              "repeats=%zu\n\n",
              population, generations, length, mc.hiddenDim, kRepeats);

  std::vector<Repetition> reps;
  for (std::size_t r = 0; r < kRepeats; ++r) {
    const auto rep = runOnce(model, population, generations, length, seed);
    if (!rep) {
      std::fprintf(stderr, "could not generate a test case\n");
      return 1;
    }
    reps.push_back(*rep);
  }
  std::sort(reps.begin(), reps.end(),
            [](const Repetition& a, const Repetition& b) {
              return a.speedup() < b.speedup();
            });
  const Repetition& med = reps[kRepeats / 2];
  const std::size_t graded = med.graded;
  const double scalarRate = static_cast<double>(graded) / med.scalarSeconds;
  const double batchRate = static_cast<double>(graded) / med.batchSeconds;
  std::printf("median of %zu repetitions:\n", kRepeats);
  std::printf("scalar  score():     %8.0f genes/sec (%.3fs for %zu)\n",
              scalarRate, med.scalarSeconds, graded);
  std::printf("batched scoreBatch:  %8.0f genes/sec (%.3fs for %zu)\n",
              batchRate, med.batchSeconds, graded);
  std::printf("speedup:             %8.2fx (min %.2fx, max %.2fx)\n",
              med.speedup(), reps.front().speedup(), reps.back().speedup());

  // Machine-readable record so CI can track the NN-scoring perf trajectory.
  const std::string jsonPath = args.getString("json", "BENCH_nn.json");
  if (!jsonPath.empty()) {
    if (std::FILE* f = std::fopen(jsonPath.c_str(), "w")) {
      std::fprintf(f,
                   "{\"bench\": \"nn_scoring\", \"population\": %zu, "
                   "\"generations\": %zu, \"length\": %zu, \"graded\": %zu, "
                   "\"scalar_genes_per_sec\": %.1f, "
                   "\"batched_genes_per_sec\": %.1f, \"repeats\": %zu, "
                   "\"speedup\": %.3f, \"speedup_min\": %.3f, "
                   "\"speedup_max\": %.3f}\n",
                   population, generations, length, graded, scalarRate,
                   batchRate, kRepeats, med.speedup(),
                   reps.front().speedup(), reps.back().speedup());
      std::fclose(f);
      std::printf("[json written to %s]\n", jsonPath.c_str());
    }
  }
  return 0;
}
