// netsyn_list: NetSyn_LCS (NN-graded, Mutation_FP, NS_BFS) on the list DSL,
// with its LCS and FP models trained in the run. NN grading dominates.
//
// edit_islands: the edit-distance GA on the same generator with K=4 islands
// on 2 island threads. No NN, so core (breed, caches, islands) and dsl
// (plan cache, lane executor) dominate; NN changes should not move it.
//
// Each run sets up several times (the median is setup_s), then runs one
// untraced pass over the workload: one synthesize call per task, in order,
// on this thread. With --trace 1 a second, traced pass follows; it must
// reproduce the untraced pass exactly, and its spans give the per-layer
// numbers.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <tuple>
#include <unordered_map>

#include "core/evaluator.hpp"
#include "decorators.hpp"
#include "dsl/interpreter.hpp"
#include "fitness/edit.hpp"
#include "harness/models.hpp"
#include "harness/registry.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "trace.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace netsyn;

namespace {

/// Every graded candidate's trace is sampled at this stride for the dsl
/// replay.
constexpr std::size_t kSampleStride = 8;

/// The models are the same for every workload seed: the seed picks the
/// tasks, not the grader.
constexpr std::uint64_t kTrainSeed = 2021;

struct Task {
  bool found = false;
  bool foundByNs = false;
  std::size_t candidates = 0;
  std::size_t generations = 0;
  std::size_t nsInvocations = 0;
  std::size_t immigrants = 0;
  std::size_t offered = 0;  ///< population slots graded (cache base)
  double seconds = 0.0;
  dsl::Program solution;
};

struct Pass {
  std::vector<Task> tasks;
  double wall = 0.0;  ///< sum of synthesize wall times
};

struct Setup {
  harness::ExperimentConfig config;
  std::vector<harness::TestProgram> workload;
  harness::TrainedModels models;
  double seconds = 0.0;
};

bool isNn(const Options& opt) { return opt.workload == "netsyn_list"; }

/// Tasks per program length: the pass is sized to take about --seconds on a
/// 4-core x86 container.
std::size_t programsPerLength(const Options& opt) {
  const double perSecond = isNn(opt) ? 1.8 : 16.0;
  return std::max<std::size_t>(
      2, static_cast<std::size_t>(perSecond * opt.seconds + 0.5));
}

harness::ExperimentConfig makeConfig(const Options& opt) {
  harness::ExperimentConfig c = harness::ExperimentConfig::forScale("ci");
  c.programLengths = {4, 5};
  c.programsPerLength = programsPerLength(opt);
  c.runsPerProgram = 1;
  c.workers = 1;
  c.seed = opt.seed;
  if (isNn(opt)) {
    c.searchBudget = 4000;
    c.trainingPrograms = 600;
    c.validationPrograms = 100;
    c.trainConfig.epochs = 3;
  } else {
    c.searchBudget = 10000;
    c.synthesizer.strategy = core::SearchStrategy::Islands;
    c.synthesizer.islands.count = 4;
    c.synthesizer.islands.threads = 2;
  }
  return c;
}

/// Trains the LCS and FP models from scratch (a fresh model directory, so
/// nothing is loaded from a cache) and generates the workload.
Setup setUp(const Options& opt, std::size_t index) {
  Setup s;
  s.config = makeConfig(opt);
  util::Timer total;
  if (isNn(opt)) {
    harness::ExperimentConfig tc = s.config;
    tc.seed = kTrainSeed;
    tc.modelDir = opt.workDir + "/models-" + std::to_string(index);
    {
      ScopedSpan span(Layer::Train, static_cast<std::uint32_t>(index));
      s.models.lcs = harness::buildModel(tc, fitness::HeadKind::Classifier);
      harness::loadOrTrain(tc, *s.models.lcs, fitness::BalanceMetric::LCS,
                           "lcs", /*quiet=*/true);
    }
    {
      ScopedSpan span(Layer::Train, static_cast<std::uint32_t>(index));
      s.models.fp = harness::buildModel(tc, fitness::HeadKind::Multilabel);
      harness::loadOrTrain(tc, *s.models.fp, fitness::BalanceMetric::CF, "fp",
                           /*quiet=*/true);
    }
    std::filesystem::remove_all(tc.modelDir);
  }
  {
    ScopedSpan span(Layer::Workload, static_cast<std::uint32_t>(index));
    s.workload = harness::makeFullWorkload(s.config);
  }
  s.seconds = total.seconds();
  return s;
}

/// The method as users build it, from the registry.
baselines::MethodPtr plainMethod(const Options& opt, const Setup& s) {
  if (isNn(opt))
    return harness::makeNetSyn(s.config, s.models.clone(),
                               harness::NetSynVariant::LCS);
  return harness::makeEdit(s.config);
}

/// The same method with every layer boundary wrapped in a decorator.
/// `memoModel` receives the LCS clone whose memo counters the run reports.
baselines::MethodPtr tracedMethod(
    const Options& opt, const Setup& s, GeneSampler& sampler,
    std::shared_ptr<fitness::NnffModel>& memoModel) {
  if (isNn(opt)) {
    const harness::TrainedModels own = s.models.clone();
    memoModel = own.lcs;
    const core::SynthesizerConfig sc =
        harness::methodSearchConfig(s.config, "NetSyn_LCS");
    auto fit = std::make_shared<TracedFitness>(
        std::make_shared<fitness::NeuralFitness>(own.lcs, "NN_LCS"),
        Layer::GradeNn, &sampler, 0);
    auto probMap = std::make_shared<TracedProbMap>(
        std::make_shared<fitness::ProbMapFitness>(own.fp));
    return std::make_shared<TracedMethod>(
        std::make_shared<baselines::SynthesizerMethod>("NetSyn_LCS", sc, fit,
                                                       probMap));
  }
  const core::SynthesizerConfig sc =
      harness::methodSearchConfig(s.config, "Edit");
  const dsl::Domain* domain = sc.generator.domain;
  GeneSampler* sp = &sampler;
  return std::make_shared<TracedMethod>(
      std::make_shared<baselines::SynthesizerMethod>(
          "Edit", sc,
          std::make_shared<TracedFitness>(
              std::make_shared<fitness::EditDistanceFitness>(domain),
              Layer::GradeEdit, sp, 0),
          nullptr, [domain, sp](std::size_t island) {
            return core::IslandFitness{
                std::make_shared<TracedFitness>(
                    std::make_shared<fitness::EditDistanceFitness>(domain),
                    Layer::GradeEdit, sp, island),
                nullptr};
          }));
}

Pass runPass(baselines::Method& method, const Setup& s,
             GeneSampler* sampler) {
  Pass pass;
  const std::size_t pop = s.config.synthesizer.ga.populationSize;
  for (std::size_t p = 0; p < s.workload.size(); ++p) {
    const harness::TestProgram& tp = s.workload[p];
    if (sampler) sampler->setTask(p);
    util::Rng rng = harness::runSeedRng(s.config, p, 0);
    util::Timer timer;
    const core::SynthesisResult res =
        method.synthesize(tp.spec, tp.length, s.config.searchBudget, rng);
    Task t;
    t.seconds = timer.seconds();
    t.found = res.found;
    t.foundByNs = res.foundByNs;
    t.candidates = res.candidatesSearched;
    t.generations = res.generations;
    t.nsInvocations = res.nsInvocations;
    t.solution = res.solution;
    if (res.islandStats.empty()) {
      t.offered = pop * (res.generations + 1);
    } else {
      for (const auto& is : res.islandStats) {
        t.immigrants += is.immigrants;
        t.offered += pop * (is.generations + 1);
      }
    }
    pass.wall += t.seconds;
    pass.tasks.push_back(std::move(t));
  }
  return pass;
}

/// Output check: every reported solution must satisfy its spec under the
/// scalar interpreter (no lane execution involved).
void verifySolutions(const Pass& pass, const Setup& s, const char* label,
                     Result& r) {
  for (std::size_t p = 0; p < pass.tasks.size(); ++p) {
    const Task& t = pass.tasks[p];
    r.attempt();
    if (!t.found) continue;
    const harness::TestProgram& tp = s.workload[p];
    bool ok = t.solution.length() == tp.length;
    for (const auto& ex : tp.spec.examples)
      ok = ok && dsl::eval(t.solution, ex.inputs) == ex.output;
    if (!ok)
      r.fail(std::string(label) + " task " + std::to_string(p) +
             ": reported solution " + t.solution.toString() +
             " does not satisfy its spec");
  }
}

/// Median over set-ups of the busy time of `layer` spans, which carry
/// their set-up's index as the tag.
double setupLayerMedian(const std::vector<Span>& spans, Layer layer,
                        std::size_t setups) {
  std::vector<double> perSetup(setups, 0.0);
  for (const Span& sp : spans)
    if (sp.layer == layer && sp.tag < setups)
      perSetup[sp.tag] += sp.end - sp.start;
  return median(perSetup);
}

/// Replays the sampled candidates through a fresh evaluator per task, the
/// way the search executed them (lane view for trace-reading fitness,
/// scattered traces otherwise), for the dsl layer's cost and plan-cache
/// hit rate.
void replayDsl(const Options& opt, const Setup& s, const GeneSampler& sampler,
               LayerReport& L) {
  const std::vector<GeneSampler::Entry> entries = sampler.sorted();
  double seconds = 0.0;
  std::size_t genes = 0, lookups = 0, compiles = 0;
  std::size_t i = 0;
  while (i < entries.size()) {
    const std::size_t task = entries[i].task;
    std::size_t j = i;
    while (j < entries.size() && entries[j].task == task) ++j;
    core::SearchBudget budget(std::numeric_limits<std::size_t>::max());
    core::SpecEvaluator ev(s.workload[task].spec, budget);
    util::Timer timer;
    for (std::size_t k = i; k < j; ++k) {
      if (isNn(opt) && ev.laneViewCapable()) {
        dsl::LaneTraceView view;
        ev.evaluateView(entries[k].program, view);
      } else if (auto e = ev.evaluate(entries[k].program)) {
        ev.recycle(std::move(*e));
      }
    }
    seconds += timer.seconds();
    genes += j - i;
    lookups += ev.executor().planLookups();
    compiles += ev.executor().planCompiles();
    i = j;
  }
  L.dslExecUsPerGene = genes ? seconds * 1e6 / static_cast<double>(genes) : 0;
  L.dslPlanHit = {static_cast<double>(lookups - compiles),
                  static_cast<double>(lookups)};
  L.dslPlanHitBase = "plan-cache hits / plan lookups while replaying every " +
                     std::to_string(sampler.stride()) +
                     "th graded candidate through a fresh evaluator per task";
}

/// Splits every synthesize span between its child layers and self time,
/// after checking the span tree the split rests on: every child's parent was
/// recorded and encloses it, and direct children of one synthesize span on
/// one thread never overlap (a nested span wrongly parented to the root
/// would). Where all of a root's children ran on its own thread nothing can
/// overlap, so each layer's attributed time must equal the summed durations
/// of its direct children; a lost or misparented span breaks that.
void analyseSpans(const std::vector<Span>& spans, const Pass& traced,
                  LayerReport& L, Result& r) {
  constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::Count);
  std::array<double, kLayers> busy{};
  std::array<double, kLayers> items{};
  std::array<std::size_t, kLayers> calls{};
  std::unordered_map<std::uint64_t, const Span*> byId;
  for (const Span& sp : spans) byId[sp.id] = &sp;
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  std::vector<const Span*> roots;
  std::size_t orphans = 0, escaped = 0;
  for (const Span& sp : spans) {
    const auto l = static_cast<std::size_t>(sp.layer);
    busy[l] += sp.end - sp.start;
    items[l] += sp.tag;
    ++calls[l];
    if (sp.layer == Layer::Synthesize) {
      roots.push_back(&sp);
      continue;
    }
    const auto parent = byId.find(sp.parent);
    if (parent == byId.end()) {
      ++orphans;
      continue;
    }
    if (sp.start < parent->second->start || sp.end > parent->second->end)
      ++escaped;
    children[sp.parent].push_back(&sp);
  }
  if (roots.size() != traced.tasks.size())
    r.error("traced pass recorded " + std::to_string(roots.size()) +
            " synthesize spans for " + std::to_string(traced.tasks.size()) +
            " tasks");
  if (orphans > 0)
    r.error(std::to_string(orphans) + " spans whose parent was not recorded");
  if (escaped > 0)
    r.error(std::to_string(escaped) + " spans outside their parent span");
  std::array<double, kMaxLayers> attributed{};
  double synthWall = 0.0, self = 0.0;
  std::size_t overlapping = 0, mismatched = 0, singleThread = 0;
  for (const Span* root : roots) {
    std::vector<const Span*>& kids = children[root->id];
    std::sort(kids.begin(), kids.end(), [](const Span* a, const Span* b) {
      return std::tie(a->thread, a->start) < std::tie(b->thread, b->start);
    });
    std::vector<Interval> intervals;
    std::array<double, kMaxLayers> direct{};
    bool oneThread = true;
    for (std::size_t k = 0; k < kids.size(); ++k) {
      const Span& c = *kids[k];
      if (k > 0 && kids[k - 1]->thread == c.thread && kids[k - 1]->end > c.start)
        ++overlapping;
      oneThread = oneThread && c.thread == root->thread;
      const auto l = static_cast<std::size_t>(c.layer);
      direct[l] += c.end - c.start;
      intervals.push_back({c.start, c.end, l});
    }
    const Attribution a = attribute(root->start, root->end, intervals);
    if (oneThread) {
      ++singleThread;
      for (std::size_t l = 0; l < kMaxLayers; ++l)
        if (std::abs(a.layer[l] - direct[l]) > 1e-9 * (1.0 + a.duration))
          ++mismatched;
    }
    for (std::size_t l = 0; l < kMaxLayers; ++l) attributed[l] += a.layer[l];
    synthWall += a.duration;
    self += a.self;
  }
  if (overlapping > 0)
    r.error(std::to_string(overlapping) +
            " direct children of a synthesize span overlap on one thread");
  if (mismatched > 0)
    r.error(std::to_string(mismatched) +
            " layers whose attributed time differs from their direct spans");
  r.stamp("span_check", std::to_string(singleThread) + " of " +
                            std::to_string(roots.size()) +
                            " synthesize spans single-threaded; attributed "
                            "time == direct child time checked on those");
  const auto at = [](Layer l) { return static_cast<std::size_t>(l); };
  const std::string ofSynth = " / synthesize wall time (sum over tasks)";
  const auto perGene = [](double s, double n) {
    return n > 0 ? s * 1e6 / n : 0.0;
  };

  L.nnGradeS = busy[at(Layer::GradeNn)];
  L.nnGradeUsPerGene = perGene(L.nnGradeS, items[at(Layer::GradeNn)]);
  L.nnBatchGenesMean = calls[at(Layer::GradeNn)]
                           ? items[at(Layer::GradeNn)] /
                                 static_cast<double>(calls[at(Layer::GradeNn)])
                           : 0.0;
  L.nnGradeShare = {attributed[at(Layer::GradeNn)], synthWall};
  L.nnGradeShareBase = "scoreBatch (NN) attributed time" + ofSynth;
  L.nnProbmapS = busy[at(Layer::ProbMap)];

  L.encodeS = busy[at(Layer::Encode)] + busy[at(Layer::EncodeBegin)];
  L.encodeUsPerGene = perGene(L.encodeS, items[at(Layer::Encode)]);
  L.encodeShare = {attributed[at(Layer::Encode)] +
                       attributed[at(Layer::EncodeBegin)],
                   synthWall};
  L.encodeShareBase = "beginCapture + capture attributed time" + ofSynth;

  L.editS = busy[at(Layer::GradeEdit)];
  L.editUsPerGene = perGene(L.editS, items[at(Layer::GradeEdit)]);

  L.coreSelfS = self;
  L.coreSelfShare = {self, synthWall};
  L.coreSelfShareBase =
      "synthesize time covered by no fitness/encode/probMap/sampling span" +
      ofSynth;

  double offered = 0.0;
  for (const Task& t : traced.tasks) offered += static_cast<double>(t.offered);
  const double scored =
      items[at(Layer::GradeNn)] + items[at(Layer::GradeEdit)];
  L.fitnessCacheHit = {offered - scored, offered};
  L.fitnessCacheHitBase =
      "population slots not sent to scoreBatch (fitness-cache hits and "
      "in-generation duplicates) / population size x (generations + 1) per "
      "population";
}

}  // namespace

void runSearchWorkload(const Options& opt, Result& r) {
  Tracer& tracer = Tracer::instance();
  // ---- set-up, several times; the median is setup_s. A traced run reports
  // no setup_s, so one set-up keeps it well inside the time limit. ----
  const std::size_t setupRuns = opt.trace ? 1 : isNn(opt) ? 3 : 25;
  std::vector<double> setupSeconds;
  tracer.setEnabled(opt.trace);
  Setup s = setUp(opt, 0);
  setupSeconds.push_back(s.seconds);
  for (std::size_t i = 1; i < setupRuns; ++i) {
    // Only the latest set-up is kept, so each one reuses the memory the one
    // before it freed, as a long-lived process would.
    Setup next = setUp(opt, i);
    bool same = next.workload.size() == s.workload.size();
    for (std::size_t p = 0; same && p < s.workload.size(); ++p)
      same = next.workload[p].target == s.workload[p].target &&
             next.workload[p].spec.fingerprint() ==
                 s.workload[p].spec.fingerprint();
    if (!same) r.error("set-up is not deterministic");
    setupSeconds.push_back(next.seconds);
    s = std::move(next);
  }
  tracer.setEnabled(false);
  const std::vector<Span> setupSpans = tracer.collect();
  tracer.clear();

  // ---- untraced pass: the end-to-end numbers ----
  const baselines::MethodPtr plain = plainMethod(opt, s);
  const Pass pass = runPass(*plain, s, nullptr);
  verifySolutions(pass, s, "untraced", r);

  std::size_t solved = 0, candidates = 0;
  std::vector<double> taskMs, usPerCandidate;
  for (const Task& t : pass.tasks) {
    solved += t.found ? 1 : 0;
    candidates += t.candidates;
    taskMs.push_back(t.seconds * 1e3);
    usPerCandidate.push_back(
        t.seconds * 1e6 /
        static_cast<double>(std::max<std::size_t>(t.candidates, 1)));
  }
  if (solved == 0) r.error("no task solved: the workload measures nothing");
  if (!opt.trace) {
    reportEndToEnd(r, setupSeconds,
                   static_cast<double>(candidates) / pass.wall, usPerCandidate,
                   selfPeakRssMb());
    return;
  }

  // ---- traced pass: the per-layer numbers ----
  GeneSampler sampler(kSampleStride);
  std::shared_ptr<fitness::NnffModel> memoModel;
  const baselines::MethodPtr traced = tracedMethod(opt, s, sampler, memoModel);
  tracer.clear();
  tracer.setEnabled(true);
  const Pass tpass = runPass(*traced, s, &sampler);
  tracer.setEnabled(false);
  verifySolutions(tpass, s, "traced", r);

  // Fidelity: the decorators forward every call, so the traced search must
  // be the untraced search, candidate for candidate.
  for (std::size_t p = 0; p < pass.tasks.size(); ++p) {
    const Task& a = pass.tasks[p];
    const Task& b = tpass.tasks[p];
    if (a.found != b.found || a.candidates != b.candidates ||
        a.generations != b.generations || a.nsInvocations != b.nsInvocations ||
        a.solution != b.solution)
      r.error("traced pass diverged from the untraced pass on task " +
              std::to_string(p));
  }

  LayerReport L;
  analyseSpans(tracer.collect(), tpass, L, r);
  tracer.clear();
  if (memoModel) {
    const auto m = memoModel->memoStats();
    L.traceMemoHit = {static_cast<double>(m.traceHits),
                      static_cast<double>(m.traceHits + m.traceMisses)};
    L.traceMemoHitBase = "trace-encoding memo hits / lookups (LCS model clone)";
  }
  replayDsl(opt, s, sampler, L);
  L.taskMsP50 = percentile(taskMs, 50);
  L.taskMsP80 = percentile(taskMs, 80);
  L.solved = static_cast<double>(solved);
  L.candidatesPerSolve = static_cast<double>(candidates) /
                         static_cast<double>(std::max<std::size_t>(solved, 1));
  for (const Task& t : tpass.tasks) {
    L.generations += static_cast<double>(t.generations);
    L.nsInvocations += static_cast<double>(t.nsInvocations);
    L.foundByNs += t.foundByNs ? 1.0 : 0.0;
    L.immigrants += static_cast<double>(t.immigrants);
  }
  L.trainS = setupLayerMedian(setupSpans, Layer::Train, setupRuns);
  L.workloadS = setupLayerMedian(setupSpans, Layer::Workload, setupRuns);
  L.traceOverheadFrac = tpass.wall / pass.wall - 1.0;
  L.emit(r);
}

}  // namespace perfbench
