// Synthesis-service tests: the daemon's jobs must be bit-identical to
// one-shot runs (that is the whole point of serving from warm caches —
// latency changes, results must not), cancellation must not bleed into
// other jobs, checkpoints must resume onto the exact trajectory, and the
// cross-request caches must demonstrably warm up.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <thread>

#include "core/search_state.hpp"
#include "fitness/edit.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "util/json.hpp"

namespace nc = netsyn::core;
namespace nf = netsyn::fitness;
namespace nh = netsyn::harness;
namespace ns = netsyn::service;
namespace nu = netsyn::util;

namespace {

/// Small but non-trivial workload: a couple of length-3 searches finish in
/// well under a second while still running enough generations to exercise
/// caches, NS, and checkpoints.
nh::ExperimentConfig tinyConfig(std::uint64_t seed = 7,
                                std::size_t budget = 600) {
  auto cfg = nh::ExperimentConfig::forScale("ci");
  cfg.programLengths = {3};
  cfg.programsPerLength = 2;
  cfg.examplesPerProgram = 3;
  cfg.runsPerProgram = 2;
  cfg.searchBudget = budget;
  cfg.synthesizer.ga.populationSize = 16;
  cfg.synthesizer.ga.eliteCount = 2;
  cfg.synthesizer.maxGenerations = 150;
  cfg.seed = seed;
  return cfg;
}

/// A job that runs long enough to be cancelled/paused mid-search.
nh::ExperimentConfig longConfig(std::uint64_t seed = 11) {
  auto cfg = tinyConfig(seed, 100000);
  cfg.programLengths = {5};
  cfg.synthesizer.maxGenerations = 100000;
  return cfg;
}

/// One-shot reference: the PR 1 sequential runner over the same config.
nh::MethodReport oneShot(const nh::ExperimentConfig& cfg,
                         const std::string& method) {
  ns::ModelStore store;
  const auto m = ns::makeOneShotMethod(method, cfg, store);
  return nh::runMethod(*m, nh::makeFullWorkload(cfg), cfg, /*verbose=*/false);
}

void expectMatchesOneShot(const ns::JobStatus& job,
                          const nh::MethodReport& report) {
  ASSERT_EQ(job.state, ns::JobState::Done);
  ASSERT_EQ(job.tasks.size(), job.tasksTotal);
  // Report dimensions must survive the terminal-job storage trim.
  EXPECT_EQ(job.programs, report.programs.size());
  EXPECT_GT(job.runsPerProgram, 0u);
  for (const ns::TaskRecord& t : job.tasks) {
    ASSERT_LT(t.program, report.programs.size());
    ASSERT_LT(t.run, report.programs[t.program].runs.size());
    const nh::RunRecord& r = report.programs[t.program].runs[t.run];
    EXPECT_EQ(t.found, r.found) << "p=" << t.program << " k=" << t.run;
    EXPECT_EQ(t.candidates, r.candidates)
        << "p=" << t.program << " k=" << t.run;
    EXPECT_EQ(t.generations, r.generations)
        << "p=" << t.program << " k=" << t.run;
  }
}

}  // namespace

// ------------------------------------------------- determinism ------------

TEST(Service, ConcurrentJobsBitIdenticalToOneShotRuns) {
  ns::SynthService svc(ns::ServiceConfig{.workers = 3, .resultCache = true});
  const std::uint64_t seeds[] = {7, 8, 9};
  std::vector<std::uint64_t> ids;
  for (std::uint64_t s : seeds) ids.push_back(svc.submit(tinyConfig(s), "Edit"));
  // All three jobs in flight at once on the shared pool; each must still
  // report exactly what a lone sequential run reports.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const ns::JobStatus done = svc.wait(ids[i]);
    expectMatchesOneShot(done, oneShot(tinyConfig(seeds[i]), "Edit"));
  }
}

TEST(Service, OracleJobMatchesOneShot) {
  ns::SynthService svc(ns::ServiceConfig{.workers = 2});
  const auto cfg = tinyConfig(21);
  const ns::JobStatus done = svc.wait(svc.submit(cfg, "Oracle_LCS"));
  expectMatchesOneShot(done, oneShot(cfg, "Oracle_LCS"));
}

TEST(Service, IslandsStrategyJobMatchesOneShot) {
  auto cfg = tinyConfig(31, 1200);
  cfg.synthesizer.strategy = nc::SearchStrategy::Islands;
  cfg.synthesizer.islands.count = 2;
  cfg.synthesizer.islands.migrationInterval = 3;
  ns::SynthService svc(ns::ServiceConfig{.workers = 2});
  const ns::JobStatus done = svc.wait(svc.submit(cfg, "Edit"));
  expectMatchesOneShot(done, oneShot(cfg, "Edit"));
}

// ------------------------------------------------- cancellation -----------

TEST(Service, CancelFreesTheWorkerWithoutCorruptingOtherJobs) {
  // One worker: the long job occupies it, the tiny job queues behind.
  ns::SynthService svc(ns::ServiceConfig{.workers = 1});
  const std::uint64_t big = svc.submit(longConfig(), "Edit");
  const auto smallCfg = tinyConfig(5);
  const std::uint64_t small = svc.submit(smallCfg, "Edit");

  EXPECT_TRUE(svc.cancel(big));
  const ns::JobStatus cancelled = svc.wait(big);
  EXPECT_EQ(cancelled.state, ns::JobState::Cancelled);
  EXPECT_LT(cancelled.tasksDone, cancelled.tasksTotal);
  EXPECT_FALSE(svc.cancel(big));  // already terminal

  // The queued job proceeds and is unaffected by its neighbour's death.
  expectMatchesOneShot(svc.wait(small), oneShot(smallCfg, "Edit"));
}

// ------------------------------------------------- checkpoint/resume ------

TEST(SearchStateSnapshot, ResumedCheckpointFinishesWithTheSameWinner) {
  const auto cfg = tinyConfig(3, 2000);
  const auto workload = nh::makeFullWorkload(cfg);
  const nh::TestProgram& tp = workload[1];
  const auto sc = nh::methodSearchConfig(cfg, "Edit");
  const auto fit = std::make_shared<nf::EditDistanceFitness>();

  // Uninterrupted reference run.
  netsyn::util::Rng rngA = nh::runSeedRng(cfg, 1, 0);
  nc::SearchBudget budgetA(cfg.searchBudget);
  nc::SearchState stateA(sc, fit, nullptr, tp.spec, tp.length, budgetA, rngA);
  auto statusA = stateA.seed();
  while (statusA == nc::SearchState::Status::Running) statusA = stateA.step();
  const nc::SynthesisResult expected = stateA.finish();

  // Same search, frozen after three generations and rebuilt from the
  // snapshot (fresh budget, copied rng, fresh executor).
  netsyn::util::Rng rngB = nh::runSeedRng(cfg, 1, 0);
  std::optional<nc::SynthesisResult> resumedResult;
  {
    nc::SearchBudget budgetB(cfg.searchBudget);
    nc::SearchState stateB(sc, fit, nullptr, tp.spec, tp.length, budgetB,
                           rngB);
    auto statusB = stateB.seed();
    std::size_t steps = 0;
    while (statusB == nc::SearchState::Status::Running && steps < 3) {
      statusB = stateB.step();
      ++steps;
    }
    if (statusB != nc::SearchState::Status::Running) {
      // Degenerate seed (solved in < 3 generations): the snapshot pin is
      // vacuous, but equality must still hold.
      resumedResult = stateB.finish();
    } else {
      ASSERT_GE(steps, 3u) << "config too easy to pin checkpointing";
      const nc::SearchState::Snapshot snap = stateB.snapshot();
      netsyn::util::Rng rngC = rngB;  // the checkpointed generator copy
      nc::SearchBudget budgetC =
          nc::SearchBudget::resumed(snap.budgetLimit, snap.budgetUsed);
      nc::SearchState stateC(snap, fit, nullptr, tp.spec, budgetC, rngC);
      auto statusC = nc::SearchState::Status::Running;
      while (statusC == nc::SearchState::Status::Running)
        statusC = stateC.step();
      resumedResult = stateC.finish();
    }
  }

  EXPECT_EQ(resumedResult->found, expected.found);
  EXPECT_EQ(resumedResult->candidatesSearched, expected.candidatesSearched);
  EXPECT_EQ(resumedResult->generations, expected.generations);
  EXPECT_EQ(resumedResult->nsInvocations, expected.nsInvocations);
  EXPECT_DOUBLE_EQ(resumedResult->bestFitness, expected.bestFitness);
  if (expected.found) {
    EXPECT_EQ(resumedResult->solution.functions(),
              expected.solution.functions());
  }
}

TEST(Service, PauseResumeJobMatchesOneShot) {
  ns::SynthService svc(ns::ServiceConfig{.workers = 2});
  const auto cfg = tinyConfig(13, 4000);
  const std::uint64_t id = svc.submit(cfg, "Edit");
  // Pause may land before, during, or after the tasks — every interleaving
  // must end in the same report.
  if (svc.pause(id)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(svc.resume(id));
  }
  expectMatchesOneShot(svc.wait(id), oneShot(cfg, "Edit"));
}

TEST(Service, PausedLongJobCheckpointsAndResumes) {
  ns::SynthService svc(ns::ServiceConfig{.workers = 1});
  const std::uint64_t id = svc.submit(longConfig(17), "Edit");
  // Pause only once a worker is actually mid-search — pausing a still-
  // queued job parks its tasks without a checkpoint, which is legal but
  // not the path this test pins.
  for (int i = 0; i < 200 && svc.status(id).state == ns::JobState::Queued;
       ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(svc.status(id).state, ns::JobState::Running);
  ASSERT_TRUE(svc.pause(id));
  // The in-flight task parks at its next generation boundary.
  for (int i = 0; i < 200 && svc.stats().checkpointsTaken == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(svc.stats().checkpointsTaken, 0u);
  EXPECT_EQ(svc.status(id).state, ns::JobState::Paused);
  EXPECT_TRUE(svc.resume(id));
  EXPECT_TRUE(svc.cancel(id));  // don't wait out the 100k budget
  EXPECT_EQ(svc.wait(id).state, ns::JobState::Cancelled);
}

// ------------------------------------------------- cross-request caches ---

TEST(Service, IdenticalResubmissionHitsTheResultCache) {
  ns::SynthService svc(ns::ServiceConfig{.workers = 1, .resultCache = true});
  const auto cfg = tinyConfig(19);
  const ns::JobStatus first = svc.wait(svc.submit(cfg, "Edit"));
  const ns::JobStatus second = svc.wait(svc.submit(cfg, "Edit"));
  EXPECT_FALSE(first.fromCache);
  EXPECT_TRUE(second.fromCache);
  EXPECT_EQ(svc.stats().resultCacheHits, 1u);
  ASSERT_EQ(second.tasks.size(), first.tasks.size());
  for (std::size_t i = 0; i < first.tasks.size(); ++i) {
    EXPECT_EQ(second.tasks[i].found, first.tasks[i].found);
    EXPECT_EQ(second.tasks[i].candidates, first.tasks[i].candidates);
  }
}

TEST(Service, SecondSubmissionOfIdenticalSpecReportsWarmPlanCache) {
  // Result memo off: the second job really searches — through the worker's
  // persistent executor, whose plan cache the first job already filled.
  ns::SynthService svc(ns::ServiceConfig{.workers = 1, .resultCache = false});
  const auto cfg = tinyConfig(23, 400);
  const ns::JobStatus first = svc.wait(svc.submit(cfg, "Edit"));
  const ns::JobStatus second = svc.wait(svc.submit(cfg, "Edit"));
  EXPECT_FALSE(second.fromCache);
  ASSERT_GT(first.planCompiles, 0u);
  // Identical trajectory, warm cache: the rerun compiles (almost) nothing.
  EXPECT_LT(second.planCompiles * 2, first.planCompiles);
  EXPECT_GT(second.planHits(), 0u);
  // And the results are still bit-identical to the cold run.
  ASSERT_EQ(second.tasks.size(), first.tasks.size());
  for (std::size_t i = 0; i < first.tasks.size(); ++i) {
    EXPECT_EQ(second.tasks[i].found, first.tasks[i].found);
    EXPECT_EQ(second.tasks[i].candidates, first.tasks[i].candidates);
    EXPECT_EQ(second.tasks[i].generations, first.tasks[i].generations);
  }
}

TEST(Service, AttachedTerminalJobOutlivesTheNextEviction) {
  // The attached job is the oldest history entry each time it is joined;
  // another job then ends. The join must make it the newest entry, or that
  // job's end evicts it once the history is full and the client's wait
  // reads "unknown job". 300 rounds outlast any bounded history.
  ns::SynthService svc(ns::ServiceConfig{.workers = 1, .resultCache = true});
  const auto attachedCfg = tinyConfig(29);
  const auto fillerCfg = tinyConfig(31);
  const std::uint64_t attached = svc.submit(attachedCfg, "Edit");
  ASSERT_EQ(svc.wait(attached).state, ns::JobState::Done);
  ASSERT_EQ(svc.wait(svc.submit(fillerCfg, "Edit")).state,
            ns::JobState::Done);
  ns::SubmitOptions join;
  join.attach = true;
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const ns::SubmitResult joined = svc.submit(attachedCfg, "Edit", join);
    ASSERT_TRUE(joined.attached);
    ASSERT_EQ(joined.id, attached);
    // A result-cache hit: a new job that ends at submit.
    const std::uint64_t filler = svc.submit(fillerCfg, "Edit");
    ASSERT_EQ(svc.status(filler).state, ns::JobState::Done);
    ASSERT_NO_THROW(svc.status(attached));
    const ns::JobStatus done = svc.wait(attached);
    ASSERT_EQ(done.state, ns::JobState::Done);
    ASSERT_EQ(done.tasks.size(), done.tasksTotal);
  }
}

// ------------------------------------------------- API edges --------------

TEST(Service, UnknownJobAndMethodAreLoud) {
  ns::SynthService svc(ns::ServiceConfig{.workers = 1});
  EXPECT_THROW(svc.status(999), std::out_of_range);
  EXPECT_THROW(svc.wait(999), std::out_of_range);
  EXPECT_THROW(svc.submit(tinyConfig(), "PushGP"), std::invalid_argument);
  EXPECT_THROW(svc.submit(tinyConfig(), "edit"), std::invalid_argument);
}

TEST(Service, ShutdownCancelsOutstandingJobs) {
  ns::SynthService svc(ns::ServiceConfig{.workers = 1});
  const std::uint64_t id = svc.submit(longConfig(29), "Edit");
  svc.shutdown();
  EXPECT_EQ(svc.status(id).state, ns::JobState::Cancelled);
  EXPECT_THROW(svc.submit(tinyConfig(), "Edit"), std::runtime_error);
  svc.shutdown();  // idempotent
}

// ------------------------------------------------- protocol ---------------

namespace {

std::vector<nu::JsonValue> runSession(const std::string& requests,
                                      std::size_t workers = 2) {
  ns::SynthService svc(ns::ServiceConfig{.workers = workers});
  std::istringstream in(requests);
  std::ostringstream out;
  ns::serveLines(svc, in, out);
  std::vector<nu::JsonValue> responses;
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line))
    if (!line.empty()) responses.push_back(nu::parseJson(line));
  return responses;
}

bool okOf(const nu::JsonValue& v) {
  const nu::JsonValue* ok = v.find("ok");
  return ok && ok->kind == nu::JsonValue::Kind::Bool && ok->boolean;
}

}  // namespace

TEST(ServiceProtocol, FullSessionOverLines) {
  const auto cfg = tinyConfig(37);
  const std::string submit =
      "{\"op\": \"submit\", \"method\": \"Edit\", \"config\": " +
      cfg.toJson();
  std::ostringstream script;
  script << "{\"op\": \"ping\"}\n"
         << "not json at all\n"
         << "{\"op\": \"status\", \"job\": 42}\n"
         << submit << "}\n"
         << submit << ", \"attach\": true}\n"
         << "{\"op\": \"wait\", \"job\": 1}\n"
         << submit << "}\n"
         << "{\"op\": \"metrics\"}\n"
         << "{\"op\": \"nonsense\"}\n"
         << "{\"op\": \"stats\"}\n"
         << "{\"op\": \"shutdown\"}\n";
  const auto responses = runSession(script.str());
  ASSERT_EQ(responses.size(), 11u);

  const auto flag = [](const nu::JsonValue& v, const char* key) {
    bool b = false;
    nu::readBool(v, key, b);
    return b;
  };
  const auto jobOf = [](const nu::JsonValue& v) {
    return nu::jsonUnsigned(*v.find("job"), "job");
  };

  EXPECT_TRUE(okOf(responses[0]));   // ping
  EXPECT_FALSE(okOf(responses[1]));  // garbage line -> error, session lives
  EXPECT_FALSE(okOf(responses[2]));  // unknown job
  ASSERT_TRUE(okOf(responses[3]));   // submit echoes the job status
  EXPECT_EQ(jobOf(responses[3]), 1u);
  EXPECT_FALSE(flag(responses[3], "attached"));
  // An attach resubmission joins the tracked job instead of starting one.
  ASSERT_TRUE(okOf(responses[4]));
  EXPECT_TRUE(flag(responses[4], "attached"));
  EXPECT_EQ(jobOf(responses[4]), 1u);

  const nu::JsonValue& done = responses[5];
  ASSERT_TRUE(okOf(done));
  std::string state;
  nu::readString(done, "state", state);
  EXPECT_EQ(state, "done");
  const nu::JsonValue* tasks = done.find("tasks");
  ASSERT_NE(tasks, nullptr);
  EXPECT_EQ(tasks->items.size(),
            cfg.programsPerLength * cfg.runsPerProgram);
  // The terminal response carries the derived report aggregates.
  EXPECT_NE(done.find("synthesized_fraction"), nullptr);
  EXPECT_NE(done.find("plan_hits"), nullptr);

  // An identical plain resubmission is answered from the result memo.
  ASSERT_TRUE(okOf(responses[6]));
  EXPECT_TRUE(flag(responses[6], "from_cache"));
  EXPECT_FALSE(flag(responses[6], "attached"));
  EXPECT_EQ(jobOf(responses[6]), 2u);
  nu::readString(responses[6], "state", state);
  EXPECT_EQ(state, "done");

  ASSERT_TRUE(okOf(responses[7]));  // metrics carries the session counters
  EXPECT_EQ(nu::jsonUnsigned(*responses[7].find("jobs_submitted"), "n"), 2u);
  EXPECT_EQ(nu::jsonUnsigned(*responses[7].find("result_cache_hits"), "n"),
            1u);
  EXPECT_EQ(nu::jsonUnsigned(*responses[7].find("attach_hits"), "n"), 1u);
  EXPECT_FALSE(okOf(responses[8]));  // unknown op
  // "stats" was folded into "metrics": it is an unknown op like any other.
  ASSERT_FALSE(okOf(responses[9]));
  std::string error;
  nu::readString(responses[9], "error", error);
  EXPECT_EQ(error, "unknown op 'stats'");
  EXPECT_TRUE(okOf(responses[10]));  // shutdown
}

TEST(ServiceProtocol, WaitOnAPausedJobReturnsInsteadOfDeadlocking) {
  // serveLines handles requests strictly sequentially, so the resume that
  // would finish a paused job can only come from this same session: a
  // blocking wait here would hang the daemon forever.
  std::ostringstream script;
  script << "{\"op\": \"submit\", \"method\": \"Edit\", \"config\": "
         << longConfig(41).toJson() << "}\n"
         << "{\"op\": \"pause\", \"job\": 1}\n"
         << "{\"op\": \"wait\", \"job\": 1}\n"
         << "{\"op\": \"cancel\", \"job\": 1}\n"
         << "{\"op\": \"wait\", \"job\": 1}\n"
         << "{\"op\": \"shutdown\"}\n";
  const auto responses = runSession(script.str(), 1);
  ASSERT_EQ(responses.size(), 6u);
  ASSERT_TRUE(okOf(responses[2]));  // wait returned — no deadlock
  std::string state;
  nu::readString(responses[2], "state", state);
  EXPECT_EQ(state, "paused");
  nu::readString(responses[4], "state", state);
  EXPECT_EQ(state, "cancelled");
}

TEST(ServiceProtocol, SubmitValidatesConfigAndMethod) {
  const auto responses = runSession(
      "{\"op\": \"submit\", \"method\": \"Edit\"}\n"
      "{\"op\": \"submit\", \"method\": \"Nope\", \"config\": {}}\n"
      "{\"op\": \"submit\", \"method\": \"Edit\", \"config\": "
      "{\"synthesizer\": {\"population_size\": 0}}}\n"
      "{\"op\": \"shutdown\"}\n",
      1);
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_FALSE(okOf(responses[0]));  // missing config
  EXPECT_FALSE(okOf(responses[1]));  // unknown method
  EXPECT_FALSE(okOf(responses[2]));  // invalid config value
  EXPECT_TRUE(okOf(responses[3]));
}
