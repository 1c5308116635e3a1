// Tests for util::Gang, the persistent worker pool shared by the island
// engine, the trainer and NN grading: every task runs exactly once per
// round, rounds are barriers, and a task's exception surfaces from run()
// without poisoning the next round — also when the caller joins the round.
// And for HelpFirstJobs, the job claims of NN grading's rounds: every job
// runs once, an awaiter sees its writes, and a round finishes even when one
// thread runs every task.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/gang.hpp"

using netsyn::util::Gang;
using netsyn::util::HelpFirstJobs;

TEST(Gang, RunsEveryTaskOnceWithMoreTasksThanThreads) {
  Gang gang(3);
  std::vector<std::atomic<int>> hits(100);
  gang.run(hits.size(), [&](std::size_t t) { hits[t].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Gang, ZeroTasksReturnsAtOnce) {
  Gang gang(2);
  std::atomic<int> calls{0};
  gang.run(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  // The gang still works after an empty round.
  gang.run(4, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 4);
}

TEST(Gang, BackToBackRoundsAreBarriers) {
  Gang gang(4);
  std::vector<int> values(16, 0);
  for (int round = 1; round <= 50; ++round) {
    // Each round reads what the previous round wrote: run() must not
    // return before every task finished, nor let a task straddle rounds.
    gang.run(values.size(), [&](std::size_t t) {
      EXPECT_EQ(values[t], round - 1);
      values[t] = round;
    });
    for (int v : values) ASSERT_EQ(v, round);
  }
}

TEST(Gang, TaskExceptionIsRethrownAndTheNextRoundWorks) {
  Gang gang(3);
  std::vector<std::atomic<int>> hits(9);
  EXPECT_THROW(gang.run(hits.size(),
                        [&](std::size_t t) {
                          hits[t].fetch_add(1);
                          if (t == 4) throw std::runtime_error("task 4");
                        }),
               std::runtime_error);
  // The failing round still ran every task.
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  std::atomic<int> calls{0};
  gang.run(7, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 7);
}

TEST(Gang, RunWithCallerSharesTheTasksWithTheCallingThread) {
  // No workers: the caller runs every task itself.
  Gang none(0);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ranOn(6);
  none.runWithCaller(ranOn.size(),
                     [&](std::size_t t) { ranOn[t] = std::this_thread::get_id(); });
  for (const auto& id : ranOn) EXPECT_EQ(id, caller);

  // With workers: every task once per round, rounds are barriers, and a
  // task's exception is rethrown without breaking the next round.
  Gang gang(2);
  std::vector<int> values(11, 0);
  for (int round = 1; round <= 30; ++round) {
    gang.runWithCaller(values.size(), [&](std::size_t t) {
      EXPECT_EQ(values[t], round - 1);
      values[t] = round;
    });
    for (int v : values) ASSERT_EQ(v, round);
  }
  EXPECT_THROW(gang.runWithCaller(5,
                                  [](std::size_t t) {
                                    if (t == 2) throw std::runtime_error("2");
                                  }),
               std::runtime_error);
  std::atomic<int> calls{0};
  gang.runWithCaller(9, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 9);
  gang.run(4, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 13);
}

TEST(Gang, AtExitRunsOnceOnEveryWorkerThread) {
  std::mutex mutex;
  std::set<std::thread::id> exited;
  int calls = 0;
  {
    Gang gang(3, [&] {
      std::lock_guard<std::mutex> lock(mutex);
      ++calls;
      exited.insert(std::this_thread::get_id());
    });
    std::atomic<int> ran{0};
    gang.run(5, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 5);
    EXPECT_EQ(calls, 0);  // only when the gang is destroyed
  }
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(exited.size(), 3u);
  EXPECT_EQ(exited.count(std::this_thread::get_id()), 0u);
}

namespace {

/// One help-first round on `gang`: `tasks` tasks over `n` jobs, task t
/// awaiting jobs [n * t / tasks, n * (t + 1) / tasks). `job(j)` runs job
/// j; `seen[j]` is the value each awaiting task read back after await().
void helpFirstRound(Gang& gang, HelpFirstJobs& jobs, std::size_t tasks,
                    std::size_t n, bool help,
                    const std::function<void(std::size_t)>& job,
                    const std::vector<int>& values, std::vector<int>& seen) {
  jobs.reset(n);
  gang.runWithCaller(tasks, [&](std::size_t t) {
    if (help) jobs.help(job);
    for (std::size_t j = n * t / tasks; j < n * (t + 1) / tasks; ++j) {
      if (!jobs.await(j, job)) return;
      seen[j] = values[j];
    }
  });
}

}  // namespace

TEST(HelpFirstJobs, RoundFinishesWhenTheCallerRunsEveryTask) {
  // No workers: the caller runs the tasks one after another. Task 0 helps
  // itself to every job before any other task starts, and a task that
  // skips helping runs its unclaimed jobs inside await(). Neither may wait
  // for a task that has not started.
  Gang none(0);
  HelpFirstJobs jobs;
  for (const bool help : {true, false})
    for (const std::size_t tasks : {1, 3, 8}) {
      constexpr std::size_t kJobs = 20;
      std::vector<int> values(kJobs, 0), seen(kJobs, -1), runs(kJobs, 0);
      helpFirstRound(
          none, jobs, tasks, kJobs, help,
          [&](std::size_t j) {
            ++runs[j];
            values[j] = static_cast<int>(j) + 1;
          },
          values, seen);
      for (std::size_t j = 0; j < kJobs; ++j) {
        EXPECT_EQ(runs[j], 1) << "job " << j;
        EXPECT_EQ(seen[j], static_cast<int>(j) + 1) << "job " << j;
      }
    }
}

TEST(HelpFirstJobs, EveryJobRunsOnceAndAwaitSeesItsWrites) {
  Gang gang(3);
  HelpFirstJobs jobs;
  constexpr std::size_t kJobs = 37;
  for (int round = 0; round < 50; ++round) {
    std::vector<int> values(kJobs, 0), seen(kJobs, -1);
    std::vector<std::atomic<int>> runs(kJobs);
    helpFirstRound(
        gang, jobs, 4, kJobs, round % 2 == 0,
        [&](std::size_t j) {
          runs[j].fetch_add(1);
          values[j] = round * 100 + static_cast<int>(j);
        },
        values, seen);
    for (std::size_t j = 0; j < kJobs; ++j) {
      ASSERT_EQ(runs[j].load(), 1) << "round " << round << " job " << j;
      ASSERT_EQ(seen[j], round * 100 + static_cast<int>(j));
    }
  }
}

TEST(HelpFirstJobs, AFailedJobEndsItsAwaitersAndTheRoundRethrows) {
  Gang gang(2);
  HelpFirstJobs jobs;
  constexpr std::size_t kJobs = 12;
  std::vector<int> values(kJobs, 0), seen(kJobs, -1);
  EXPECT_THROW(helpFirstRound(
                   gang, jobs, 3, kJobs, true,
                   [&](std::size_t j) {
                     if (j == 5) throw std::runtime_error("job 5");
                     values[j] = 1;
                   },
                   values, seen),
               std::runtime_error);
  EXPECT_EQ(seen[5], -1);
  // The next round on the same board works.
  std::fill(seen.begin(), seen.end(), -1);
  helpFirstRound(
      gang, jobs, 3, kJobs, true, [&](std::size_t j) { values[j] = 2; },
      values, seen);
  for (int v : seen) EXPECT_EQ(v, 2);
}
