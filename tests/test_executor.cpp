// Tests for util::Executor, the process-wide worker set behind the parallel
// runner, the island engine, the trainer and NN grading: every task runs
// exactly once per group, groups are barriers, a task's exception surfaces
// from run() without poisoning the next group, groups from several callers
// and nested groups share the workers, the per-group thread cap holds, every
// worker can join one group, and a group completes on its caller alone
// while every worker is held elsewhere. And for HelpFirstJobs, the job
// claims of NN grading's rounds: every job runs once, an awaiter sees its
// writes, and a round finishes even when one thread runs every task.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/executor.hpp"

using netsyn::util::Executor;
using netsyn::util::HelpFirstJobs;

namespace {

constexpr auto kPatience = std::chrono::seconds(10);

/// A count that threads raise and wait on, with a timeout so a broken
/// executor fails the test instead of hanging it.
class Arrivals {
 public:
  void arrive() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++count_;
    changed_.notify_all();
  }
  /// True once `n` threads arrived; false after kPatience.
  bool awaitCount(int n) {
    std::unique_lock<std::mutex> lock(mutex_);
    return changed_.wait_for(lock, kPatience, [&] { return count_ >= n; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable changed_;
  int count_ = 0;
};

}  // namespace

TEST(Executor, RunsEveryTaskOnceWithMoreTasksThanThreads) {
  Executor executor(3);
  std::vector<std::atomic<int>> hits(100);
  executor.run(hits.size(), [&](std::size_t t) { hits[t].fetch_add(1); }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Executor, ZeroTasksReturnsAtOnce) {
  Executor executor(2);
  std::atomic<int> calls{0};
  executor.run(0, [&](std::size_t) { calls.fetch_add(1); }, 3);
  EXPECT_EQ(calls.load(), 0);
  // The executor still works after an empty group.
  executor.run(4, [&](std::size_t) { calls.fetch_add(1); }, 3);
  EXPECT_EQ(calls.load(), 4);
}

TEST(Executor, BackToBackGroupsAreBarriers) {
  Executor executor(4);
  std::vector<int> values(16, 0);
  for (int round = 1; round <= 50; ++round) {
    // Each group reads what the previous group wrote: run() must not
    // return before every task finished, nor let a task straddle groups.
    executor.run(
        values.size(),
        [&](std::size_t t) {
          EXPECT_EQ(values[t], round - 1);
          values[t] = round;
        },
        5);
    for (int v : values) ASSERT_EQ(v, round);
  }
}

TEST(Executor, TaskExceptionIsRethrownAndTheNextGroupWorks) {
  Executor executor(3);
  std::vector<std::atomic<int>> hits(9);
  EXPECT_THROW(executor.run(
                   hits.size(),
                   [&](std::size_t t) {
                     hits[t].fetch_add(1);
                     if (t == 4) throw std::runtime_error("task 4");
                   },
                   4),
               std::runtime_error);
  // The failing group still ran every task.
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  std::atomic<int> calls{0};
  executor.run(7, [&](std::size_t) { calls.fetch_add(1); }, 4);
  EXPECT_EQ(calls.load(), 7);
}

TEST(Executor, CallerRunsEveryTaskWithoutWorkersOrUnderACapOfOne) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ranOn(6);
  const auto record = [&](std::size_t t) {
    ranOn[t] = std::this_thread::get_id();
  };
  Executor none(0);
  EXPECT_EQ(none.concurrency(), 1u);
  none.run(ranOn.size(), record, 4);
  for (const auto& id : ranOn) EXPECT_EQ(id, caller);

  Executor executor(2);
  std::fill(ranOn.begin(), ranOn.end(), std::thread::id());
  executor.run(ranOn.size(), record, 1);
  for (const auto& id : ranOn) EXPECT_EQ(id, caller);
  EXPECT_THROW(executor.run(5,
                            [](std::size_t t) {
                              if (t == 2) throw std::runtime_error("2");
                            },
                            1),
               std::runtime_error);
}

TEST(Executor, TheProcessWideInstanceHasOneThreadPerHardwareThread) {
  Executor& executor = Executor::instance();
  EXPECT_EQ(&executor, &Executor::instance());
  EXPECT_EQ(executor.concurrency(),
            std::max(1u, std::thread::hardware_concurrency()));
  std::atomic<int> calls{0};
  executor.run(10, [&](std::size_t) { calls.fetch_add(1); },
               executor.concurrency());
  EXPECT_EQ(calls.load(), 10);
}

TEST(Executor, TwoCallersRunGroupsAtOnce) {
  Executor executor(3);
  constexpr std::size_t kTasks = 13;
  std::vector<std::vector<int>> values(2, std::vector<int>(kTasks, 0));
  const auto caller = [&](std::size_t c) {
    for (int round = 1; round <= 100; ++round) {
      executor.run(
          kTasks,
          [&](std::size_t t) {
            EXPECT_EQ(values[c][t], round - 1);
            values[c][t] = round;
          },
          3);
      for (int v : values[c]) ASSERT_EQ(v, round);
    }
  };
  std::thread other(caller, 1);
  caller(0);
  other.join();
  for (const auto& v : values)
    for (int x : v) EXPECT_EQ(x, 100);
}

TEST(Executor, AGroupRunsInsideATask) {
  // Every thread holds an outer task (when all four arrive in time) while
  // it runs an inner group, so inner groups nest on workers too.
  Executor executor(3);
  Arrivals started;
  std::vector<std::atomic<int>> hits(4 * 10);
  executor.run(
      4,
      [&](std::size_t outer) {
        started.arrive();
        started.awaitCount(4);
        executor.run(
            10, [&](std::size_t inner) { hits[outer * 10 + inner]++; }, 3);
        // The inner group is complete when its run() returns.
        for (std::size_t i = 0; i < 10; ++i)
          EXPECT_EQ(hits[outer * 10 + i].load(), 1);
      },
      4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Executor, NoMoreThanMaxThreadsWorkOnAGroup) {
  Executor executor(3);
  std::atomic<int> active{0};
  std::atomic<int> peak{0};
  executor.run(
      24,
      [&](std::size_t) {
        const int now = active.fetch_add(1) + 1;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        active.fetch_sub(1);
      },
      2);
  EXPECT_LE(peak.load(), 2);
}

TEST(Executor, EveryWorkerJoinsOneGroup) {
  // Four tasks that each wait until all four are running: only the caller
  // and all three workers together can finish the group in time. A lone
  // busy search grades on every core this way.
  Executor executor(3);
  // Let every worker park first, so each one has to be woken.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Arrivals arrived;
  std::atomic<int> complete{0};
  executor.run(
      4,
      [&](std::size_t) {
        arrived.arrive();
        if (arrived.awaitCount(4)) complete.fetch_add(1);
      },
      4);
  EXPECT_EQ(complete.load(), 4);
}

TEST(Executor, AGroupCompletesOnItsCallerWhileEveryWorkerIsHeld) {
  // Two workers and a second caller sit in a task of group A until
  // `release`; meanwhile this thread's group B must complete on this thread
  // alone, without waiting for a worker.
  Executor executor(2);
  Arrivals held;
  std::mutex mutex;
  std::condition_variable changed;
  bool release = false;  // guarded by mutex
  bool bDone = false;    // guarded by mutex
  const auto waitFor = [&](const bool& flag) {
    std::unique_lock<std::mutex> lock(mutex);
    changed.wait_for(lock, kPatience, [&] { return flag; });
  };
  const auto set = [&](bool& flag) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      flag = true;
    }
    changed.notify_all();
  };
  std::thread a([&] {
    executor.run(
        3,
        [&](std::size_t) {
          held.arrive();
          waitFor(release);
        },
        3);
  });
  // A broken executor whose caller waits for a worker would hang in B: the
  // hold ends after kPatience either way, and B must have finished before.
  std::thread unhold([&] {
    waitFor(bDone);
    set(release);
  });
  const bool allHeld = held.awaitCount(3);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ranOn(8);
  executor.run(
      ranOn.size(),
      [&](std::size_t t) { ranOn[t] = std::this_thread::get_id(); }, 3);
  bool releasedFirst;
  {
    std::lock_guard<std::mutex> lock(mutex);
    releasedFirst = release;
  }
  set(bDone);
  unhold.join();
  a.join();
  ASSERT_TRUE(allHeld);
  EXPECT_FALSE(releasedFirst);
  for (const auto& id : ranOn) EXPECT_EQ(id, caller);
}

namespace {

/// One help-first round on `executor`: `tasks` tasks over `n` jobs, task t
/// awaiting jobs [n * t / tasks, n * (t + 1) / tasks). `job(j)` runs job
/// j; `seen[j]` is the value each awaiting task read back after await().
void helpFirstRound(Executor& executor, HelpFirstJobs& jobs,
                    std::size_t tasks, std::size_t n, bool help,
                    const std::function<void(std::size_t)>& job,
                    const std::vector<int>& values, std::vector<int>& seen) {
  jobs.reset(n);
  executor.run(
      tasks,
      [&](std::size_t t) {
        if (help) jobs.help(job);
        for (std::size_t j = n * t / tasks; j < n * (t + 1) / tasks; ++j) {
          if (!jobs.await(j, job)) return;
          seen[j] = values[j];
        }
      },
      tasks);
}

}  // namespace

TEST(HelpFirstJobs, RoundFinishesWhenTheCallerRunsEveryTask) {
  // No workers: the caller runs the tasks one after another. Task 0 helps
  // itself to every job before any other task starts, and a task that
  // skips helping runs its unclaimed jobs inside await(). Neither may wait
  // for a task that has not started.
  Executor none(0);
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
  Executor executor(3);
  HelpFirstJobs jobs;
  constexpr std::size_t kJobs = 37;
  for (int round = 0; round < 50; ++round) {
    std::vector<int> values(kJobs, 0), seen(kJobs, -1);
    std::vector<std::atomic<int>> runs(kJobs);
    helpFirstRound(
        executor, jobs, 4, kJobs, round % 2 == 0,
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
  Executor executor(2);
  HelpFirstJobs jobs;
  constexpr std::size_t kJobs = 12;
  std::vector<int> values(kJobs, 0), seen(kJobs, -1);
  EXPECT_THROW(helpFirstRound(
                   executor, jobs, 3, kJobs, true,
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
      executor, jobs, 3, kJobs, true, [&](std::size_t j) { values[j] = 2; },
      values, seen);
  for (int v : seen) EXPECT_EQ(v, 2);
}
