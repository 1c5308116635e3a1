// Tests for util::Gang, the persistent worker pool shared by the island
// engine and the trainer: every task runs exactly once per round, rounds
// are barriers, and a task's exception surfaces from run() without
// poisoning the next round — also when the caller joins the round.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/gang.hpp"

using netsyn::util::Gang;

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
