// The process-wide executor: one fixed set of worker threads that every
// compute stage submits its parallel work to — the parallel experiment
// runner's searches (harness/runner.cpp), the island engine's lockstep
// rounds (core/islands.cpp), the trainer's data-parallel minibatches
// (fitness/minibatch.cpp) and sharded NN grading
// (fitness/neural_fitness.cpp), whose rounds share jobs through
// HelpFirstJobs. One budget owns the cores, so nested stages do not
// oversubscribe and a lone busy search grades on every core.
#pragma once

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace netsyn::util {

/// run(tasks, fn, maxThreads) executes fn(0..tasks-1) as one group and
/// returns when every call finished. The calling thread claims the group's
/// tasks itself, and idle workers help any open group that still has
/// unclaimed tasks and room under its cap, so several groups may be open at
/// once: from different callers, or nested inside a task. A caller never
/// waits for a task nobody has claimed, so a group completes even when every
/// worker is busy elsewhere. Task claiming order is racy on purpose —
/// callers keep their tasks data-isolated, so the schedule cannot influence
/// results. An exception thrown by a task is rethrown by run() (the first
/// one, if several tasks throw) once every task of the group has finished.
///
/// Group lifecycle: a group lives on its caller's stack. Workers join it
/// under the mutex only while it is listed as open and has unclaimed tasks,
/// and leave it under the mutex; the caller unlists it once its own claims
/// run dry and returns only when no worker is left in it. The mutex also
/// publishes the workers' writes to the caller.
class Executor {
 public:
  /// The process-wide executor: hardware threads - 1 workers, started on
  /// first use and kept until the process exits.
  static Executor& instance();

  /// Starts `workers` threads.
  explicit Executor(std::size_t workers);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Threads one group can run on: the workers and the caller.
  std::size_t concurrency() const { return workers_.size() + 1; }

  /// Runs fn(t) for every t < tasks on at most `maxThreads` threads at a
  /// time (the caller included; 0 counts as 1).
  void run(std::size_t tasks, const std::function<void(std::size_t)>& fn,
           std::size_t maxThreads);

 private:
  struct Group;
  /// Claims and runs tasks of `g` until none is left.
  void claimTasks(Group& g);
  /// The first open group a worker may join, or null.
  Group* joinable() const;
  void workerLoop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<Group*> open_;  // guarded by mutex_
  bool stop_ = false;         // guarded by mutex_
  std::vector<std::thread> workers_;
};

/// Job claims for a help-first round on the Executor: every task first
/// helps run the round's jobs from a shared cursor, then awaits the jobs its
/// own result needs. A job runs exactly once, on whichever thread claims
/// it. A task waits only for a job that another thread claimed and is
/// running, never for one that is unclaimed, so a round finishes even when
/// one thread runs every task in turn (a group no worker joins in time).
class HelpFirstJobs {
 public:
  /// Starts a round of `jobs` unclaimed jobs. Call between rounds only.
  void reset(std::size_t jobs) {
    if (capacity_ < jobs) {
      state_ = std::make_unique<std::atomic<int>[]>(jobs);
      capacity_ = jobs;
    }
    for (std::size_t j = 0; j < jobs; ++j)
      state_[j].store(kUnclaimed, std::memory_order_relaxed);
    jobs_ = jobs;
    cursor_.store(0, std::memory_order_relaxed);
  }

  /// Claims and runs jobs (`run(j)`) until every job is claimed.
  template <typename Run>
  void help(const Run& run) {
    for (std::size_t j; (j = cursor_.fetch_add(1)) < jobs_;) tryRun(j, run);
  }

  /// Returns once job j has finished, running it here if nobody has claimed
  /// it yet; its writes are then visible to the caller. False if the job
  /// threw: the exception propagates from the thread that ran it.
  template <typename Run>
  bool await(std::size_t j, const Run& run) {
    if (tryRun(j, run)) return true;
    int s;
    while ((s = state_[j].load(std::memory_order_acquire)) == kClaimed)
      state_[j].wait(s, std::memory_order_acquire);
    return s == kDone;
  }

 private:
  enum : int { kUnclaimed, kClaimed, kDone, kFailed };

  /// Runs job j unless another thread claimed it first.
  template <typename Run>
  bool tryRun(std::size_t j, const Run& run) {
    int expected = kUnclaimed;
    if (!state_[j].compare_exchange_strong(expected, kClaimed,
                                           std::memory_order_relaxed))
      return false;
    try {
      run(j);
    } catch (...) {
      finish(j, kFailed);
      throw;
    }
    finish(j, kDone);
    return true;
  }

  void finish(std::size_t j, int s) {
    state_[j].store(s, std::memory_order_release);
    state_[j].notify_all();
  }

  std::unique_ptr<std::atomic<int>[]> state_;  ///< per job, futex-waitable
  std::size_t capacity_ = 0;
  std::size_t jobs_ = 0;
  std::atomic<std::size_t> cursor_{0};
};

}  // namespace netsyn::util
