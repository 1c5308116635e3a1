// Persistent worker gang: the thread pool behind the island engine's
// lockstep rounds (core/islands.cpp), the trainer's data-parallel
// minibatches (fitness/minibatch.cpp) and sharded NN grading
// (fitness/neural_fitness.cpp), whose rounds share jobs through
// HelpFirstJobs.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace netsyn::util {

/// run(n, fn) executes fn(0..n-1) across the workers and returns when all
/// calls finished. Task claiming order is racy on purpose — callers keep
/// their tasks data-isolated, so the schedule cannot influence results. An
/// exception thrown by a task is rethrown by run() (the first one, if
/// several tasks throw); the gang stays usable for the next round.
///
/// Round lifecycle: workers park on `wake_` until the epoch advances, copy
/// the round's job under the mutex, and register as running. The shared
/// claim cursor `next_` is only touched by registered workers (and, in
/// runWithCaller, by the caller before it waits for the round), and run()
/// waits for the previous round's workers to deregister before resetting
/// it — a straggler from round R can therefore never claim a task of round
/// R+1 (the bug TSan catches if the cursor is reset while a late worker is
/// mid-claim). All counters are mutex-guarded; the mutex also publishes the
/// tasks' writes back to the caller at the end of each round.
class Gang {
 public:
  /// Starts `threads` workers. Each worker calls `atExit` (if set) on its
  /// own thread just before it exits, when the gang is destroyed.
  explicit Gang(std::size_t threads, std::function<void()> atExit = {});
  ~Gang();
  Gang(const Gang&) = delete;
  Gang& operator=(const Gang&) = delete;

  void run(std::size_t tasks, const std::function<void(std::size_t)>& fn);

  /// run(), with the calling thread claiming tasks alongside the workers
  /// instead of sleeping until they finish: a gang of n - 1 workers keeps n
  /// threads busy, and the caller's allocations stay in its own malloc
  /// arena, where later work on that thread reuses them.
  void runWithCaller(std::size_t tasks,
                     const std::function<void(std::size_t)>& fn);

 private:
  void runRound(std::size_t tasks, const std::function<void(std::size_t)>& fn,
                bool callerJoins);
  /// Claims and runs tasks of the current round until none is left. `fn`
  /// is null for a worker that woke after its round finished; such a
  /// worker finds no task left to claim.
  void claimTasks(const std::function<void(std::size_t)>* fn,
                  std::size_t tasks);
  void workerLoop();

  std::function<void()> atExit_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::vector<std::thread> workers_;
  const std::function<void(std::size_t)>* fn_ = nullptr;  // guarded by mutex_
  std::size_t tasks_ = 0;                                 // guarded by mutex_
  std::atomic<std::size_t> next_{0};  ///< claim cursor; see lifecycle above
  std::size_t pending_ = 0;           // guarded by mutex_
  std::size_t running_ = 0;           // guarded by mutex_
  std::uint64_t epoch_ = 0;           // guarded by mutex_
  bool stop_ = false;
  std::exception_ptr error_;
};

/// Job claims for a help-first round on a Gang: every task first helps run
/// the round's jobs from a shared cursor, then awaits the jobs its own
/// result needs. A job runs exactly once, on whichever thread claims it. A
/// task waits only for a job that another thread claimed and is running,
/// never for one that is unclaimed, so a round finishes even when one thread
/// runs every task in turn (a gang whose workers never wake in time).
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
