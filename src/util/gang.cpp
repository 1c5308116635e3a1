#include "util/gang.hpp"

#include <utility>

namespace netsyn::util {

Gang::Gang(std::size_t threads, std::function<void()> atExit)
    : atExit_(std::move(atExit)) {
  workers_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t)
    workers_.emplace_back([this] { workerLoop(); });
}

Gang::~Gang() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void Gang::run(std::size_t tasks, const std::function<void(std::size_t)>& fn) {
  runRound(tasks, fn, /*callerJoins=*/false);
}

void Gang::runWithCaller(std::size_t tasks,
                         const std::function<void(std::size_t)>& fn) {
  runRound(tasks, fn, /*callerJoins=*/true);
}

void Gang::runRound(std::size_t tasks,
                    const std::function<void(std::size_t)>& fn,
                    bool callerJoins) {
  if (tasks == 0) return;
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [&] { return running_ == 0; });  // round R-1 fully parked
  fn_ = &fn;
  tasks_ = tasks;
  next_.store(0);
  pending_ = tasks;
  ++epoch_;
  wake_.notify_all();
  if (callerJoins) {
    // The caller is not registered in running_: it finishes claiming before
    // it waits below, so it can never straggle into the next round.
    lock.unlock();
    claimTasks(&fn, tasks);
    lock.lock();
  }
  done_.wait(lock, [&] { return pending_ == 0 && running_ == 0; });
  fn_ = nullptr;
  if (error_) {
    auto e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void Gang::claimTasks(const std::function<void(std::size_t)>* fn,
                      std::size_t tasks) {
  while (true) {
    const std::size_t t = next_.fetch_add(1);
    if (t >= tasks) break;
    try {
      (*fn)(t);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (--pending_ == 0) done_.notify_all();
  }
}

void Gang::workerLoop() {
  std::uint64_t seen = 0;
  while (true) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t tasks = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) break;
      seen = epoch_;
      fn = fn_;
      tasks = tasks_;
      ++running_;
    }
    claimTasks(fn, tasks);
    std::lock_guard<std::mutex> lock(mutex_);
    if (--running_ == 0) done_.notify_all();
  }
  if (atExit_) atExit_();
}

}  // namespace netsyn::util
