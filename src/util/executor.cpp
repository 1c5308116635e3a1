#include "util/executor.hpp"

#include <algorithm>

namespace netsyn::util {

struct Executor::Group {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t tasks = 0;
  std::size_t maxHelpers = 0;        ///< workers allowed in at once
  std::atomic<std::size_t> next{0};  ///< claim cursor
  std::size_t helpers = 0;           // guarded by mutex_
  std::exception_ptr error;          // guarded by mutex_
  std::condition_variable left;      ///< the last helper left
};

Executor& Executor::instance() {
  // Never destroyed: a thread still inside run() while the process exits (a
  // service job loop, say) must not find the workers gone.
  static Executor* const executor =
      new Executor(std::max(1u, std::thread::hardware_concurrency()) - 1);
  return *executor;
}

Executor::Executor(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    workers_.emplace_back([this] { workerLoop(); });
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void Executor::run(std::size_t tasks,
                   const std::function<void(std::size_t)>& fn,
                   std::size_t maxThreads) {
  if (tasks == 0) return;
  Group g;
  g.fn = &fn;
  g.tasks = tasks;
  g.maxHelpers =
      std::min({std::max<std::size_t>(maxThreads, 1), tasks, concurrency()}) -
      1;
  if (g.maxHelpers > 0) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_.push_back(&g);
    }
    // Workers that the cap or another group leaves out go back to sleep.
    wake_.notify_all();
  }
  claimTasks(g);
  if (g.maxHelpers > 0) {
    std::unique_lock<std::mutex> lock(mutex_);
    open_.erase(std::find(open_.begin(), open_.end(), &g));
    g.left.wait(lock, [&] { return g.helpers == 0; });
  }
  if (g.error) std::rethrow_exception(g.error);
}

void Executor::claimTasks(Group& g) {
  for (std::size_t t; (t = g.next.fetch_add(1)) < g.tasks;) {
    try {
      (*g.fn)(t);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!g.error) g.error = std::current_exception();
    }
  }
}

Executor::Group* Executor::joinable() const {
  for (Group* g : open_)
    if (g->helpers < g->maxHelpers && g->next.load() < g->tasks) return g;
  return nullptr;
}

void Executor::workerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    Group* g = nullptr;
    wake_.wait(lock, [&] { return stop_ || (g = joinable()) != nullptr; });
    if (stop_) return;
    ++g->helpers;
    lock.unlock();
    claimTasks(*g);
    lock.lock();
    if (--g->helpers == 0) g->left.notify_one();
  }
}

}  // namespace netsyn::util
