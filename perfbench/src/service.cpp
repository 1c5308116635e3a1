// service_durable: a closed loop against one synthd daemon serving a Unix
// socket with 2 workers and durable state (job manifests, task records and
// done markers written with fsync and atomic rename). Two client
// connections each send submit, then wait, then one status per job; a
// quarter of the submissions repeat one of the client's earlier configs
// with attach:true, the rest are fresh Edit jobs (2 length-4 programs,
// budget 2,000) alternating between the list and str domains. The service,
// protocol and durability layers dominate.
//
// The daemon's state directory sits in the run's work directory inside the
// checkout (the record stamps its filesystem), which is disk, not tmpfs.
// Periodic search snapshots are off (--checkpoint-interval=0): on disk,
// snapshots every 10 generations spend most of the loop in fsync and the
// loop's speed swings by a quarter from run to run with the device's recent
// write history (every 40: still 18%), wider than any bound can hold.
//
// Set-up is spawn to first ping plus one warm-up job, repeated; the median
// is setup_s. Every
// fresh job's task records are compared against a one-shot
// harness::runMethod of the same config after the timed loop.
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fcntl.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "service/service.hpp"
#include "trace.hpp"
#include "util/hashing.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"
#include "util/transport.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

using namespace netsyn;

namespace {

constexpr std::size_t kClients = 2;
constexpr double kRepeatFraction = 0.25;
constexpr std::size_t kSetupRuns = 15;
constexpr std::size_t kPings = 50;
/// Jobs per second of --seconds: the loop is sized to take about --seconds
/// on a 4-core x86 container.
constexpr double kJobsPerSecond = 40.0;

/// Request op codes, carried as the tag of Request spans.
enum Op : std::uint32_t { kPing, kSubmit, kWait, kStatus };

/// One synthd child process. The destructor kills and reaps it if it is
/// still running, so no error path leaves a daemon behind.
class Daemon {
 public:
  Daemon(const std::string& synthd, const std::string& dir) : dir_(dir) {
    std::filesystem::create_directories(dir);
    endpoint_ = "unix:" + dir + "/sock";
    const std::string log = dir + "/synthd.log";
    std::vector<std::string> args = {
        synthd, "--listen=" + endpoint_, "--workers=2",
        "--state-dir=" + dir + "/state", "--checkpoint-interval=0"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const int rc =
        posix_spawn(&pid_, synthd.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + synthd + ": " +
                               std::strerror(rc));
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& endpoint() const { return endpoint_; }
  const std::string& dir() const { return dir_; }

  /// Returns once the daemon answers a ping.
  void waitReady() {
    while (since_.seconds() < 60.0) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("synthd exited during start-up (see " +
                                 dir_ + "/synthd.log)");
      }
      try {
        util::SocketTransport t(util::SocketEndpoint::parse(endpoint_));
        if (t.request("{\"op\": \"ping\"}").find("\"ok\": true") !=
            std::string::npos)
          return;
      } catch (const util::TransportClosed&) {
      }
      // Yield rather than sleep: a short sleep can overshoot by a whole
      // timer tick, which would dominate a start-up of a few milliseconds.
      std::this_thread::yield();
    }
    throw std::runtime_error("synthd did not answer a ping within 60 s");
  }

  /// Peak resident set size (VmHWM) in MB.
  double peakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    for (std::string line; std::getline(in, line);)
      if (line.rfind("VmHWM:", 0) == 0)
        return std::stod(line.substr(6)) / 1024.0;  // kB
    throw std::runtime_error("no VmHWM for synthd");
  }

  /// Graceful stop through the protocol; kills after 20 s.
  void shutdown() {
    try {
      util::SocketTransport t(util::SocketEndpoint::parse(endpoint_));
      t.request("{\"op\": \"shutdown\"}");
    } catch (const util::TransportClosed&) {
    }
    for (int i = 0; i < 20000; ++i) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw std::runtime_error("synthd did not shut down");
  }

 private:
  std::string dir_;
  std::string endpoint_;
  pid_t pid_ = -1;
  util::Timer since_;
};

struct Job {
  harness::ExperimentConfig config;
  std::string submitLine;
  bool repeat = false;
  std::size_t original = 0;  ///< index (in its client's list) of the fresh job
};

struct TaskRec {
  bool found = false;
  std::uint64_t candidates = 0, generations = 0;
  double seconds = 0.0;  ///< worker-side wall time; not part of the identity
  bool operator==(const TaskRec& o) const {
    return found == o.found && candidates == o.candidates &&
           generations == o.generations;
  }
};

struct JobOutcome {
  bool ok = false;
  double ms = 0.0;
  std::vector<TaskRec> tasks;
  std::string error;
};

std::vector<std::vector<Job>> planJobs(const Options& opt) {
  const auto total =
      static_cast<std::size_t>(kJobsPerSecond * opt.seconds + 0.5);
  util::Rng rng(util::mix64(opt.seed ^ 0x5e41ce));
  std::vector<std::vector<Job>> plan(kClients);
  std::vector<std::vector<std::size_t>> fresh(kClients);
  std::size_t freshCount = 0;
  for (std::size_t i = 0; i < std::max<std::size_t>(total, kClients); ++i) {
    const std::size_t c = i % kClients;
    Job job;
    if (!fresh[c].empty() && rng.bernoulli(kRepeatFraction)) {
      job = plan[c][fresh[c][rng.uniform(fresh[c].size())]];
      job.repeat = true;
    } else {
      harness::ExperimentConfig cfg = harness::ExperimentConfig::forScale("ci");
      cfg.domainName = freshCount++ % 2 == 0 ? "list" : "str";
      cfg.applyDomain();
      cfg.programLengths = {4};
      cfg.programsPerLength = 2;
      cfg.runsPerProgram = 1;
      cfg.searchBudget = 2000;
      cfg.seed = util::mix64(opt.seed * 1000003ULL + i);
      job.config = cfg;
      job.original = plan[c].size();
      fresh[c].push_back(plan[c].size());
    }
    job.submitLine =
        std::string("{\"op\": \"submit\", \"method\": \"Edit\", ") +
                     "\"attach\": " + (job.repeat ? "true" : "false") +
                     ", \"config\": " + job.config.toJson() + "}";
    plan[c].push_back(std::move(job));
  }
  return plan;
}

bool okOf(const util::JsonValue& v) {
  const util::JsonValue* ok = v.find("ok");
  return ok && ok->kind == util::JsonValue::Kind::Bool && ok->boolean;
}

std::uint64_t unsignedMember(const util::JsonValue& v, const char* key) {
  const util::JsonValue* m = v.find(key);
  if (!m) throw std::runtime_error(std::string("response without ") + key);
  return util::jsonUnsigned(*m, key);
}

std::string stateOf(const util::JsonValue& v) {
  std::string s;
  util::readString(v, "state", s);
  return s;
}

util::JsonValue request(util::Transport& t, Op op, const std::string& line) {
  ScopedSpan span(Layer::Request, op);
  return util::parseJson(t.request(line));
}

/// One client connection: submit, wait, status for each of its jobs.
void runClient(const std::string& endpoint, const std::vector<Job>& jobs,
               std::vector<JobOutcome>& out) {
  util::SocketTransport t(util::SocketEndpoint::parse(endpoint));
  out.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    JobOutcome& o = out[i];
    try {
      util::Timer timer;
      const util::JsonValue sub = request(t, kSubmit, jobs[i].submitLine);
      if (!okOf(sub)) throw std::runtime_error("submit answered ok:false");
      const std::uint64_t id = unsignedMember(sub, "job");
      const std::string idLine = std::to_string(id) + "}";
      const util::JsonValue done =
          request(t, kWait, "{\"op\": \"wait\", \"job\": " + idLine);
      o.ms = timer.milliseconds();
      if (!okOf(done) || stateOf(done) != "done")
        throw std::runtime_error("wait returned state " + stateOf(done));
      const util::JsonValue* tasks = done.find("tasks");
      if (!tasks) throw std::runtime_error("done job without tasks");
      for (const util::JsonValue& tv : tasks->items) {
        TaskRec rec;
        util::readBool(tv, "found", rec.found);
        rec.candidates = unsignedMember(tv, "candidates");
        rec.generations = unsignedMember(tv, "generations");
        util::readDouble(tv, "seconds", rec.seconds);
        o.tasks.push_back(rec);
      }
      const util::JsonValue st =
          request(t, kStatus, "{\"op\": \"status\", \"job\": " + idLine);
      if (!okOf(st) || stateOf(st) != "done")
        throw std::runtime_error("status returned state " + stateOf(st));
      o.ok = true;
    } catch (const std::exception& e) {
      o.error = e.what();
      if (!t.alive()) return;  // the connection is gone; the rest fail too
    }
  }
}

struct LoopResult {
  std::vector<std::vector<JobOutcome>> outcomes;
  double wall = 0.0;
  double peakRssMb = 0.0;
  util::JsonValue metrics;
  std::vector<double> pingMs;
};

/// Flushes the filesystem holding `dir`, so write-back left over from
/// earlier runs does not land inside the timed loop.
void flushFilesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

LoopResult runLoop(Daemon& d, const std::vector<std::vector<Job>>& plan,
                   bool pings) {
  LoopResult lr;
  flushFilesystem(d.dir());
  if (pings) {
    util::SocketTransport t(util::SocketEndpoint::parse(d.endpoint()));
    for (std::size_t i = 0; i < kPings; ++i) {
      util::Timer timer;
      request(t, kPing, "{\"op\": \"ping\"}");
      lr.pingMs.push_back(timer.milliseconds());
    }
  }
  lr.outcomes.resize(kClients);
  util::Timer wall;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      try {
        runClient(d.endpoint(), plan[c], lr.outcomes[c]);
      } catch (const std::exception& e) {
        lr.outcomes[c].assign(plan[c].size(), JobOutcome{});
        for (auto& o : lr.outcomes[c]) o.error = e.what();
      }
    });
  for (auto& th : clients) th.join();
  lr.wall = wall.seconds();
  util::SocketTransport t(util::SocketEndpoint::parse(d.endpoint()));
  lr.metrics = util::parseJson(t.request("{\"op\": \"metrics\"}"));
  lr.peakRssMb = d.peakRssMb();
  return lr;
}


/// Compares every fresh job against a one-shot run of its config, and every
/// repeat against the job it repeated. Runs after the timed loop.
void verify(const std::vector<std::vector<Job>>& plan, const LoopResult& lr,
            Result& r) {
  std::vector<std::pair<std::size_t, std::size_t>> fresh;
  for (std::size_t c = 0; c < kClients; ++c)
    for (std::size_t i = 0; i < plan[c].size(); ++i) {
      r.attempt();
      const JobOutcome& o = lr.outcomes[c][i];
      if (!o.ok) {
        r.fail("job " + std::to_string(i) + " of client " + std::to_string(c) +
               " failed: " + o.error);
        continue;
      }
      if (!plan[c][i].repeat) {
        fresh.emplace_back(c, i);
      } else if (o.tasks != lr.outcomes[c][plan[c][i].original].tasks) {
        r.fail("repeat job " + std::to_string(i) + " of client " +
               std::to_string(c) + " differs from the job it repeats");
      }
    }
  service::ModelStore models;
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::vector<std::string> mismatches;
  const auto worker = [&] {
    for (std::size_t k; (k = next.fetch_add(1)) < fresh.size();) {
      const auto [c, i] = fresh[k];
      const harness::ExperimentConfig& cfg = plan[c][i].config;
      const auto method = service::makeOneShotMethod("Edit", cfg, models);
      const harness::MethodReport rep = harness::runMethod(
          *method, harness::makeFullWorkload(cfg), cfg, /*verbose=*/false);
      std::vector<TaskRec> want;
      for (const auto& p : rep.programs)
        for (const auto& run : p.runs)
          want.push_back({run.found, run.candidates, run.generations, 0.0});
      if (want != lr.outcomes[c][i].tasks) {
        std::lock_guard<std::mutex> lock(mu);
        mismatches.push_back("job " + std::to_string(i) + " of client " +
                             std::to_string(c) +
                             " differs from its one-shot run");
      }
    }
  };
  std::vector<std::thread> pool;
  for (int w = 0; w < 3; ++w) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
  for (const auto& m : mismatches) r.fail(m);
}

/// The warm-up job every daemon serves before it counts as set up: Edit,
/// 4 length-4 list programs, budget 2,000. Like the NN training seed on
/// netsyn_list it is the same for every workload seed, so set-up does the
/// same work whatever tasks the seed draws.
std::string warmUpLine() {
  harness::ExperimentConfig cfg = harness::ExperimentConfig::forScale("ci");
  cfg.programLengths = {4};
  cfg.programsPerLength = 4;
  cfg.runsPerProgram = 1;
  cfg.searchBudget = 2000;
  cfg.seed = 2021;
  return "{\"op\": \"submit\", \"method\": \"Edit\", \"config\": " +
         cfg.toJson() + "}";
}

/// Spawns a daemon in a fresh directory. Set-up ends when it has answered a
/// ping and served the warm-up job: spawn-to-ping alone is a few
/// milliseconds of process start-up whose median moved by half between
/// batches of runs, more than any bound allows.
std::unique_ptr<Daemon> startDaemon(const Options& opt, std::size_t index,
                                    double& seconds) {
  util::Timer timer;
  auto d = std::make_unique<Daemon>(
      opt.synthd, opt.workDir + "/d" + std::to_string(index));
  d->waitReady();
  util::SocketTransport t(util::SocketEndpoint::parse(d->endpoint()));
  const util::JsonValue sub = util::parseJson(t.request(warmUpLine()));
  if (!okOf(sub)) throw std::runtime_error("warm-up submit answered ok:false");
  const util::JsonValue done = util::parseJson(
      t.request("{\"op\": \"wait\", \"job\": " +
                std::to_string(unsignedMember(sub, "job")) + "}"));
  if (!okOf(done) || stateOf(done) != "done")
    throw std::runtime_error("warm-up job ended " + stateOf(done));
  seconds = timer.seconds();
  return d;
}

double opMedianMs(const std::vector<Span>& spans, Op op) {
  std::vector<double> ms;
  for (const Span& s : spans)
    if (s.layer == Layer::Request && s.tag == op)
      ms.push_back((s.end - s.start) * 1e3);
  return median(ms);
}

}  // namespace

void runServiceWorkload(const Options& opt, Result& r) {
  if (!std::filesystem::exists(opt.synthd))
    throw std::runtime_error("synthd binary not found at " + opt.synthd);
  const auto plan = planJobs(opt);

  // ---- set-up, several times; the last daemon serves the loop ----
  std::vector<double> setupSeconds;
  std::unique_ptr<Daemon> daemon;
  for (std::size_t i = 0; i < kSetupRuns; ++i) {
    if (daemon) daemon->shutdown();
    double s = 0.0;
    daemon = startDaemon(opt, i, s);
    setupSeconds.push_back(s);
  }
  r.stamp("state_dir_fs", filesystemOf(daemon->dir()));

  // ---- untraced loop: the end-to-end numbers ----
  const LoopResult lr = runLoop(*daemon, plan, /*pings=*/false);
  daemon->shutdown();
  verify(plan, lr, r);

  std::vector<double> jobMs, taskMs, usPerCandidate;
  std::size_t jobs = 0, solved = 0, candidates = 0, generations = 0,
              repeats = 0;
  for (std::size_t c = 0; c < kClients; ++c)
    for (std::size_t i = 0; i < plan[c].size(); ++i) {
      const JobOutcome& o = lr.outcomes[c][i];
      ++jobs;
      jobMs.push_back(o.ms);
      if (plan[c][i].repeat) {
        ++repeats;
        continue;
      }
      for (const TaskRec& t : o.tasks) {
        solved += t.found ? 1 : 0;
        candidates += t.candidates;
        generations += t.generations;
        taskMs.push_back(t.seconds * 1e3);
        usPerCandidate.push_back(
            t.seconds * 1e6 /
            static_cast<double>(std::max<std::uint64_t>(t.candidates, 1)));
      }
    }

  if (!opt.trace) {
    reportEndToEnd(r, setupSeconds,
                   static_cast<double>(candidates) / lr.wall, usPerCandidate,
                   lr.peakRssMb);
    return;
  }

  // ---- traced loop on a fresh daemon: the per-layer numbers ----
  double unusedSetup = 0.0;
  daemon = startDaemon(opt, kSetupRuns, unusedSetup);
  Tracer& tracer = Tracer::instance();
  tracer.clear();
  tracer.setEnabled(true);
  const LoopResult tl = runLoop(*daemon, plan, /*pings=*/true);
  tracer.setEnabled(false);
  daemon->shutdown();
  const std::vector<Span> spans = tracer.collect();
  tracer.clear();
  for (std::size_t c = 0; c < kClients; ++c)
    for (std::size_t i = 0; i < plan[c].size(); ++i)
      if (tl.outcomes[c][i].tasks != lr.outcomes[c][i].tasks)
        r.error("traced loop diverged from the untraced loop on job " +
                std::to_string(i) + " of client " + std::to_string(c));

  LayerReport L;
  const auto metric = [&](const char* key) {
    return static_cast<double>(unsignedMember(tl.metrics, key));
  };
  const double executed = metric("tasks_executed");
  L.tasksExecuted = executed;
  L.checkpointsPerTask =
      executed > 0 ? metric("durable_checkpoints_written") / executed : 0.0;
  L.submitMsP50 = opMedianMs(spans, kSubmit);
  L.statusMsP50 = opMedianMs(spans, kStatus);
  L.pingMsP50 = median(tl.pingMs);
  L.attachHit = {metric("attach_hits"), static_cast<double>(repeats)};
  L.attachHitBase = "attach hits (metrics op) / repeat submissions with attach";
  L.servicePlanHit = {metric("plan_hits"), metric("plan_lookups")};
  L.servicePlanHitBase = "plan-cache hits / plan lookups across the workers";
  L.generations = static_cast<double>(generations);
  L.traceOverheadFrac = tl.wall / lr.wall - 1.0;
  L.taskMsP50 = percentile(taskMs, 50);
  L.taskMsP80 = percentile(taskMs, 80);
  L.jobsPerS = static_cast<double>(jobs) / lr.wall;
  L.jobMsP50 = percentile(jobMs, 50);
  L.jobMsP95 = percentile(jobMs, 95);
  r.percentileNote("service.job_ms_p95", jobMs.size(), 95);
  L.solved = static_cast<double>(solved);
  L.candidatesPerSolve =
      static_cast<double>(candidates) /
      static_cast<double>(std::max<std::size_t>(solved, 1));
  L.emit(r);
}

}  // namespace perfbench
