// synth_client — drives a synthd session end to end.
//
// Spawns the daemon, holds a pipe session speaking the NDJSON protocol,
// submits N concurrent jobs (job i uses seed+i, so the jobs are distinct
// searches), waits for all of them, and prints a per-job summary including
// the cross-request plan-cache counters. Then resubmits job 0's config to
// demonstrate the warm path (a result-cache hit answered without running a
// single search).
//
// With --verify, every job's config is additionally run one-shot
// (in-process, sequential, the PR 1 experiment runner) and the daemon's
// per-(program, run) found/candidates/generations are compared
// bit-for-bit; any divergence exits nonzero. This is the service-smoke
// assertion CI runs: concurrent daemon jobs == one-shot runs.
//
// Resilience: SIGPIPE is ignored, so a daemon death surfaces as a
// TransportClosed error (EPIPE on write / EOF on read) instead of killing
// the client. The client then respawns synthd — after a deterministic
// seeded backoff (util::RetrySchedule: same seed, same delays) and up to
// --max-retries times — and resubmits every job idempotently by key
// ("attach": true — identical submissions are deterministic, so joining a
// recovered in-flight job is always safe). With --chaos-kill the client
// does this on purpose: it SIGKILLs the daemon mid-run, restarts it on the
// same --state-dir, reattaches, and verifies the recovered results — the
// kill-and-restart recovery pass CI runs.
//
// With --fleet=N the client runs the same job through an in-process
// FleetCoordinator driving N synthd backends instead of one daemon session
// (service/fleet.hpp); --verify then compares the merged fleet report
// against the one-shot run — the fleet determinism invariant.
//
// With --connect=HOST:PORT or --connect=unix:PATH the client dials a
// running `synthd --listen` daemon instead of spawning one; the reconnect
// loop then re-dials rather than respawning (the daemon outlives the
// connection, so --chaos-kill severs and re-attaches without needing a
// --state-dir).
//
// Usage:
//   synth_client [--synthd=./synthd | --connect=ENDPOINT]
//                [--jobs=2] [--method=Edit]
//                [--daemon-workers=2] [--verify] [--max-retries=5]
//                [--chaos-kill] [--state-dir=DIR] [--checkpoint-interval=G]
//                [--daemon-faults=SPEC] [--fleet=N]
//                [experiment flags: --scale --config-file --budget --runs
//                 --lengths --programs-per-length --seed ...]
#include <csignal>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/config.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "service/fleet.hpp"
#include "service/service.hpp"
#include "util/argparse.hpp"
#include "util/json.hpp"
#include "util/transport.hpp"

namespace {

using namespace netsyn;

/// One synthd session — a spawned subprocess over a pipe, or a dialed
/// `synthd --listen` daemon over a socket — that parses responses. Daemon
/// (or connection) death surfaces as util::TransportClosed.
class DaemonSession {
 public:
  DaemonSession(const std::string& path,
                const std::vector<std::string>& extraArgs)
      : transport_(std::make_unique<util::PipeTransport>(path, extraArgs)) {}

  explicit DaemonSession(const util::SocketEndpoint& endpoint)
      : transport_(std::make_unique<util::SocketTransport>(endpoint)) {}

  util::JsonValue request(const std::string& line) {
    return util::parseJson(transport_->request(line));
  }

  /// Simulated crash: SIGKILL a subprocess (no shutdown handshake — durable
  /// state is whatever already hit disk); RST-close a socket (the remote
  /// daemon keeps running, only the connection dies).
  void kill() { transport_->kill(); }

 private:
  std::unique_ptr<util::Transport> transport_;
};

std::uint64_t member(const util::JsonValue& v, const char* key) {
  const util::JsonValue* m = v.find(key);
  if (!m) throw std::runtime_error(std::string("response missing ") + key);
  return util::jsonUnsigned(*m, key);
}

bool okField(const util::JsonValue& v) {
  const util::JsonValue* ok = v.find("ok");
  return ok && ok->kind == util::JsonValue::Kind::Bool && ok->boolean;
}

bool boolField(const util::JsonValue& v, const char* key) {
  bool b = false;
  util::readBool(v, key, b);
  return b;
}

struct TaskTriple {
  bool found;
  std::uint64_t candidates;
  std::uint64_t generations;
};

/// tasks array -> (program, run)-indexed triples.
std::vector<TaskTriple> tasksOf(const util::JsonValue& response,
                                std::size_t programs, std::size_t runs) {
  std::vector<TaskTriple> out(programs * runs,
                              TaskTriple{false, 0, 0});
  const util::JsonValue* tasks = response.find("tasks");
  if (!tasks || tasks->kind != util::JsonValue::Kind::Array)
    throw std::runtime_error("terminal response has no tasks array");
  for (const util::JsonValue& t : tasks->items) {
    const std::size_t p = member(t, "program");
    const std::size_t k = member(t, "run");
    bool found = false;
    util::readBool(t, "found", found);
    if (p * runs + k < out.size())
      out[p * runs + k] = TaskTriple{found, member(t, "candidates"),
                                     member(t, "generations")};
  }
  return out;
}

/// Compares service-reported task triples against a one-shot in-process
/// run of the same config. Returns false (and prints MISMATCH lines) on
/// any divergence.
bool verifyAgainstOneShot(const std::string& label,
                          const std::vector<TaskTriple>& serviceTasks,
                          const harness::ExperimentConfig& config,
                          const std::string& method,
                          service::ModelStore& models) {
  const baselines::MethodPtr oneShot =
      service::makeOneShotMethod(method, config, models);
  const auto workload = harness::makeFullWorkload(config);
  const harness::MethodReport report =
      harness::runMethod(*oneShot, workload, config, /*verbose=*/false);
  const std::size_t runs =
      report.programs.empty() ? 0 : report.programs.front().runs.size();
  if (serviceTasks.size() != report.programs.size() * runs) {
    std::printf("[client] MISMATCH %s: service reported %zu tasks, one-shot "
                "ran %zu programs x %zu runs\n",
                label.c_str(), serviceTasks.size(), report.programs.size(),
                runs);
    return false;
  }
  bool match = true;
  for (std::size_t p = 0; p < report.programs.size(); ++p) {
    for (std::size_t k = 0; k < report.programs[p].runs.size(); ++k) {
      const harness::RunRecord& r = report.programs[p].runs[k];
      const TaskTriple& d = serviceTasks[p * runs + k];
      if (r.found != d.found || r.candidates != d.candidates ||
          r.generations != d.generations) {
        std::printf(
            "[client] MISMATCH %s p=%zu k=%zu: service (found=%d cand=%llu "
            "gen=%llu) vs one-shot (found=%d cand=%zu gen=%zu)\n",
            label.c_str(), p, k, d.found,
            static_cast<unsigned long long>(d.candidates),
            static_cast<unsigned long long>(d.generations), r.found,
            r.candidates, r.generations);
        match = false;
      }
    }
  }
  if (match)
    std::printf("[client] %s verified against one-shot run\n", label.c_str());
  return match;
}

/// --fleet=N mode: the same job, run through an in-process FleetCoordinator
/// over N synthd backends; --verify compares the merged report one-shot.
int runFleetMode(const harness::ExperimentConfig& config,
                 const std::string& method, const std::string& synthdPath,
                 std::size_t hosts, std::size_t daemonWorkers,
                 const std::string& stateDir, std::size_t ckptInterval,
                 const std::string& daemonFaults, bool chaosKill,
                 bool verify, bool verbose) {
  service::FleetConfig fc;
  fc.hosts = hosts;
  fc.chaosKill = chaosKill;
  fc.verbose = verbose;
  service::LocalBackendConfig backend;
  backend.synthdPath = synthdPath;
  backend.workers = daemonWorkers;
  backend.stateDir = stateDir;
  backend.checkpointInterval = ckptInterval;
  backend.faults = daemonFaults;

  service::FleetCoordinator fleet(fc, backend);
  const service::FleetReport report = fleet.run(config, method);
  fleet.shutdownBackends();
  const service::FleetMetrics m = fleet.metrics();
  std::printf(
      "[client] fleet(%zu hosts) done: synthesized %.0f%% of %zu programs, "
      "lost=%zu reassigned=%zu recovered=%zu\n",
      hosts, report.synthesizedFraction * 100.0, report.programs,
      m.hostsLost, m.tasksReassigned, m.recovered());
  if (chaosKill && m.recovered() == 0) {
    std::printf("[client] FAILED: chaos fleet run recovered nothing\n");
    return 1;
  }
  if (verify) {
    std::vector<TaskTriple> fleetTasks;
    fleetTasks.reserve(report.tasks.size());
    for (const service::TaskRecord& t : report.tasks)
      fleetTasks.push_back(TaskTriple{t.found, t.candidates, t.generations});
    service::ModelStore models;
    if (!verifyAgainstOneShot("fleet report", fleetTasks, config, method,
                              models)) {
      std::printf("[client] FAILED: fleet results diverge from one-shot\n");
      return 1;
    }
  }
  std::printf("[client] OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A dead daemon must surface as an EPIPE error we can handle, not kill
  // the client outright.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    const util::ArgParse args(argc, argv);
    const std::string synthdPath = args.getString("synthd", "./synthd");
    const long jobs = args.getInt("jobs", 2);
    const std::string method = args.getString("method", "Edit");
    const long daemonWorkers = args.getInt("daemon-workers", 2);
    const bool verify = args.getBool("verify", false);
    const bool chaosKill = args.getBool("chaos-kill", false);
    const std::string stateDir =
        args.getString("state-dir", chaosKill ? "synth_client_state" : "");
    const long ckptInterval = args.getInt("checkpoint-interval", 5);
    const std::string daemonFaults = args.getString("daemon-faults", "");
    const long maxRetries = args.getInt("max-retries", 5);
    const long fleetHosts = args.getInt("fleet", 0);
    const std::string connect = args.getString("connect", "");
    if (jobs <= 0) throw std::invalid_argument("--jobs must be > 0");
    if (maxRetries < 0)
      throw std::invalid_argument("--max-retries must be >= 0");
    if (fleetHosts < 0) throw std::invalid_argument("--fleet must be >= 0");
    if (!connect.empty() && fleetHosts > 0)
      throw std::invalid_argument("--connect and --fleet are exclusive");
    // A severed socket leaves the daemon (and its jobs) running, so the
    // chaos pass needs no durable state; a SIGKILLed subprocess does.
    if (chaosKill && fleetHosts == 0 && connect.empty() && stateDir.empty())
      throw std::invalid_argument("--chaos-kill needs a --state-dir");

    const harness::ExperimentConfig base =
        harness::ExperimentConfig::fromArgs(args);

    if (fleetHosts > 0)
      return runFleetMode(base, method, synthdPath,
                          static_cast<std::size_t>(fleetHosts),
                          static_cast<std::size_t>(daemonWorkers), stateDir,
                          static_cast<std::size_t>(ckptInterval),
                          daemonFaults, chaosKill, verify,
                          args.getBool("verbose", false));

    const auto spawn = [&]() {
      std::unique_ptr<DaemonSession> s;
      if (!connect.empty()) {
        s = std::make_unique<DaemonSession>(
            util::SocketEndpoint::parse(connect));
      } else {
        std::vector<std::string> extra;
        extra.push_back("--workers=" + std::to_string(daemonWorkers));
        if (!stateDir.empty()) {
          extra.push_back("--state-dir=" + stateDir);
          extra.push_back("--checkpoint-interval=" +
                          std::to_string(ckptInterval));
        }
        if (!daemonFaults.empty()) extra.push_back("--faults=" + daemonFaults);
        s = std::make_unique<DaemonSession>(synthdPath, extra);
      }
      if (!okField(s->request("{\"op\": \"ping\"}")))
        throw std::runtime_error("synthd ping failed");
      return s;
    };

    std::unique_ptr<DaemonSession> session = spawn();

    std::vector<harness::ExperimentConfig> configs;
    for (long i = 0; i < jobs; ++i) {
      harness::ExperimentConfig cfg = base;
      cfg.seed = base.seed + static_cast<std::uint64_t>(i);
      configs.push_back(cfg);
    }

    // Submit every job before waiting on any: the daemon runs them
    // concurrently on its shared pool. `attach` makes the submission
    // idempotent by (method, config) key, so the same call re-joins the
    // jobs after a reconnect.
    std::vector<std::uint64_t> ids(configs.size(), 0);
    const auto submitAll = [&](bool attach) {
      for (std::size_t i = 0; i < configs.size(); ++i) {
        const util::JsonValue resp = session->request(
            "{\"op\": \"submit\", \"method\": \"" + method +
            "\", \"config\": " + configs[i].toJson() +
            (attach ? ", \"attach\": true" : "") + "}");
        if (!okField(resp)) throw std::runtime_error("submit rejected");
        ids[i] = member(resp, "job");
        std::printf(
            "[client] submitted job %llu (seed=%llu%s%s)\n",
            static_cast<unsigned long long>(ids[i]),
            static_cast<unsigned long long>(configs[i].seed),
            boolField(resp, "attached") ? ", attached" : "",
            boolField(resp, "recovered") ? ", recovered" : "");
      }
    };
    submitAll(/*attach=*/false);

    // Reconnect path: back off on the deterministic seeded schedule, then
    // respawn the daemon (it recovers its durable state) and resubmit
    // everything by key. Bounded by --max-retries rather than a hardcoded
    // count, and never a tight respawn spin: each attempt waits its draw.
    long reconnects = 0;
    util::RetrySchedule backoff(200.0, 2000.0,
                                base.seed ^ 0x9e3779b97f4a7c15ull);
    const auto reconnect = [&]() {
      if (++reconnects > maxRetries)
        throw std::runtime_error(
            "synthd died repeatedly; giving up after " +
            std::to_string(maxRetries) + " reconnects");
      const double delayMs = backoff.nextDelayMs();
      std::printf(
          "[client] synthd is gone; %s in %.0f ms (attempt %ld/%ld)\n",
          connect.empty() ? "respawning" : "re-dialing", delayMs, reconnects,
          maxRetries);
      usleep(static_cast<useconds_t>(delayMs * 1000.0));
      session = spawn();
      submitAll(/*attach=*/true);
    };
    // Built per attempt: a reconnect reassigns ids, so the retried request
    // must use the fresh one.
    const auto waitJob = [&](std::size_t i) {
      for (;;) {
        try {
          return session->request("{\"op\": \"wait\", \"job\": " +
                                  std::to_string(ids[i]) + "}");
        } catch (const util::TransportClosed& e) {
          std::printf("[client] %s\n", e.what());
          reconnect();
        }
      }
    };

    if (chaosKill) {
      // Let the daemon make (and persist) some progress, then kill -9 it
      // mid-run and recover on a fresh process over the same state dir.
      for (int poll = 0; poll < 500; ++poll) {
        const util::JsonValue st = session->request(
            "{\"op\": \"status\", \"job\": " + std::to_string(ids[0]) + "}");
        std::string state;
        util::readString(st, "state", state);
        if (state == "done" || member(st, "tasks_done") > 0) break;
        usleep(20 * 1000);
      }
      std::printf("[client] chaos: %s mid-run\n",
                  connect.empty() ? "SIGKILL synthd"
                                  : "severing the daemon connection");
      session->kill();
      reconnect();
    }

    bool allMatch = true;
    // One store for every verification run: NetSyn methods load/train their
    // models once per (modelDir, scale), not once per job.
    service::ModelStore verifyModels;
    for (long i = 0; i < jobs; ++i) {
      const util::JsonValue done = waitJob(static_cast<std::size_t>(i));
      if (!okField(done)) throw std::runtime_error("wait failed");
      std::string state;
      util::readString(done, "state", state);
      const std::size_t programs = member(done, "programs");
      const std::size_t runs = member(done, "runs_per_program");
      double fraction = 0.0;
      util::readDouble(done, "synthesized_fraction", fraction);
      std::printf(
          "[client] job %llu %s: synthesized %.0f%% of %zu programs, "
          "plan compiles=%llu hits=%llu, retries=%llu%s\n",
          static_cast<unsigned long long>(ids[i]), state.c_str(),
          fraction * 100.0, programs,
          static_cast<unsigned long long>(member(done, "plan_compiles")),
          static_cast<unsigned long long>(member(done, "plan_hits")),
          static_cast<unsigned long long>(member(done, "retries")),
          boolField(done, "recovered") ? ", recovered" : "");
      if (state != "done") {
        allMatch = false;
        continue;
      }

      if (verify) {
        // One-shot comparison: same config, sequential in-process run.
        const std::string label =
            "job " + std::to_string(ids[i]);
        if (!verifyAgainstOneShot(label, tasksOf(done, programs, runs),
                                  configs[static_cast<std::size_t>(i)],
                                  method, verifyModels))
          allMatch = false;
      }
    }

    // Warm path: resubmitting job 0's exact config is answered from the
    // completed-job memo — or, when the run went through a kill/recover
    // cycle, attaches to the completed job by key (same idempotence, the
    // memo may have died with the first daemon before the job finished).
    const util::JsonValue warm = session->request(
        "{\"op\": \"submit\", \"method\": \"" + method +
        "\", \"config\": " + configs[0].toJson() +
        (chaosKill ? ", \"attach\": true" : "") + "}");
    const bool fromCache = boolField(warm, "from_cache");
    const bool attached = boolField(warm, "attached");
    std::printf("[client] identical resubmission: from_cache=%s attached=%s\n",
                fromCache ? "true" : "false", attached ? "true" : "false");
    const bool warmOk = chaosKill ? (fromCache || attached) : fromCache;

    const util::JsonValue metrics = session->request("{\"op\": \"metrics\"}");
    std::printf(
        "[client] session: %llu jobs, %llu tasks, %llu result-cache hits, "
        "plan compiles=%llu hits=%llu\n",
        static_cast<unsigned long long>(member(metrics, "jobs_submitted")),
        static_cast<unsigned long long>(member(metrics, "tasks_executed")),
        static_cast<unsigned long long>(member(metrics, "result_cache_hits")),
        static_cast<unsigned long long>(member(metrics, "plan_compiles")),
        static_cast<unsigned long long>(member(metrics, "plan_hits")));
    std::printf(
        "[client] metrics: queue=%llu retry-waiting=%llu recovered=%llu "
        "ckpt written=%llu loaded=%llu rejected=%llu, fault hits=%llu "
        "fires=%llu\n",
        static_cast<unsigned long long>(member(metrics, "queue_depth")),
        static_cast<unsigned long long>(member(metrics, "retry_waiting")),
        static_cast<unsigned long long>(member(metrics, "jobs_recovered")),
        static_cast<unsigned long long>(
            member(metrics, "durable_checkpoints_written")),
        static_cast<unsigned long long>(
            member(metrics, "durable_checkpoints_loaded")),
        static_cast<unsigned long long>(
            member(metrics, "checkpoints_rejected")),
        static_cast<unsigned long long>(member(metrics, "fault_hits")),
        static_cast<unsigned long long>(member(metrics, "fault_fires")));

    session->request("{\"op\": \"shutdown\"}");

    if (!allMatch) {
      std::printf("[client] FAILED: daemon results diverge from one-shot\n");
      return 1;
    }
    if (!warmOk) {
      std::printf("[client] FAILED: resubmission missed the result cache\n");
      return 1;
    }
    std::printf("[client] OK\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[client] fatal: %s\n", e.what());
    return 1;
  }
}
