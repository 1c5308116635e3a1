// fleet_coord — deterministic multi-host synthesis coordinator.
//
// Spawns N synthd backends (one subprocess per "host", each with its own
// durable state dir), partitions a job's (program, run) tasks across them
// by rendezvous hashing, and merges their claim results into one report
// whose bytes are identical for any host count — including runs where a
// backend is killed mid-claim and its tasks fail over to the survivors
// (service/fleet.hpp).
//
// With --hosts=H1:P1,H2:P2,... (or --hosts-file) the backends are remote
// synthd daemons reached over TCP/Unix sockets instead of spawned
// subprocesses: the coordinator dials each endpoint, and a dropped
// connection is re-dialed with seeded backoff + re-hello + idempotent
// claim re-attach (--reconnect-attempts) before failover kicks in. The
// merged report's bytes are identical across subprocess and socket modes.
//
// With --verify the same config is also run one-shot (in-process,
// sequential: harness::runMethod through the service's method registry),
// and every (program, run) task's found / candidates / generations must
// match the merged report; any divergence exits 1. One host
// (--hosts=1 --host-workers=2) is the single-daemon check, and
// --chaos-kill-host=0 --state-dir=DIR its kill-and-restart pass: the lone
// backend is SIGKILLed mid-claim, respawned on its state dir, and
// re-attached.
//
// Usage:
//   fleet_coord [--hosts=N | --hosts=EP1,EP2,... | --hosts-file=PATH]
//               [--synthd=PATH] [--method=NAME]
//               [--host-workers=N] [--state-dir=DIR]
//               [--checkpoint-interval=G] [--max-queue=N]
//               [--daemon-faults=SPEC] [--token=STR] [--host-timeout=S]
//               [--poll-ms=MS] [--chaos-kill-host=I|auto]
//               [--reconnect-attempts=N]
//               [--report=FILE] [--metrics-json=FILE] [--verify]
//               [--verbose]
//               [experiment flags: --scale / --config-file, --budget, ...]
//
//   --hosts=N              backend count (default 2), spawned as local
//                          synthd subprocesses; or a comma-separated
//                          endpoint list ("HOST:PORT" / "unix:PATH"
//                          entries) of remote daemons to dial
//   --hosts-file=PATH      endpoint list from a file, one per line
//                          (# comments and blank lines ignored)
//   --reconnect-attempts=N re-dial budget per dropped socket connection
//                          before host-death failover (default 3 for
//                          socket hosts; subprocess mode has no use for
//                          it — the peer died with its pipe)
//   --synthd=PATH          backend binary (default ./synthd)
//   --method=NAME          synthesis method (default Edit)
//   --host-workers=N       worker threads per backend (default 1)
//   --state-dir=DIR        fleet durability root; host i persists under
//                          DIR/host-i. Enables snapshot adoption on
//                          failover; omitted, dead hosts' tasks replay
//                          from seed (identical results, more compute)
//   --checkpoint-interval=G  backend snapshot cadence (default 5)
//   --max-queue=N          per-backend task-queue cap (overload shedding)
//   --daemon-faults=SPEC   fault-injection spec passed to every backend
//   --token=STR            fleet session token (default fleet-1)
//   --host-timeout=S       per-request receive budget before a silent
//                          backend is declared dead (default 120)
//   --chaos-kill-host=I|auto  SIGKILL backend I (or the busiest one) once
//                          it is mid-claim; the run must still complete.
//                          On socket hosts this severs the connection
//                          (the daemon keeps running) — with reconnect
//                          attempts left the coordinator re-attaches, so
//                          it doubles as the chaos-sever switch
//   --report=FILE          write the canonical report line to FILE
//                          (default stdout)
//   --metrics-json=FILE    write the aggregated fleet metrics to FILE
//   --verify               compare the merged report with a one-shot
//                          in-process run of the same config; exit 1 on
//                          any divergence
//
// Experiment flags are the shared harness set (--scale=ci|paper,
// --config-file=PATH, --budget, --runs, --lengths, --seed, ...).
//
// Exit 0 on a completed (and, with --verify, matching) run; diagnostics go
// to stderr.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/config.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "service/fleet.hpp"
#include "service/service.hpp"
#include "util/argparse.hpp"

namespace {

// "3" is a subprocess count; "a:5001,b:5002" or "unix:/tmp/s.sock" is an
// endpoint list. All-digits means count — every endpoint form contains a
// ':' or a non-digit.
bool looksLikeCount(const std::string& hosts) {
  return !hosts.empty() &&
         hosts.find_first_not_of("0123456789") == std::string::npos;
}

std::vector<netsyn::util::SocketEndpoint> parseEndpointList(
    const std::string& text) {
  std::vector<netsyn::util::SocketEndpoint> out;
  std::istringstream is(text);
  std::string item;
  while (std::getline(is, item, ','))
    if (!item.empty()) out.push_back(netsyn::util::SocketEndpoint::parse(item));
  return out;
}

std::vector<netsyn::util::SocketEndpoint> readHostsFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read hosts file " + path);
  std::vector<netsyn::util::SocketEndpoint> out;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    const std::size_t end = line.find_last_not_of(" \t\r");
    out.push_back(
        netsyn::util::SocketEndpoint::parse(line.substr(start, end - start + 1)));
  }
  return out;
}

/// --verify: runs `config` one-shot in-process and compares each (program,
/// run) task's found / candidates / generations with the merged fleet
/// report. Prints one MISMATCH line per divergence; true when none.
bool matchesOneShot(const netsyn::service::FleetReport& report,
                    const netsyn::harness::ExperimentConfig& config,
                    const std::string& method) {
  using namespace netsyn;
  service::ModelStore models;
  const baselines::MethodPtr oneShot =
      service::makeOneShotMethod(method, config, models);
  const harness::MethodReport expected =
      harness::runMethod(*oneShot, harness::makeFullWorkload(config), config,
                         /*verbose=*/false);
  const std::size_t runs = report.runsPerProgram;
  if (expected.programs.size() != report.programs ||
      report.tasks.size() != report.programs * runs) {
    std::fprintf(stderr,
                 "[fleet_coord] MISMATCH: fleet reported %zu tasks over %zu "
                 "programs, one-shot ran %zu programs\n",
                 report.tasks.size(), report.programs,
                 expected.programs.size());
    return false;
  }
  bool match = true;
  for (std::size_t p = 0; p < report.programs; ++p) {
    for (std::size_t k = 0; k < runs; ++k) {
      const harness::RunRecord& r = expected.programs[p].runs.at(k);
      const service::TaskRecord& t = report.tasks[p * runs + k];
      if (r.found == t.found && r.candidates == t.candidates &&
          r.generations == t.generations)
        continue;
      std::fprintf(stderr,
                   "[fleet_coord] MISMATCH p=%zu k=%zu: fleet (found=%d "
                   "cand=%zu gen=%zu) vs one-shot (found=%d cand=%zu "
                   "gen=%zu)\n",
                   p, k, t.found, t.candidates, t.generations, r.found,
                   r.candidates, r.generations);
      match = false;
    }
  }
  return match;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace netsyn;
  try {
    const util::ArgParse args(argc, argv);
    const harness::ExperimentConfig config =
        harness::ExperimentConfig::fromArgs(args);
    const std::string method = args.getString("method", "Edit");

    service::FleetConfig fc;
    fc.token = args.getString("token", "fleet-1");
    fc.pollIntervalMs = args.getDouble("poll-ms", 20.0);
    fc.hostTimeoutSeconds = args.getDouble("host-timeout", 120.0);
    fc.verbose = args.getBool("verbose", false);
    if (args.has("chaos-kill-host")) {
      fc.chaosKill = true;
      const std::string victim = args.getString("chaos-kill-host", "auto");
      fc.chaosKillHost = victim == "auto" ? -1 : std::stol(victim);
    }

    // Socket mode: --hosts is an endpoint list, or --hosts-file names one.
    const std::string hostsArg = args.getString("hosts", "");
    const std::string hostsFile = args.getString("hosts-file", "");
    std::vector<util::SocketEndpoint> endpoints;
    if (!hostsFile.empty()) {
      if (!hostsArg.empty())
        throw std::invalid_argument("--hosts and --hosts-file are exclusive");
      endpoints = readHostsFile(hostsFile);
    } else if (!hostsArg.empty() && !looksLikeCount(hostsArg)) {
      endpoints = parseEndpointList(hostsArg);
    }

    std::unique_ptr<service::FleetCoordinator> fleet;
    if (!endpoints.empty()) {
      const long redial = args.getInt("reconnect-attempts", 3);
      if (redial < 0)
        throw std::invalid_argument("--reconnect-attempts must be >= 0");
      fc.maxReconnectAttempts = static_cast<std::size_t>(redial);
      // The daemons' state dirs are theirs to manage; adoption-on-failover
      // needs a shared filesystem, which a remote fleet cannot assume.
      fleet = std::make_unique<service::FleetCoordinator>(fc, endpoints);
    } else {
      const long hosts = hostsArg.empty() ? 2 : args.getInt("hosts", 2);
      if (hosts <= 0) throw std::invalid_argument("--hosts must be > 0");
      fc.hosts = static_cast<std::size_t>(hosts);

      service::LocalBackendConfig backend;
      backend.synthdPath = args.getString("synthd", "./synthd");
      const long workers = args.getInt("host-workers", 1);
      if (workers < 0)
        throw std::invalid_argument("--host-workers must be >= 0");
      backend.workers = static_cast<std::size_t>(workers);
      backend.stateDir = args.getString("state-dir", "");
      const long ckpt = args.getInt("checkpoint-interval", 5);
      if (ckpt < 0)
        throw std::invalid_argument("--checkpoint-interval must be >= 0");
      backend.checkpointInterval = static_cast<std::size_t>(ckpt);
      backend.faults = args.getString("daemon-faults", "");
      if (args.has("max-queue"))
        backend.extraArgs.push_back(
            "--max-queue=" + std::to_string(args.getInt("max-queue", 0)));
      fleet = std::make_unique<service::FleetCoordinator>(fc, backend);
    }

    const service::FleetReport report = fleet->run(config, method);
    fleet->shutdownBackends();
    const service::FleetMetrics metrics = fleet->metrics();

    const std::string reportPath = args.getString("report", "");
    if (reportPath.empty()) {
      std::cout << report.render() << "\n";
    } else {
      std::ofstream out(reportPath, std::ios::trunc);
      if (!out) throw std::runtime_error("cannot write " + reportPath);
      out << report.render() << "\n";
    }
    const std::string metricsPath = args.getString("metrics-json", "");
    if (!metricsPath.empty()) {
      std::ofstream out(metricsPath, std::ios::trunc);
      if (!out) throw std::runtime_error("cannot write " + metricsPath);
      out << metrics.toJson() << "\n";
    }
    std::fprintf(stderr,
                 "[fleet_coord] done: hosts=%zu lost=%zu restarted=%zu "
                 "reconnected=%zu reassigned=%zu shed=%zu recovered=%zu "
                 "synthesized_fraction=%.3f\n",
                 metrics.hostsSpawned, metrics.hostsLost,
                 metrics.hostsRestarted, metrics.hostsReconnected,
                 metrics.tasksReassigned, metrics.claimsShed,
                 metrics.recovered(), report.synthesizedFraction);
    if (args.getBool("verify", false)) {
      if (!matchesOneShot(report, config, method)) {
        std::fprintf(stderr,
                     "[fleet_coord] FAILED: fleet results diverge from a "
                     "one-shot run\n");
        return 1;
      }
      std::fprintf(stderr,
                   "[fleet_coord] verified against a one-shot run\n");
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[fleet_coord] fatal: %s\n", e.what());
    return 1;
  }
}
