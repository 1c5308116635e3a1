// synthd — the long-lived synthesis daemon.
//
// Serves the line-delimited JSON protocol (service/protocol.hpp) on
// stdin/stdout, so any parent process — fleet_coord, a CI step, a shell
// pipeline — can hold a session over a pipe pair. Jobs submitted on the
// session run concurrently on one shared worker pool with cross-request
// plan/model/result caches (service/service.hpp); responses come back one
// JSON object per line, flushed.
//
// With --listen the daemon serves the same protocol over a TCP or
// Unix-domain socket instead: each accepted connection is an independent
// NDJSON session on its own thread (service::SocketServer), so one daemon
// can serve several fleet coordinators' sessions at once.
// A shutdown op from any session stops the daemon.
//
// Usage:
//   synthd [--workers=N] [--no-result-cache] [--state-dir=DIR]
//          [--deadline-seconds=S] [--stall-seconds=S] [--max-retries=N]
//          [--checkpoint-interval=G] [--max-queue=N]
//          [--faults=SPEC] [--fault-seed=N]
//          [--listen=HOST:PORT|unix:PATH] [--port-file=PATH]
//
//   --workers=N            worker threads (0 = one per hardware thread;
//                          default 2)
//   --listen=ENDPOINT      serve connections on a socket instead of
//                          stdin/stdout: "HOST:PORT" (TCP; PORT 0 asks the
//                          kernel for an ephemeral port) or "unix:PATH"
//   --port-file=PATH       write the bound endpoint (one line, the form
//                          --connect/--hosts accepts) to PATH once
//                          listening — how CI discovers an ephemeral port
//   --no-result-cache      disable the completed-job memo (plan/model
//                          caches stay on)
//   --state-dir=DIR        durable job state under DIR/jobs/; on startup
//                          the daemon recovers jobs found there and resumes
//                          unfinished tasks from their last checkpoint
//   --deadline-seconds=S   default per-job wall-clock deadline (0 = none)
//   --stall-seconds=S      per-task stall budget before the watchdog aborts
//                          and retries the task (0 = off)
//   --max-retries=N        task retries before the job fails (default 3)
//   --checkpoint-interval=G  snapshot running tasks every G generations
//                          (default 25; 0 = only on pause)
//   --max-queue=N          reject submissions that would push the task
//                          queue past N ("rejected": "overloaded"; 0 = off)
//   --faults=SPEC          arm deterministic fault injection, e.g.
//                          "service.task.generation=throw@40;
//                           checkpoint.write=delay:5/3" (util/faultinject.hpp)
//   --fault-seed=N         seed for probabilistic fault draws
//
// The NETSYN_FAULTS / NETSYN_FAULT_SEED environment variables arm the same
// registry (applied after the flags, so the environment wins in CI).
//
// Exits when stdin closes or a {"op": "shutdown"} request arrives (in
// socket mode: on shutdown only — individual connections may come and go).
// Diagnostics go to stderr; stdout carries protocol responses only.
#include <cstdio>
#include <fstream>
#include <iostream>

#include "service/protocol.hpp"
#include "service/service.hpp"
#include "util/argparse.hpp"
#include "util/faultinject.hpp"
#include "util/transport.hpp"

int main(int argc, char** argv) {
  using namespace netsyn;
  try {
    const util::ArgParse args(argc, argv);
    service::ServiceConfig cfg;
    const long workers = args.getInt("workers", 2);
    if (workers < 0) throw std::invalid_argument("--workers must be >= 0");
    cfg.workers = static_cast<std::size_t>(workers);
    cfg.resultCache = !args.getBool("no-result-cache", false);
    cfg.stateDir = args.getString("state-dir", "");
    cfg.defaultDeadlineSeconds = args.getDouble("deadline-seconds", 0.0);
    cfg.stallSeconds = args.getDouble("stall-seconds", 0.0);
    const long retries = args.getInt("max-retries", 3);
    if (retries < 0) throw std::invalid_argument("--max-retries must be >= 0");
    cfg.maxTaskRetries = static_cast<std::size_t>(retries);
    const long ckpt = args.getInt("checkpoint-interval", 25);
    if (ckpt < 0)
      throw std::invalid_argument("--checkpoint-interval must be >= 0");
    cfg.checkpointEveryGenerations = static_cast<std::size_t>(ckpt);
    const long maxQueue = args.getInt("max-queue", 0);
    if (maxQueue < 0) throw std::invalid_argument("--max-queue must be >= 0");
    cfg.maxQueuedTasks = static_cast<std::size_t>(maxQueue);

    if (args.has("fault-seed"))
      util::FaultRegistry::instance().setSeed(
          static_cast<std::uint64_t>(args.getInt("fault-seed", 0)));
    const std::string faults = args.getString("faults", "");
    if (!faults.empty()) util::FaultRegistry::instance().armFromText(faults);
    util::FaultRegistry::instance().armFromEnv();

    service::SynthService svc(cfg);
    const std::string listen = args.getString("listen", "");
    if (!listen.empty()) {
      service::SocketServer server(svc,
                                   util::SocketEndpoint::parse(listen));
      const std::string bound = server.boundEndpoint().str();
      const std::string portFile = args.getString("port-file", "");
      if (!portFile.empty()) {
        std::ofstream out(portFile, std::ios::trunc);
        out << bound << "\n";
        if (!out) throw std::runtime_error("cannot write " + portFile);
      }
      std::fprintf(stderr,
                   "[synthd] listening on %s (workers=%ld, "
                   "result-cache=%s%s%s)\n",
                   bound.c_str(), workers, cfg.resultCache ? "on" : "off",
                   cfg.stateDir.empty() ? "" : ", state-dir=",
                   cfg.stateDir.c_str());
      server.run();  // until a shutdown op
      std::fprintf(stderr, "[synthd] shut down\n");
      return 0;
    }
    std::fprintf(stderr,
                 "[synthd] serving NDJSON on stdin/stdout (workers=%ld, "
                 "result-cache=%s%s%s)\n",
                 workers, cfg.resultCache ? "on" : "off",
                 cfg.stateDir.empty() ? "" : ", state-dir=",
                 cfg.stateDir.c_str());
    service::serveLines(svc, std::cin, std::cout);
    std::fprintf(stderr, "[synthd] session closed\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[synthd] fatal: %s\n", e.what());
    return 1;
  }
}
