#include "service/protocol.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/faultinject.hpp"
#include "util/json.hpp"

namespace netsyn::service {
namespace {

std::string errorJson(const std::string& op, const std::string& message) {
  std::ostringstream os;
  os << "{\"ok\": false";
  if (!op.empty()) os << ", \"op\": \"" << util::escapeJson(op) << "\"";
  os << ", \"error\": \"" << util::escapeJson(message) << "\"}";
  return os.str();
}

/// Per-program synthesis aggregates over the completed tasks (matches
/// MethodReport::synthesizedFraction / meanSynthesisRate on a Done job).
void synthesisAggregates(const JobStatus& st, double& synthesizedFraction,
                         double& meanRate) {
  synthesizedFraction = 0.0;
  meanRate = 0.0;
  if (st.programs == 0 || st.runsPerProgram == 0) return;
  std::vector<std::size_t> foundPerProgram(st.programs, 0);
  for (const TaskRecord& t : st.tasks)
    if (t.found && t.program < st.programs) ++foundPerProgram[t.program];
  std::size_t synthesized = 0;
  double rateSum = 0.0;
  for (std::size_t f : foundPerProgram) {
    synthesized += f > 0 ? 1 : 0;
    rateSum += static_cast<double>(f) / static_cast<double>(st.runsPerProgram);
  }
  synthesizedFraction =
      static_cast<double>(synthesized) / static_cast<double>(st.programs);
  meanRate = rateSum / static_cast<double>(st.programs);
}

std::uint64_t requireJobId(const util::JsonValue& root) {
  const util::JsonValue* job = root.find("job");
  if (!job) throw std::invalid_argument("missing \"job\" id");
  return util::jsonUnsigned(*job, "job");
}

std::string metricsJson(const ServiceMetrics& m) {
  const SessionStats& s = m.stats;
  std::ostringstream os;
  os << "{\"ok\": true, \"op\": \"metrics\""
     << ", \"queue_depth\": " << m.queueDepth
     << ", \"retry_waiting\": " << m.retryWaiting
     << ", \"max_queued_tasks\": " << m.maxQueuedTasks
     << ", \"jobs_tracked\": " << m.jobsTracked
     << ", \"jobs_active\": " << m.jobsActive
     << ", \"result_cache_entries\": " << m.resultCacheEntries
     << ", \"fault_hits\": " << m.faultHits
     << ", \"fault_fires\": " << m.faultFires
     << ", \"jobs_submitted\": " << s.jobsSubmitted
     << ", \"jobs_completed\": " << s.jobsCompleted
     << ", \"jobs_cancelled\": " << s.jobsCancelled
     << ", \"jobs_failed\": " << s.jobsFailed
     << ", \"tasks_executed\": " << s.tasksExecuted
     << ", \"result_cache_hits\": " << s.resultCacheHits
     << ", \"checkpoints_taken\": " << s.checkpointsTaken
     << ", \"tasks_resumed\": " << s.tasksResumed
     << ", \"plan_compiles\": " << s.planCompiles
     << ", \"plan_lookups\": " << s.planLookups
     << ", \"plan_hits\": " << (s.planLookups - s.planCompiles)
     << ", \"submits_rejected\": " << s.submitsRejected
     << ", \"attach_hits\": " << s.attachHits
     << ", \"tasks_retried\": " << s.tasksRetried
     << ", \"tasks_abandoned\": " << s.tasksAbandoned
     << ", \"jobs_deadline_failed\": " << s.jobsDeadlineFailed
     << ", \"jobs_recovered\": " << s.jobsRecovered
     << ", \"durable_checkpoints_written\": " << s.durableCheckpointsWritten
     << ", \"durable_checkpoints_loaded\": " << s.durableCheckpointsLoaded
     << ", \"checkpoints_rejected\": " << s.checkpointsRejected
     << ", \"durable_write_errors\": " << s.durableWriteErrors
     << ", \"hellos_accepted\": " << s.hellosAccepted
     << ", \"stale_tokens_rejected\": " << s.staleTokensRejected
     << ", \"tasks_adopted\": " << s.tasksAdopted
     << ", \"snapshots_adopted\": " << s.snapshotsAdopted << "}";
  return os.str();
}

}  // namespace

std::string jobStatusJson(const JobStatus& st, const std::string& op,
                          const std::string& extraJson) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"ok\": true, \"op\": \"" << util::escapeJson(op) << "\""
     << ", \"job\": " << st.id
     << ", \"state\": \"" << jobStateName(st.state) << "\""
     << ", \"method\": \"" << util::escapeJson(st.method) << "\""
     << ", \"programs\": " << st.programs
     << ", \"runs_per_program\": " << st.runsPerProgram
     << ", \"tasks_total\": " << st.tasksTotal
     << ", \"tasks_done\": " << st.tasksDone
     << ", \"from_cache\": " << (st.fromCache ? "true" : "false")
     << ", \"recovered\": " << (st.recovered ? "true" : "false")
     << ", \"retries\": " << st.retries
     << ", \"plan_compiles\": " << st.planCompiles
     << ", \"plan_lookups\": " << st.planLookups
     << ", \"plan_hits\": " << st.planHits();
  if (!st.error.empty())
    os << ", \"error\": \"" << util::escapeJson(st.error) << "\"";
  if (!st.errorKind.empty())
    os << ", \"error_kind\": \"" << util::escapeJson(st.errorKind) << "\"";
  if (isTerminal(st.state)) {
    double fraction = 0.0;
    double meanRate = 0.0;
    synthesisAggregates(st, fraction, meanRate);
    os << ", \"synthesized_fraction\": " << fraction
       << ", \"mean_synthesis_rate\": " << meanRate;
    os << ", \"tasks\": [";
    for (std::size_t i = 0; i < st.tasks.size(); ++i) {
      const TaskRecord& t = st.tasks[i];
      os << (i ? ", " : "") << "{\"program\": " << t.program
         << ", \"run\": " << t.run
         << ", \"found\": " << (t.found ? "true" : "false")
         << ", \"candidates\": " << t.candidates
         << ", \"generations\": " << t.generations
         << ", \"seconds\": " << t.seconds << "}";
    }
    os << "]";
  }
  os << extraJson << "}";
  return os.str();
}

std::string handleRequestLine(SynthService& service, const std::string& line,
                              bool& shutdownRequested) {
  std::string op;
  try {
    // Chaos hook on the request path: an armed throw fault here becomes a
    // clean ok:false response (the session survives); a crash fault kills
    // the daemon mid-request, which is exactly what the recovery tests
    // want to simulate.
    FAULT_POINT("protocol.request");
    const util::JsonValue root = util::parseJson(line);
    if (root.kind != util::JsonValue::Kind::Object)
      throw std::invalid_argument("request must be a JSON object");
    util::readString(root, "op", op);
    if (op.empty()) throw std::invalid_argument("missing \"op\"");

    if (op == "ping") return "{\"ok\": true, \"op\": \"ping\"}";

    if (op == "submit") {
      const util::JsonValue* cfg = root.find("config");
      if (!cfg) throw std::invalid_argument("missing \"config\"");
      const harness::ExperimentConfig config =
          harness::ExperimentConfig::fromJsonValue(*cfg);
      std::string method = "Edit";
      util::readString(root, "method", method);
      SubmitOptions opts;
      util::readBool(root, "use_result_cache", opts.useResultCache);
      util::readBool(root, "attach", opts.attach);
      util::readDouble(root, "deadline_seconds", opts.deadlineSeconds);
      const SubmitResult res = service.submit(config, method, opts);
      const JobStatus st = service.status(res.id);
      return jobStatusJson(
          st, op, res.attached ? ", \"attached\": true" : ", \"attached\": false");
    }

    if (op == "hello") {
      // Fleet session handshake: {"op":"hello","token":T[,"host":NAME]}.
      std::string token;
      std::string host;
      util::readString(root, "token", token);
      util::readString(root, "host", host);
      const HelloResult h = service.hello(token);
      std::ostringstream os;
      os << "{\"ok\": true, \"op\": \"hello\", \"epoch\": " << h.epoch
         << ", \"resumed\": " << (h.resumed ? "true" : "false");
      if (!host.empty())
        os << ", \"host\": \"" << util::escapeJson(host) << "\"";
      os << "}";
      return os.str();
    }

    if (op == "claim") {
      // Token-guarded submit of a task slice:
      //   {"op":"claim","token":T,"method":M,"config":{...},
      //    "tasks":[i,...][,"attach":B][,"adopt_dir":PATH]}
      // The token check runs before anything else so a zombie
      // coordinator's replay can't even parse-validate its way into a
      // submission.
      std::string token;
      util::readString(root, "token", token);
      service.requireFreshToken(token);
      const util::JsonValue* cfg = root.find("config");
      if (!cfg) throw std::invalid_argument("missing \"config\"");
      const harness::ExperimentConfig config =
          harness::ExperimentConfig::fromJsonValue(*cfg);
      std::string method = "Edit";
      util::readString(root, "method", method);
      SubmitOptions opts;
      util::readBool(root, "use_result_cache", opts.useResultCache);
      util::readBool(root, "attach", opts.attach);
      util::readDouble(root, "deadline_seconds", opts.deadlineSeconds);
      util::readString(root, "adopt_dir", opts.adoptDir);
      if (const util::JsonValue* tasks = root.find("tasks")) {
        if (tasks->kind != util::JsonValue::Kind::Array)
          throw std::invalid_argument(
              "\"tasks\" must be an array of task indices");
        for (const util::JsonValue& t : tasks->items)
          opts.taskFilter.push_back(util::jsonUnsigned(t, "tasks[]"));
      }
      const SubmitResult res = service.submit(config, method, opts);
      const JobStatus st = service.status(res.id);
      return jobStatusJson(st, op,
                           res.attached ? ", \"attached\": true"
                                        : ", \"attached\": false");
    }

    if (op == "status") return jobStatusJson(service.status(requireJobId(root)), op);
    if (op == "wait") return jobStatusJson(service.wait(requireJobId(root)), op);

    if (op == "cancel" || op == "pause" || op == "resume") {
      const std::uint64_t id = requireJobId(root);
      bool applied = false;
      if (op == "cancel") applied = service.cancel(id);
      else if (op == "pause") applied = service.pause(id);
      else applied = service.resume(id);
      std::ostringstream os;
      os << "{\"ok\": true, \"op\": \"" << op << "\", \"job\": " << id
         << ", \"applied\": " << (applied ? "true" : "false")
         << ", \"state\": \"" << jobStateName(service.status(id).state)
         << "\"}";
      return os.str();
    }

    if (op == "metrics") return metricsJson(service.metrics());

    if (op == "shutdown") {
      shutdownRequested = true;
      return "{\"ok\": true, \"op\": \"shutdown\"}";
    }

    throw std::invalid_argument("unknown op '" + op + "'");
  } catch (const OverloadedError& e) {
    // Backpressure rejection: structurally distinguishable from a bad
    // request so clients can back off and resubmit.
    std::ostringstream os;
    os << "{\"ok\": false, \"op\": \"" << util::escapeJson(op)
       << "\", \"error\": \"" << util::escapeJson(e.what())
       << "\", \"rejected\": \"overloaded\"}";
    return os.str();
  } catch (const StaleTokenError& e) {
    // Superseded-session rejection: structurally distinguishable so a
    // coordinator can tell "I was replaced" from a malformed request.
    std::ostringstream os;
    os << "{\"ok\": false, \"op\": \"" << util::escapeJson(op)
       << "\", \"error\": \"" << util::escapeJson(e.what())
       << "\", \"rejected\": \"stale_token\"}";
    return os.str();
  } catch (const std::exception& e) {
    return errorJson(op, e.what());
  }
}

void serveLines(SynthService& service, std::istream& in, std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    bool shutdownRequested = false;
    out << handleRequestLine(service, line, shutdownRequested) << "\n";
    out.flush();
    if (shutdownRequested) {
      service.shutdown();
      return;
    }
  }
}

}  // namespace netsyn::service
