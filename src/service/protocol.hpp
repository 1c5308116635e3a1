// Line-delimited JSON protocol for the synthesis service.
//
// One request object per line in, one response object per line out (flushed
// per response, so a pipe peer can read synchronously). Requests:
//
//   {"op": "ping"}
//   {"op": "submit", "method": "Edit", "config": { ...ExperimentConfig
//       JSON (the toJson()/fromJson schema)... }, "use_result_cache": true,
//       "attach": false, "deadline_seconds": 0}
//   {"op": "status", "job": 1}
//   {"op": "wait",   "job": 1}   // blocks until terminal (or paused:
//                                // a paused job returns immediately, since
//                                // only this session could resume it)
//   {"op": "cancel", "job": 1}
//   {"op": "pause",  "job": 1}
//   {"op": "resume", "job": 1}
//   {"op": "metrics"}
//   {"op": "shutdown"}
//   {"op": "hello", "token": "fleet-1"}          // fleet session handshake
//   {"op": "claim", "token": "fleet-1", "method": "Edit",
//       "config": {...}, "tasks": [0, 3, 5], "attach": true,
//       "adopt_dir": "/path/to/dead/hosts/job/dir"}
//
// Every response carries "ok" plus the echoed "op". Job responses carry
// id/state/progress and the plan-cache counters; terminal states include
// the per-(program, run) "tasks" array and the derived synthesized_fraction
// / mean_synthesis_rate. Failures of any kind come back as
// {"ok": false, "op": ..., "error": "..."} — a malformed line never kills
// the session.
//
// Fault-tolerance surface: "submit" takes "attach" (idempotent
// resubmission by (method, config) key; the response's "attached" says
// whether an existing job was joined) and "deadline_seconds" (per-job
// wall-clock deadline override). A submission rejected by backpressure
// answers {"ok": false, "rejected": "overloaded", ...} so clients can
// distinguish an overloaded daemon from a bad request. Failed jobs carry
// "error_kind" ("task" / "stall" / "deadline"), recovered jobs
// "recovered": true, and "retries" counts watchdog retries. "metrics"
// returns the ServiceMetrics gauges + counters (queue depth, retry
// backlog, fault-injection traffic, durable-checkpoint accounting) and
// every SessionStats counter.
//
// Fleet surface: "hello" establishes (or rotates) the session token — the
// same token is idempotent, a new token supersedes and retires the old one,
// and a retired token answers {"ok": false, "rejected": "stale_token"}.
// "claim" is a token-guarded submit of a task slice: "tasks" lists the
// claimed task indices (index = program * runsPerProgram + run; omitted =
// all), and "adopt_dir" grafts a dead sibling claim's durable records and
// snapshots before the claim runs (fleet failover). Claims attach, memoize,
// and persist under the (method, config, claim) key.
#pragma once

#include <iosfwd>
#include <string>

#include "service/service.hpp"

namespace netsyn::service {

/// Handles one request line and returns the response line (no trailing
/// newline). Sets `shutdownRequested` when the request was a shutdown op
/// (the response still has to be delivered). Never throws for bad input —
/// errors become ok:false responses.
std::string handleRequestLine(SynthService& service, const std::string& line,
                              bool& shutdownRequested);

/// Serves NDJSON requests from `in` until EOF or a shutdown op. Blank
/// lines are ignored. Responses are flushed per line.
void serveLines(SynthService& service, std::istream& in, std::ostream& out);

/// Renders a JobStatus as the protocol's response object (exposed for the
/// daemon/tests; `op` is echoed into the response). `extraJson`, when
/// non-empty, is spliced verbatim before the closing brace and must start
/// with ", " (used for submit's "attached" flag).
std::string jobStatusJson(const JobStatus& st, const std::string& op,
                          const std::string& extraJson = std::string());

}  // namespace netsyn::service
