// Long-lived synthesis service: the daemon core behind `synthd`.
//
// One SynthService multiplexes many synthesis jobs — (ExperimentConfig,
// method) pairs, the same scenario records the bench drivers and the PR 3
// experiment runner consume — over a single persistent worker pool. What a
// one-shot CLI run rebuilds from scratch every invocation stays warm here
// across requests (the MizAR-style serving argument: amortize the engine,
// multiplex the queries):
//
//   - each worker owns a long-lived dsl::Executor, so compiled program
//     plans persist across jobs; a repeat/similar spec re-executes through
//     plans cached by earlier jobs (per-job planCompiles/planLookups deltas
//     are reported so clients can observe the warm path),
//   - each worker keeps its method kits — cloned NN fitness models,
//     probability-map providers with their Spec::fingerprint()-keyed
//     caches, the hand-crafted fitness instances — alive between jobs,
//   - trained models are loaded/trained once per (modelDir, scale) in a
//     service-wide ModelStore and cloned per worker,
//   - completed jobs are memoized by (method, config) so an identical
//     resubmission is answered instantly from the result cache.
//
// Determinism: a job expands to (program, run) tasks over the config's
// generated workload, each seeded by harness::runSeedRng(config, p, k) and
// searched single-threadedly — exactly the parallel experiment runner's
// contract — so a job's found/candidates/generations are bit-identical to
// a one-shot run of the same config, regardless of pool size, concurrent
// jobs, or cache temperature (pinned by tests/test_service.cpp).
//
// Fault tolerance (see ARCHITECTURE.md "Fault tolerance"): a watchdog
// thread enforces per-job wall-clock deadlines, detects stalled tasks (no
// generation progress within `stallSeconds`) and aborts them at the next
// opportunity, and re-runs failed/stalled tasks with capped exponential
// backoff — from the task's last generation-boundary snapshot when one
// exists, from the task's deterministic seed otherwise, so a retried task
// finishes bit-identical to an undisturbed one either way. After
// `maxTaskRetries` failures of one task the job reports Failed with a
// structured reason (JobStatus::errorKind). With `stateDir` set, snapshots
// and completed-task records are additionally persisted (versioned +
// checksummed, written via atomic rename; service/checkpoint.hpp) and a
// restarted service recovers its job table and resumes unfinished tasks
// from their last durable checkpoint. `maxQueuedTasks` bounds the task
// queue; a submission that would exceed it is rejected with
// OverloadedError instead of growing the queue without limit.
//
// Job lifecycle: submit -> Queued -> Running -> Done, with cancel (takes
// effect at the next generation boundary of every in-flight task; queued
// tasks are dropped, other jobs are untouched) and pause/resume (in-flight
// single-population tasks checkpoint their SearchState at a generation
// boundary and later resume on any worker with the same outcome as an
// uninterrupted run; Islands-strategy tasks are pause-atomic — they finish
// their current task before the job parks).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/method.hpp"
#include "harness/config.hpp"
#include "harness/models.hpp"
#include "util/transport.hpp"

namespace netsyn::service {

struct ServiceConfig {
  /// Worker threads serving tasks (0 = the process-wide util::Executor's
  /// concurrency). Their searches grade on the executor.
  std::size_t workers = 2;
  /// Memoize completed jobs by (method, config) and answer identical
  /// resubmissions from the memo.
  bool resultCache = true;

  // ---- fault tolerance ----

  /// Durable-state directory. Empty (default) disables durability; set, the
  /// service persists job manifests, completed-task records, and task
  /// snapshots under `<stateDir>/jobs/` and recovers them on construction.
  /// (The explicit `= {}` lets designated initializers omit this field
  /// without -Wmissing-field-initializers.)
  std::string stateDir = {};
  /// Default per-job wall-clock deadline in seconds (0 = none). A job past
  /// its deadline fails with errorKind "deadline". SubmitOptions can
  /// override per job.
  double defaultDeadlineSeconds = 0.0;
  /// Stall budget: a Running single-population task that makes no
  /// generation progress for this long is aborted at its next opportunity
  /// and retried (0 = stall detection off). Islands-strategy tasks are
  /// exempt (they are scheduling-atomic).
  double stallSeconds = 0.0;
  /// Times one task may fail/stall before the whole job reports Failed.
  std::size_t maxTaskRetries = 3;
  /// Retry backoff: attempt n waits min(retryBackoffMs * 2^(n-1),
  /// retryBackoffCapMs) milliseconds before re-entering the queue.
  double retryBackoffMs = 50.0;
  double retryBackoffCapMs = 2000.0;
  /// Snapshot cadence: running single-population tasks refresh their
  /// retry/durability snapshot every this many generations (0 = only on
  /// pause). Purely a recovery-cost knob — results are identical for every
  /// value, since a retry without a snapshot restarts from the task seed.
  std::size_t checkpointEveryGenerations = 0;
  /// Backpressure: maximum queued tasks across all jobs; a submission whose
  /// tasks would not fit throws OverloadedError (0 = unbounded).
  std::size_t maxQueuedTasks = 0;
};

/// submit() backpressure rejection (queue full). The protocol maps this to
/// {"ok": false, "rejected": "overloaded"}.
class OverloadedError : public std::runtime_error {
 public:
  explicit OverloadedError(const std::string& what)
      : std::runtime_error(what) {}
};

/// A fleet session token that was superseded by a newer hello (or a claim
/// attempted before any hello). The protocol maps this to {"ok": false,
/// "rejected": "stale_token"} so a zombie coordinator's replayed requests
/// are rejected loudly instead of racing the live one.
class StaleTokenError : public std::runtime_error {
 public:
  explicit StaleTokenError(const std::string& what)
      : std::runtime_error(what) {}
};

/// hello() outcome: the session epoch this token now owns, and whether the
/// backend rebuilt jobs from its durable state dir at startup (the signal
/// that a reconnecting coordinator should re-claim with attach).
struct HelloResult {
  std::uint64_t epoch = 0;
  bool resumed = false;
};

enum class JobState : std::uint8_t {
  Queued,     ///< accepted, no task started yet
  Running,    ///< at least one task started
  Paused,     ///< checkpointed at generation boundaries; resume() continues
  Done,       ///< every task finished; results available
  Cancelled,  ///< cancel() or shutdown() stopped it
  Failed,     ///< a task threw; JobStatus::error holds the message
};

const char* jobStateName(JobState s);
bool isTerminal(JobState s);

/// One (program, run) outcome — the service-side RunRecord.
struct TaskRecord {
  std::size_t program = 0;  ///< index into the job's generated workload
  std::size_t run = 0;      ///< repetition k
  bool found = false;
  std::size_t candidates = 0;
  std::size_t generations = 0;
  double seconds = 0.0;
};

struct JobStatus {
  std::uint64_t id = 0;
  JobState state = JobState::Queued;
  std::string method;
  std::size_t programs = 0;        ///< workload size
  std::size_t runsPerProgram = 0;  ///< K
  std::size_t tasksTotal = 0;
  std::size_t tasksDone = 0;
  bool fromCache = false;  ///< answered from the job-result memo
  bool recovered = false;  ///< restored from the durable state dir
  std::size_t retries = 0; ///< task retries spent by this job so far
  /// Plan-cache traffic this job caused across the workers that ran it.
  /// planHits() on a resubmitted spec is the warm-cache signal: the second
  /// identical job recompiles (almost) nothing.
  std::size_t planCompiles = 0;
  std::size_t planLookups = 0;
  std::size_t planHits() const { return planLookups - planCompiles; }
  std::string error;      ///< set when state == Failed
  /// Structured failure class when state == Failed: "task" (a task
  /// exhausted its retries), "stall" (the exhausting failure was a stall
  /// abort), or "deadline" (the job ran past its wall-clock deadline).
  std::string errorKind;
  /// Completed task outcomes (every slot for Done; the finished subset for
  /// Cancelled/Failed/Paused). Order: task index = program * K + run.
  std::vector<TaskRecord> tasks;
};

struct SubmitOptions {
  /// Memo participation (both lookup and store), as in the bool overload.
  bool useResultCache = true;
  /// Idempotent resubmission: when a job with the same (method, config) key
  /// is already tracked and not Cancelled/Failed, return its id (with
  /// SubmitResult::attached set) instead of starting a duplicate run. The
  /// fleet coordinator re-claims this way after a backend restart or a
  /// re-dial — safe because identical submissions are deterministic.
  bool attach = false;
  /// Per-job wall-clock deadline override (seconds; 0 = the service
  /// default).
  double deadlineSeconds = 0.0;
  /// Fleet task claim: restrict this job to the given task indices
  /// (task index = program * runsPerProgram + run); empty claims every
  /// task. The set is normalized (sorted, deduped) and is part of the job's
  /// identity — attach, the result memo, and the durable state-dir name all
  /// key on (method, config, claim) — so two hosts claiming disjoint slices
  /// of one workload never collide. Out-of-range indices throw
  /// std::invalid_argument. Unclaimed tasks are never scheduled and the job
  /// completes when every *claimed* task is done.
  std::vector<std::size_t> taskFilter;
  /// Fleet failover: path to a dead sibling claim's durable job directory
  /// (shared filesystem). At submit, completed-task records found in its
  /// tasks.ndjson become Done tasks here (re-persisted into this job's own
  /// log) and its valid task snapshots become resume checkpoints, so the
  /// reassigned claim continues where the dead host stopped instead of
  /// redoing its work. Unreadable/corrupt entries are skipped — those
  /// tasks restart from their deterministic seed with identical results.
  std::string adoptDir;
};

struct SubmitResult {
  std::uint64_t id = 0;
  bool attached = false;  ///< joined an existing job by key (opts.attach)
};

/// Whole-session accounting, served inside the protocol's "metrics" op.
struct SessionStats {
  std::size_t jobsSubmitted = 0;
  std::size_t jobsCompleted = 0;
  std::size_t jobsCancelled = 0;
  std::size_t jobsFailed = 0;
  std::size_t tasksExecuted = 0;     ///< completed task executions
  std::size_t resultCacheHits = 0;   ///< jobs answered from the memo
  std::size_t checkpointsTaken = 0;  ///< tasks parked by pause()
  std::size_t tasksResumed = 0;      ///< checkpointed tasks continued
  std::size_t planCompiles = 0;      ///< across all workers
  std::size_t planLookups = 0;
  // ---- fault tolerance ----
  std::size_t submitsRejected = 0;   ///< backpressure (OverloadedError)
  std::size_t attachHits = 0;        ///< submissions joined by key
  std::size_t tasksRetried = 0;      ///< failed/stalled tasks re-enqueued
  std::size_t tasksAbandoned = 0;    ///< stall-watchdog aborts
  std::size_t jobsDeadlineFailed = 0;
  std::size_t jobsRecovered = 0;     ///< rebuilt from the state dir
  std::size_t durableCheckpointsWritten = 0;
  std::size_t durableCheckpointsLoaded = 0;  ///< decoded + accepted
  std::size_t checkpointsRejected = 0;  ///< bad checksum/frame, or stale
  std::size_t durableWriteErrors = 0;   ///< persistence failures (non-fatal)
  // ---- fleet ----
  std::size_t hellosAccepted = 0;       ///< session tokens accepted/rotated
  std::size_t staleTokensRejected = 0;  ///< superseded-token replays refused
  std::size_t tasksAdopted = 0;     ///< finished tasks grafted via adoptDir
  std::size_t snapshotsAdopted = 0; ///< resume checkpoints grafted likewise
};

/// Point-in-time gauges + counters for scraping (the protocol "metrics"
/// op). Everything here is one consistent snapshot under the service lock.
struct ServiceMetrics {
  SessionStats stats;
  std::size_t queueDepth = 0;     ///< tasks waiting for a worker
  std::size_t retryWaiting = 0;   ///< tasks parked in retry backoff
  std::size_t maxQueuedTasks = 0; ///< configured cap (0 = unbounded)
  std::size_t jobsTracked = 0;    ///< jobs currently in the table
  std::size_t jobsActive = 0;     ///< tracked and not terminal
  std::size_t resultCacheEntries = 0;
  std::uint64_t faultHits = 0;    ///< armed fault-site traffic (0 disarmed)
  std::uint64_t faultFires = 0;
};

/// Trained-model store shared by every worker: the NN fitness models for a
/// given (modelDir, scale) are loaded from the on-disk cache (or trained)
/// exactly once per service lifetime; workers clone from the stored
/// instances. Thread-safe.
class ModelStore {
 public:
  /// Models for `config` (loads/trains on first use — training can take a
  /// while when no disk cache exists; NetSyn_* jobs are the only users).
  harness::TrainedModels get(const harness::ExperimentConfig& config);

 private:
  std::mutex mu_;
  std::map<std::string, harness::TrainedModels> store_;
};

/// GA method names the service schedules through its steppable search path:
/// "Edit", "Oracle_CF", "Oracle_LCS", "NetSyn_CF", "NetSyn_LCS",
/// "NetSyn_FP" (registry spelling).
bool isKnownMethod(const std::string& name);

/// A one-shot method instance for `method` built through the same registry
/// transforms the service applies per job — the comparison path
/// tests/test_service.cpp and `fleet_coord --verify` run jobs through.
baselines::MethodPtr makeOneShotMethod(const std::string& method,
                                       const harness::ExperimentConfig& config,
                                       ModelStore& models);

/// The directory name (under `<stateDir>/jobs/`) a job with this (method,
/// config, claim) persists to — 16 hex digits of the job key hash. Exposed
/// so a fleet coordinator can point a surviving host's claim at a dead
/// host's job directory (SubmitOptions::adoptDir) without asking the dead
/// host anything.
std::string jobDirName(const std::string& method,
                       const harness::ExperimentConfig& config,
                       const std::vector<std::size_t>& taskFilter = {});

class SynthService {
 public:
  /// Construction also runs durable recovery when config.stateDir is set:
  /// jobs found under the state dir are rebuilt before the worker pool
  /// starts — terminal ones become queryable history (Done jobs re-seed the
  /// result memo), interrupted ones re-enter the queue and resume from
  /// their last valid checkpoint.
  explicit SynthService(ServiceConfig config = {});
  ~SynthService();  ///< shutdown()
  SynthService(const SynthService&) = delete;
  SynthService& operator=(const SynthService&) = delete;

  /// Accepts a job and enqueues its (program, run) tasks. Workload
  /// generation and method validation run on the caller's thread; throws
  /// std::invalid_argument / std::runtime_error on a bad method name or
  /// config. `useResultCache = false` opts this job out of the completed-
  /// job memo (both lookup and store) — the search still enjoys the warm
  /// plan caches.
  std::uint64_t submit(const harness::ExperimentConfig& config,
                       const std::string& method, bool useResultCache = true);

  /// submit() with the full option set (attach-by-key, per-job deadline,
  /// fleet task claim + snapshot adoption). Throws OverloadedError when the
  /// task queue is at its configured cap.
  SubmitResult submit(const harness::ExperimentConfig& config,
                      const std::string& method, const SubmitOptions& opts);

  /// Fleet session handshake. A coordinator establishes (or rotates to)
  /// `token`: the same token re-hello'd is idempotent (same epoch back — a
  /// reconnect after a backend restart just re-establishes the session);
  /// a *new* token supersedes the old one, bumping the epoch and retiring
  /// the predecessor so its replayed requests fail with StaleTokenError.
  /// Empty tokens throw std::invalid_argument; retired tokens throw
  /// StaleTokenError. HelloResult::resumed tells the caller whether this
  /// backend recovered durable jobs at startup (re-claim with attach).
  HelloResult hello(const std::string& token);

  /// Validates a claim's session token: throws StaleTokenError when it is
  /// not the current one (or no hello happened yet), std::invalid_argument
  /// when empty. The protocol's "claim" op calls this before submitting.
  void requireFreshToken(const std::string& token) const;

  /// Snapshot of a job (throws std::out_of_range on unknown id). The
  /// service retains a bounded history: the oldest terminal jobs are
  /// eventually evicted and their ids read as unknown again.
  JobStatus status(std::uint64_t id) const;

  /// Blocks until the job reaches a terminal state — or Paused, which
  /// returns immediately rather than deadlocking callers (like a
  /// single-threaded protocol session) that are themselves the only source
  /// of the eventual resume(). Terminal statuses carry the tasks.
  JobStatus wait(std::uint64_t id);

  /// Requests cancellation; running tasks stop at their next generation
  /// boundary, queued tasks are dropped. Returns false when the job was
  /// already terminal.
  bool cancel(std::uint64_t id);

  /// Parks a Queued/Running job: in-flight single-population tasks
  /// checkpoint at their next generation boundary. Returns false otherwise.
  bool pause(std::uint64_t id);

  /// Re-enqueues a Paused job's unfinished tasks (checkpointed ones resume
  /// their exact trajectory). Returns false when the job is not Paused.
  bool resume(std::uint64_t id);

  SessionStats stats() const;

  /// One consistent snapshot of counters + gauges for scraping.
  ServiceMetrics metrics() const;

  /// Stops the pool: outstanding jobs are cancelled, workers join. Called
  /// by the destructor; idempotent. Durable state is deliberately NOT
  /// marked terminal — a shut-down (or killed) daemon's unfinished jobs
  /// recover on the next construction with the same stateDir.
  void shutdown();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Network front end for one SynthService: accepts TCP or Unix-domain
/// connections on a util::SocketListener and serves each as an independent
/// NDJSON protocol session on its own thread (the same handleRequestLine
/// path the stdin/stdout daemon and pipe transports speak, so every
/// session is fenced by the hello epoch tokens). A "shutdown" op from any
/// session stops the service and the server.
///
/// The accept loop polls in short finite ticks and checks a stop flag
/// between them — the documented-safe way to stop a SocketListener without
/// racing a blocked accept. Connection drops are per-session events: one
/// peer vanishing (TransportClosed) just ends that session's thread, the
/// listener and the other sessions keep going, and a reconnecting peer is
/// a fresh accept.
class SocketServer {
 public:
  /// Binds `endpoint` (TCP port 0 = ephemeral; see boundEndpoint()).
  /// `recvTimeoutSeconds` bounds each session's per-request read (0 = wait
  /// forever — sessions are request-driven, an idle peer is not an error).
  SocketServer(SynthService& service, const util::SocketEndpoint& endpoint,
               double recvTimeoutSeconds = 0.0);
  ~SocketServer();  ///< stop()
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// The bound address (ephemeral TCP port resolved) — what a client dials.
  const util::SocketEndpoint& boundEndpoint() const;

  /// Starts the accept loop on a background thread. Idempotent.
  void start();

  /// Serves on the calling thread until a shutdown op arrives (what
  /// `synthd --listen` runs as its main loop).
  void run();

  /// Stops accepting, severs every live session, joins all threads.
  /// Idempotent. Not callable from a session thread (it joins them) — a
  /// shutdown op arriving over a session instead raises the stop flag, and
  /// run()/the owner performs the join.
  void stop();

 private:
  struct Session;

  void acceptLoop();
  void serveSession(Session* session);
  void reapFinishedSessions();

  SynthService& service_;
  util::SocketListener listener_;
  double recvTimeoutSeconds_ = 0.0;

  std::mutex mu_;  ///< guards sessions_
  std::vector<std::unique_ptr<Session>> sessions_;

  std::thread acceptThread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
};

}  // namespace netsyn::service
