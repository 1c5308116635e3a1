#include "service/service.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "core/search_state.hpp"
#include "dsl/interpreter.hpp"
#include "fitness/edit.hpp"
#include "fitness/metrics.hpp"
#include "fitness/neural_fitness.hpp"
#include "harness/registry.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "service/checkpoint.hpp"
#include "service/protocol.hpp"
#include "util/executor.hpp"
#include "util/faultinject.hpp"
#include "util/json.hpp"

namespace netsyn::service {

const char* jobStateName(JobState s) {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Paused: return "paused";
    case JobState::Done: return "done";
    case JobState::Cancelled: return "cancelled";
    case JobState::Failed: return "failed";
  }
  return "?";
}

bool isTerminal(JobState s) {
  return s == JobState::Done || s == JobState::Cancelled ||
         s == JobState::Failed;
}

bool isKnownMethod(const std::string& name) {
  return name == "Edit" || name == "Oracle_CF" || name == "Oracle_LCS" ||
         name == "NetSyn_CF" || name == "NetSyn_LCS" || name == "NetSyn_FP";
}

harness::TrainedModels ModelStore::get(
    const harness::ExperimentConfig& config) {
  // Model identity is keyed by the on-disk cache location (directory +
  // scale + domain tags), matching harness::modelCachePath — two configs
  // that would share cache files share store entries. Training-dimension
  // variations under one (modelDir, scale, domain) are not distinguished;
  // use distinct modelDirs for those.
  const std::string key =
      config.modelDir + "|" + config.scaleName + "|" + config.domainName;
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = store_.find(key); it != store_.end()) return it->second;
  harness::TrainedModels models = loadOrTrainAll(config, /*quiet=*/true);
  store_.emplace(key, models);
  return models;
}

baselines::MethodPtr makeOneShotMethod(const std::string& method,
                                       const harness::ExperimentConfig& config,
                                       ModelStore& models) {
  if (method == "Edit") return harness::makeEdit(config);
  if (method == "Oracle_CF")
    return harness::makeOracle(config, fitness::BalanceMetric::CF);
  if (method == "Oracle_LCS")
    return harness::makeOracle(config, fitness::BalanceMetric::LCS);
  if (method == "NetSyn_CF")
    return harness::makeNetSyn(config, models.get(config),
                               harness::NetSynVariant::CF);
  if (method == "NetSyn_LCS")
    return harness::makeNetSyn(config, models.get(config),
                               harness::NetSynVariant::LCS);
  if (method == "NetSyn_FP")
    return harness::makeNetSyn(config, models.get(config),
                               harness::NetSynVariant::FP);
  throw std::invalid_argument("unknown method '" + method + "'");
}

namespace {

// Per-job poll signal, read by workers once per generation without taking
// the service lock.
constexpr std::uint8_t kPollContinue = 0;
constexpr std::uint8_t kPollPause = 1;
constexpr std::uint8_t kPollCancel = 2;

/// Per-task scheduling phase. Queue-entry invariant: a queue entry exists
/// for a task iff its phase is Queued (plus at most one consumed entry
/// while Running); Parked/Checkpointed tasks re-enter the queue only
/// through resume(), RetryWait tasks only through the watchdog once their
/// backoff elapses.
enum class Phase : std::uint8_t {
  Queued,        ///< waiting in (or owed to) the task queue
  Running,       ///< a worker is executing it
  Parked,        ///< popped while the job was paused; not yet restartable
  Checkpointed,  ///< paused mid-search; snapshot held
  RetryWait,     ///< failed/stalled; re-queued after its backoff delay
  Done,          ///< TaskRecord recorded
  Unclaimed,     ///< outside this job's fleet claim; never scheduled
};

struct TaskCheckpoint {
  core::SearchState::Snapshot snap;
  util::Rng rng{0};
  bool valid = false;
};

struct Job {
  std::uint64_t id = 0;
  std::string method;
  harness::ExperimentConfig config;
  core::SynthesizerConfig searchConfig;  ///< methodSearchConfig(config, method)
  /// Released once the job is terminal and idle (trimIfIdleLocked) — report
  /// fields must come from programCount/runsPer, never workload.size().
  std::vector<harness::TestProgram> workload;
  std::size_t programCount = 0;
  std::size_t runsPer = 1;
  /// Fleet claim: the sorted task indices this job owns (empty = all).
  /// Unclaimed tasks sit in Phase::Unclaimed and never schedule; the job is
  /// complete when tasksDone == claimedTotal.
  std::vector<std::size_t> claimed;
  std::size_t claimedTotal = 0;
  bool useResultCache = true;
  std::string cacheKey;
  std::uint64_t keyHash = 0;  ///< fnv1a64(cacheKey): attach + state-dir name
  double deadlineSeconds = 0.0;  ///< 0 = none
  std::chrono::steady_clock::time_point start;
  bool recovered = false;        ///< rebuilt from the durable state dir
  std::string stateDirPath;      ///< empty = this job is not persisted

  JobState state = JobState::Queued;
  std::atomic<std::uint8_t> pollSignal{kPollContinue};
  std::vector<Phase> phase;
  std::vector<TaskCheckpoint> checkpoints;
  std::vector<TaskRecord> tasks;
  std::vector<std::size_t> retryCount;  ///< per task
  std::size_t retriesTotal = 0;
  /// Per-task liveness beat (steady-clock ms of the last generation
  /// boundary; -1 = not running) and stall-abort request, both written/read
  /// off-lock. vector<atomic> is non-movable, hence the raw arrays.
  std::unique_ptr<std::atomic<std::int64_t>[]> beatMs;
  std::unique_ptr<std::atomic<bool>[]> abortFlag;
  std::size_t tasksDone = 0;
  std::size_t running = 0;  ///< tasks currently on a worker
  bool fromCache = false;
  std::size_t planCompiles = 0;
  std::size_t planLookups = 0;
  std::string error;
  std::string errorKind;
};

/// One worker's cross-request hot state: the plan-cache-bearing execution
/// engine and the per-method grading kits (NN clones and their
/// fingerprint-keyed caches included). Lives as long as the worker thread.
struct WorkerContext {
  dsl::Executor executor;

  struct MethodKit {
    fitness::FitnessPtr fitness;  ///< persistent; null for oracle methods
    std::shared_ptr<fitness::ProbMapProvider> probMap;
    bool oracle = false;
    fitness::BalanceMetric oracleMetric = fitness::BalanceMetric::CF;
  };
  std::unordered_map<std::string, MethodKit> kits;
};

enum class TaskOutcome {
  Completed,
  Checkpointed,
  Cancelled,
  Failed,     ///< the task threw (FaultInjected included)
  Abandoned,  ///< the stall watchdog aborted it at a generation boundary
};

/// Completed-job memo key. config.toJson() covers every serialized field;
/// the fields it does NOT serialize but which still steer the search — the
/// program-generator ranges (they shape the workload and every random
/// candidate) and the NN model dimensions/seed — are appended explicitly,
/// so two embedded callers whose configs differ only there never alias to
/// one memo entry. (Protocol clients can only vary serialized fields, but
/// the public submit() API has no such restriction.)
std::string resultCacheKey(const std::string& method,
                           const harness::ExperimentConfig& config,
                           const std::vector<std::size_t>& claim = {}) {
  std::ostringstream os;
  os.precision(17);
  const dsl::GeneratorConfig& g = config.synthesizer.generator;
  const fitness::NnffConfig& m = config.modelConfig;
  os << method << '\x1f' << config.toJson() << '\x1f' << g.minListLength
     << ',' << g.maxListLength << ',' << g.minValue << ',' << g.maxValue
     << ',' << g.intInputProbability << ',' << g.maxAttempts << '\x1f'
     << m.encoder.vmax << ',' << m.encoder.maxValueTokens << ','
     << m.embedDim << ',' << m.hiddenDim << ',' << m.numClasses << ','
     << m.maxExamples << ',' << static_cast<int>(m.head) << ','
     << m.useTrace << ',' << m.seed << ',' << m.multilabelDim;
  // A fleet claim is part of the job identity: two hosts claiming disjoint
  // slices of one workload must get distinct memo entries and distinct
  // durable state-dir names.
  if (!claim.empty()) {
    os << '\x1f' << "claim:";
    for (std::size_t i = 0; i < claim.size(); ++i)
      os << (i ? "," : "") << claim[i];
  }
  return os.str();
}

/// Sorted, deduped, range-checked claim set. Out-of-range indices are a
/// coordinator bug and fail loudly instead of being silently dropped.
std::vector<std::size_t> normalizeClaim(std::vector<std::size_t> claim,
                                        std::size_t total) {
  std::sort(claim.begin(), claim.end());
  claim.erase(std::unique(claim.begin(), claim.end()), claim.end());
  if (!claim.empty() && claim.back() >= total)
    throw std::invalid_argument(
        "task claim index " + std::to_string(claim.back()) +
        " out of range (job has " + std::to_string(total) + " tasks)");
  if (claim.size() == total) claim.clear();  // a full claim is no claim
  return claim;
}

std::int64_t nowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// State-dir job directory name: 16 hex digits of the job key hash.
std::string key16(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

void initTaskState(Job& job, std::size_t total) {
  job.phase.assign(total, Phase::Queued);
  job.claimed.clear();
  job.claimedTotal = total;
  job.checkpoints.clear();
  job.checkpoints.resize(total);
  job.tasks.assign(total, TaskRecord{});
  job.retryCount.assign(total, 0);
  job.beatMs = std::make_unique<std::atomic<std::int64_t>[]>(total);
  job.abortFlag = std::make_unique<std::atomic<bool>[]>(total);
  for (std::size_t i = 0; i < total; ++i) {
    job.beatMs[i].store(-1, std::memory_order_relaxed);
    job.abortFlag[i].store(false, std::memory_order_relaxed);
  }
}

/// Applies a normalized claim on top of initTaskState: unclaimed tasks park
/// in Phase::Unclaimed permanently. No-op for an empty (= full) claim.
void applyClaim(Job& job, std::vector<std::size_t> claim) {
  if (claim.empty()) return;
  for (Phase& p : job.phase) p = Phase::Unclaimed;
  for (const std::size_t idx : claim) job.phase[idx] = Phase::Queued;
  job.claimedTotal = claim.size();
  job.claimed = std::move(claim);
}

/// Single-line rendering for the done marker / error fields.
std::string oneLine(std::string s) {
  for (char& c : s)
    if (c == '\n' || c == '\r') c = ' ';
  return s;
}

}  // namespace

struct SynthService::Impl {
  explicit Impl(ServiceConfig config) : cfg(config) {
    // Recovery runs single-threaded before any worker or the watchdog
    // exists, so the *Locked helpers are safe to call bare here.
    if (!cfg.stateDir.empty()) recoverStateDir();
    const std::size_t n = cfg.workers == 0
                              ? util::Executor::instance().concurrency()
                              : cfg.workers;
    workers.reserve(n);
    for (std::size_t w = 0; w < n; ++w)
      workers.emplace_back([this, w] { workerLoop(w); });
    watchdog = std::thread([this] { watchdogLoop(); });
  }

  // ---- worker side ----------------------------------------------------------

  void workerLoop(std::size_t /*workerIndex*/);
  void watchdogLoop();
  WorkerContext::MethodKit& kitFor(WorkerContext& ctx, const Job& job);
  TaskOutcome runTask(WorkerContext& ctx, const Job& job, std::size_t idx,
                      TaskCheckpoint& cp, TaskRecord& out);
  void persistTaskCheckpoint(const Job& job, std::size_t idx,
                             const TaskCheckpoint& cp);

  // ---- guarded state --------------------------------------------------------

  mutable std::mutex mu;
  std::condition_variable taskCv;  ///< workers wait for queue entries
  std::condition_variable jobCv;   ///< wait() callers wait for terminal jobs
  std::condition_variable wdCv;    ///< wakes the watchdog early on shutdown
  bool stop = false;
  bool shuttingDown = false;  ///< suppresses done markers: see shutdown()

  ServiceConfig cfg;
  std::uint64_t nextId = 1;
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs;
  std::map<std::uint64_t, std::uint64_t> byKey;  ///< keyHash -> latest job id
  std::deque<std::pair<std::uint64_t, std::size_t>> queue;  ///< (job, task)
  struct RetryEntry {
    std::uint64_t jobId = 0;
    std::size_t idx = 0;
    std::int64_t readyAtMs = 0;
  };
  std::vector<RetryEntry> retryWait;  ///< tasks sleeping out their backoff
  std::map<std::string, std::vector<TaskRecord>> resultCache;
  std::deque<std::string> resultCacheOrder;  ///< FIFO eviction order
  std::deque<std::uint64_t> terminalOrder;   ///< terminal jobs, oldest first
  SessionStats sessionStats;

  /// Fleet session-token handshake state: the current token owns the
  /// epoch; superseded tokens are retired (bounded FIFO) so their replays
  /// fail as StaleTokenError instead of silently racing the live session.
  std::string sessionToken;
  std::uint64_t sessionEpoch = 0;
  std::set<std::string> retiredTokens;
  std::deque<std::string> retiredOrder;
  static constexpr std::size_t kMaxRetiredTokens = 64;

  /// Durable-write counters live off-lock (runTask persists snapshots while
  /// not holding mu); folded into SessionStats by statsLocked().
  std::atomic<std::size_t> durableWrites{0};
  std::atomic<std::size_t> durableErrors{0};

  ModelStore models;  ///< thread-safe on its own lock

  std::vector<std::thread> workers;
  std::thread watchdog;

  // The daemon is long-lived: without retention bounds, per-job state
  // (generated workloads, checkpoints) and the result memo would grow with
  // every request for the process lifetime. Terminal jobs keep their
  // TaskRecords (status/wait still work) but drop workload + checkpoint
  // storage; the oldest terminal jobs and memo entries are evicted outright
  // past these caps (an evicted job id then reads as unknown).
  static constexpr std::size_t kMaxTerminalJobs = 256;
  static constexpr std::size_t kMaxResultCacheEntries = 256;

  SessionStats statsLocked() const;
  JobStatus statusLocked(const Job& job) const;
  void finalizeIfComplete(Job& job);
  void failJobLocked(Job& job, const std::string& kind,
                     const std::string& message);
  void markTerminalLocked(Job& job);
  void trimIfIdleLocked(Job& job);
  void storeResultLocked(const std::string& key,
                         const std::vector<TaskRecord>& tasks);
  void claimStateDirLocked(Job& job);
  void appendTaskRecordLocked(Job& job, std::size_t idx,
                              const TaskRecord& rec);
  void writeDoneMarkerLocked(const Job& job);
  void recoverStateDir();
  void recoverJobDir(const std::string& dir);
  std::size_t loadTaskLogLocked(Job& job, const std::string& dir,
                                bool persist);
  void loadTaskSnapshotsLocked(Job& job, const std::string& dir,
                               std::size_t* accepted = nullptr);
  void adoptFromDirLocked(Job& job, const std::string& dir);
};

SessionStats SynthService::Impl::statsLocked() const {
  SessionStats s = sessionStats;
  s.durableCheckpointsWritten = durableWrites.load(std::memory_order_relaxed);
  s.durableWriteErrors = durableErrors.load(std::memory_order_relaxed);
  return s;
}

JobStatus SynthService::Impl::statusLocked(const Job& job) const {
  JobStatus st;
  st.id = job.id;
  st.state = job.state;
  st.method = job.method;
  st.programs = job.programCount;
  st.runsPerProgram = job.runsPer;
  st.tasksTotal = job.claimedTotal;
  st.tasksDone = job.tasksDone;
  st.fromCache = job.fromCache;
  st.recovered = job.recovered;
  st.retries = job.retriesTotal;
  st.planCompiles = job.planCompiles;
  st.planLookups = job.planLookups;
  st.error = job.error;
  st.errorKind = job.errorKind;
  for (std::size_t i = 0; i < job.tasks.size(); ++i)
    if (job.phase[i] == Phase::Done) st.tasks.push_back(job.tasks[i]);
  return st;
}

void SynthService::Impl::finalizeIfComplete(Job& job) {
  if (job.tasksDone != job.claimedTotal || isTerminal(job.state)) return;
  job.state = JobState::Done;
  ++sessionStats.jobsCompleted;
  if (cfg.resultCache && job.useResultCache)
    storeResultLocked(job.cacheKey, job.tasks);
  markTerminalLocked(job);
  jobCv.notify_all();
}

void SynthService::Impl::failJobLocked(Job& job, const std::string& kind,
                                       const std::string& message) {
  if (isTerminal(job.state)) return;
  job.state = JobState::Failed;
  job.error = oneLine(message);
  job.errorKind = kind;
  job.pollSignal.store(kPollCancel, std::memory_order_relaxed);
  ++sessionStats.jobsFailed;
  markTerminalLocked(job);
  jobCv.notify_all();
}

void SynthService::Impl::markTerminalLocked(Job& job) {
  // shutdown() deliberately leaves no marker: a shut-down daemon's live
  // jobs must recover (state dir intact), while user-visible terminal
  // transitions (Done / Failed / explicit cancel) are final and durable.
  if (!job.stateDirPath.empty() && !shuttingDown) writeDoneMarkerLocked(job);
  terminalOrder.push_back(job.id);
  trimIfIdleLocked(job);
  while (terminalOrder.size() > kMaxTerminalJobs) {
    const std::uint64_t oldest = terminalOrder.front();
    terminalOrder.pop_front();
    // Waiters hold the shared_ptr; erasing the map entry only forgets the
    // id. A job can never be running here: it was terminal when enqueued
    // and kMaxTerminalJobs of newer terminals have since arrived.
    jobs.erase(oldest);
  }
}

void SynthService::Impl::trimIfIdleLocked(Job& job) {
  // Workers reference job.workload by pointer off-lock, so the storage may
  // only be released once no task of this job is executing.
  if (!isTerminal(job.state) || job.running > 0) return;
  job.workload.clear();
  job.workload.shrink_to_fit();
  job.checkpoints.clear();
  job.checkpoints.shrink_to_fit();
}

void SynthService::Impl::storeResultLocked(
    const std::string& key, const std::vector<TaskRecord>& tasks) {
  if (resultCache.emplace(key, tasks).second) resultCacheOrder.push_back(key);
  while (resultCacheOrder.size() > kMaxResultCacheEntries) {
    resultCache.erase(resultCacheOrder.front());
    resultCacheOrder.pop_front();
  }
}

// ---- durable state ----------------------------------------------------------

void SynthService::Impl::claimStateDirLocked(Job& job) {
  if (cfg.stateDir.empty()) return;
  // One directory per job key. If another live job already persists under
  // this key (an identical concurrent submission), the duplicate runs
  // without durability — its results are identical anyway.
  for (const auto& [id, other] : jobs)
    if (other.get() != &job && other->keyHash == job.keyHash &&
        !isTerminal(other->state) && !other->stateDirPath.empty())
      return;
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path dir = fs::path(cfg.stateDir) / "jobs" / key16(job.keyHash);
  // A previous terminal run of the same key left records behind; this run
  // replaces them wholesale.
  fs::remove_all(dir, ec);
  ec.clear();
  fs::create_directories(dir, ec);
  if (ec) {
    durableErrors.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::ostringstream m;
  m.precision(17);
  m << "{\"method\": \"" << util::escapeJson(job.method) << "\""
    << ", \"use_result_cache\": " << (job.useResultCache ? "true" : "false")
    << ", \"deadline_seconds\": " << job.deadlineSeconds;
  if (!job.claimed.empty()) {
    // Claimed jobs must recover with the same claim, or a restarted backend
    // would schedule (and report) tasks that belong to other hosts.
    m << ", \"claim\": [";
    for (std::size_t i = 0; i < job.claimed.size(); ++i)
      m << (i ? ", " : "") << job.claimed[i];
    m << "]";
  }
  m << ", \"config\": " << job.config.toJson() << "}";
  std::string err;
  if (!atomicWriteFile((dir / "manifest.json").string(), m.str(), err)) {
    durableErrors.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  job.stateDirPath = dir.string();
}

void SynthService::Impl::appendTaskRecordLocked(Job& job, std::size_t idx,
                                                const TaskRecord& rec) {
  if (job.stateDirPath.empty()) return;
  std::ostringstream os;
  os.precision(17);
  os << "{\"task\": " << idx << ", \"program\": " << rec.program
     << ", \"run\": " << rec.run
     << ", \"found\": " << (rec.found ? "true" : "false")
     << ", \"candidates\": " << rec.candidates
     << ", \"generations\": " << rec.generations
     << ", \"seconds\": " << rec.seconds << "}";
  std::string err;
  if (!appendLogLine(job.stateDirPath + "/tasks.ndjson", os.str(), err))
    durableErrors.fetch_add(1, std::memory_order_relaxed);
  // The completed task's snapshot can never be resumed again.
  ::unlink((job.stateDirPath + "/task-" + std::to_string(idx) + ".ckpt")
               .c_str());
}

void SynthService::Impl::writeDoneMarkerLocked(const Job& job) {
  std::string err;
  if (!atomicWriteFile(job.stateDirPath + "/done",
                       std::string(jobStateName(job.state)) + "\n" +
                           oneLine(job.errorKind) + "\n" + oneLine(job.error) +
                           "\n",
                       err))
    durableErrors.fetch_add(1, std::memory_order_relaxed);
}

void SynthService::Impl::persistTaskCheckpoint(const Job& job,
                                               std::size_t idx,
                                               const TaskCheckpoint& cp) {
  if (job.stateDirPath.empty()) return;
  try {
    const std::string bytes = encodeTaskCheckpoint(cp.snap, cp.rng);
    std::string err;
    if (atomicWriteFile(
            job.stateDirPath + "/task-" + std::to_string(idx) + ".ckpt",
            bytes, err))
      durableWrites.fetch_add(1, std::memory_order_relaxed);
    else
      durableErrors.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
    // A failed snapshot write never fails the search — the task just has a
    // staler (or no) resume point.
    durableErrors.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Replays a completed-task NDJSON log from `dir` into `job`: every fully
/// recorded line whose task is still schedulable here (claimed, Queued)
/// becomes Done. A torn tail line (crash mid-append) invalidates only
/// itself. With `persist`, adopted records are re-appended to the job's own
/// log so they survive the *next* failover too. Returns the tasks marked.
std::size_t SynthService::Impl::loadTaskLogLocked(Job& job,
                                                  const std::string& dir,
                                                  bool persist) {
  std::string bytes;
  std::string err;
  std::size_t marked = 0;
  const std::size_t total = job.tasks.size();
  if (!readFileBytes(dir + "/tasks.ndjson", bytes, err)) return 0;
  std::istringstream lines(bytes);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    try {
      const util::JsonValue t = util::parseJson(line);
      std::size_t idx = total;
      util::readSize(t, "task", idx);
      if (idx >= total || job.phase[idx] != Phase::Queued) continue;
      TaskRecord rec;
      util::readSize(t, "program", rec.program);
      util::readSize(t, "run", rec.run);
      util::readBool(t, "found", rec.found);
      util::readSize(t, "candidates", rec.candidates);
      util::readSize(t, "generations", rec.generations);
      util::readDouble(t, "seconds", rec.seconds);
      job.tasks[idx] = rec;
      job.phase[idx] = Phase::Done;
      ++job.tasksDone;
      ++marked;
      if (persist) appendTaskRecordLocked(job, idx, rec);
    } catch (...) {
      break;
    }
  }
  return marked;
}

/// Loads per-task snapshot files from `dir` for every still-Queued task:
/// a decodable, target-matched snapshot becomes the task's resume
/// checkpoint; anything corrupt/truncated/stale is rejected loudly by the
/// checksum layer and the task restarts from its deterministic seed.
void SynthService::Impl::loadTaskSnapshotsLocked(Job& job,
                                                 const std::string& dir,
                                                 std::size_t* accepted) {
  std::string ck;
  std::string err;
  for (std::size_t i = 0; i < job.tasks.size(); ++i) {
    if (job.phase[i] != Phase::Queued) continue;
    if (!readFileBytes(dir + "/task-" + std::to_string(i) + ".ckpt", ck, err))
      continue;  // no snapshot: the task restarts from its seed
    TaskCheckpoint cp;
    std::string why;
    if (decodeTaskCheckpoint(ck, cp.snap, cp.rng, why) &&
        cp.snap.targetLength == job.workload[i / job.runsPer].length) {
      cp.snap.config = job.searchConfig;
      cp.valid = true;
      job.checkpoints[i] = std::move(cp);
      ++sessionStats.durableCheckpointsLoaded;
      if (accepted) ++*accepted;
    } else {
      ++sessionStats.checkpointsRejected;
    }
  }
}

/// Fleet failover adoption (SubmitOptions::adoptDir): graft a dead sibling
/// claim's durable progress — its finished-task records and last task
/// snapshots — into this job before it runs, so the reassigned claim
/// resumes where the dead host stopped. Reads only; the sibling's
/// directory is never modified.
void SynthService::Impl::adoptFromDirLocked(Job& job, const std::string& dir) {
  const std::size_t adoptedTasks = loadTaskLogLocked(job, dir, /*persist=*/true);
  sessionStats.tasksAdopted += adoptedTasks;
  std::size_t adoptedSnaps = 0;
  loadTaskSnapshotsLocked(job, dir, &adoptedSnaps);
  sessionStats.snapshotsAdopted += adoptedSnaps;
}

void SynthService::Impl::recoverStateDir() {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path root = fs::path(cfg.stateDir) / "jobs";
  fs::create_directories(root, ec);
  if (ec) return;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    if (!entry.is_directory()) continue;
    try {
      recoverJobDir(entry.path().string());
    } catch (...) {
      // One unreadable job dir (corrupt manifest, stale schema) must not
      // stop the daemon from serving; the dir is simply skipped.
      ++sessionStats.checkpointsRejected;
    }
  }
}

void SynthService::Impl::recoverJobDir(const std::string& dir) {
  std::string bytes;
  std::string err;
  if (!readFileBytes(dir + "/manifest.json", bytes, err)) return;
  const util::JsonValue root = util::parseJson(bytes);
  std::string method;
  util::readString(root, "method", method);
  if (!isKnownMethod(method)) return;
  const util::JsonValue* cfgJson = root.find("config");
  if (!cfgJson) return;
  const harness::ExperimentConfig config =
      harness::ExperimentConfig::fromJsonValue(*cfgJson);
  bool useCache = true;
  util::readBool(root, "use_result_cache", useCache);
  double deadline = 0.0;
  util::readDouble(root, "deadline_seconds", deadline);
  std::vector<std::size_t> claim;
  if (const util::JsonValue* c = root.find("claim");
      c && c->kind == util::JsonValue::Kind::Array)
    for (const util::JsonValue& v : c->items)
      claim.push_back(util::jsonUnsigned(v, "claim[]"));

  auto job = std::make_shared<Job>();
  job->method = method;
  job->config = config;
  job->searchConfig = harness::methodSearchConfig(config, method);
  job->workload = harness::makeFullWorkload(config);
  job->programCount = job->workload.size();
  job->runsPer = std::max<std::size_t>(1, config.runsPerProgram);
  claim = normalizeClaim(std::move(claim),
                         job->workload.size() *
                             std::max<std::size_t>(1, config.runsPerProgram));
  job->useResultCache = useCache;
  job->cacheKey = resultCacheKey(method, config, claim);
  job->keyHash = fnv1a64(job->cacheKey);
  job->deadlineSeconds = deadline;
  job->recovered = true;
  job->stateDirPath = dir;
  // The deadline clock restarts: wall time spent dead doesn't count
  // against the job.
  job->start = std::chrono::steady_clock::now();
  const std::size_t total = job->programCount * job->runsPer;
  if (total == 0) return;
  initTaskState(*job, total);
  applyClaim(*job, std::move(claim));

  // Completed-task log: every fully recorded line is a finished task the
  // restarted daemon never re-runs.
  loadTaskLogLocked(*job, dir, /*persist=*/false);

  job->id = nextId++;
  byKey[job->keyHash] = job->id;

  if (readFileBytes(dir + "/done", bytes, err)) {
    // Terminal marker: the job finished in a previous life; restore it as
    // queryable history (and re-seed the result memo from a Done job).
    std::istringstream ms(bytes);
    std::string stateName;
    std::getline(ms, stateName);
    std::getline(ms, job->errorKind);
    std::getline(ms, job->error);
    if (stateName == "done") job->state = JobState::Done;
    else if (stateName == "failed") job->state = JobState::Failed;
    else if (stateName == "cancelled") job->state = JobState::Cancelled;
    else throw std::runtime_error("unreadable done marker");
    jobs.emplace(job->id, job);
    terminalOrder.push_back(job->id);
    trimIfIdleLocked(*job);
    if (job->state == JobState::Done && job->tasksDone == job->claimedTotal &&
        cfg.resultCache && useCache)
      storeResultLocked(job->cacheKey, job->tasks);
    ++sessionStats.jobsRecovered;
    return;
  }

  // Interrupted job: load what snapshots survived, re-enqueue the rest.
  loadTaskSnapshotsLocked(*job, dir);
  jobs.emplace(job->id, job);
  ++sessionStats.jobsRecovered;
  if (job->tasksDone == job->claimedTotal) {
    finalizeIfComplete(*job);
    return;
  }
  for (std::size_t i = 0; i < total; ++i)
    if (job->phase[i] == Phase::Queued) queue.emplace_back(job->id, i);
}

// ---- task execution ---------------------------------------------------------

WorkerContext::MethodKit& SynthService::Impl::kitFor(WorkerContext& ctx,
                                                     const Job& job) {
  const std::string key = job.method + "|" + job.config.modelDir + "|" +
                          job.config.scaleName + "|" + job.config.domainName;
  if (const auto it = ctx.kits.find(key); it != ctx.kits.end())
    return it->second;

  WorkerContext::MethodKit kit;
  if (job.method == "Edit") {
    kit.fitness = std::make_shared<fitness::EditDistanceFitness>(
        job.config.synthesizer.generator.domain);
  } else if (job.method == "Oracle_CF" || job.method == "Oracle_LCS") {
    kit.oracle = true;
    kit.oracleMetric = job.method == "Oracle_CF" ? fitness::BalanceMetric::CF
                                                 : fitness::BalanceMetric::LCS;
  } else {
    // NetSyn_{CF,LCS,FP}: clone from the shared store once per worker; the
    // clones (and the prob-map's spec-fingerprint-keyed cache) then serve
    // every job of this method on this worker.
    const harness::TrainedModels shared = models.get(job.config);
    auto fp = std::make_shared<fitness::ProbMapFitness>(shared.fp->clone());
    kit.probMap = fp;
    if (job.method == "NetSyn_CF")
      kit.fitness = std::make_shared<fitness::NeuralFitness>(
          shared.cf->clone(), "NN_CF");
    else if (job.method == "NetSyn_LCS")
      kit.fitness = std::make_shared<fitness::NeuralFitness>(
          shared.lcs->clone(), "NN_LCS");
    else
      kit.fitness = fp;
  }
  return ctx.kits.emplace(key, std::move(kit)).first->second;
}

TaskOutcome SynthService::Impl::runTask(WorkerContext& ctx, const Job& job,
                                        std::size_t idx, TaskCheckpoint& cp,
                                        TaskRecord& out) {
  FAULT_POINT("service.task.start");
  const std::size_t p = idx / job.runsPer;
  const std::size_t k = idx % job.runsPer;
  const harness::TestProgram& tp = job.workload[p];

  WorkerContext::MethodKit& kit = kitFor(ctx, job);
  fitness::FitnessPtr fit = kit.fitness;
  if (kit.oracle) {
    // Oracle fitness is target-specific and cheap: one fresh instance per
    // task, like the registry's per-island oracle instances.
    if (kit.oracleMetric == fitness::BalanceMetric::CF)
      fit = std::make_shared<fitness::OracleCF>(tp.target);
    else
      fit = std::make_shared<fitness::OracleLCS>(tp.target);
  }

  out = TaskRecord{};
  out.program = p;
  out.run = k;

  if (job.searchConfig.strategy == core::SearchStrategy::Islands) {
    // Island searches run through the engine's own coordinator (factory
    // omitted: islands step sequentially inside this one task, which is the
    // right parallelism split when the service pool is already fanned out).
    // They are cancel/pause/stall-atomic: signals take effect between
    // tasks, and the stall watchdog skips them.
    if (job.pollSignal.load(std::memory_order_relaxed) == kPollCancel)
      return TaskOutcome::Cancelled;
    util::Rng rng = harness::runSeedRng(job.config, p, k);
    const core::SynthesisResult result = core::runIslandSearch(
        job.searchConfig, fit, kit.probMap, nullptr, tp.spec, tp.length,
        job.config.searchBudget, rng);
    out.found = result.found;
    out.candidates = result.candidatesSearched;
    out.generations = result.generations;
    out.seconds = result.seconds;
    return TaskOutcome::Completed;
  }

  // Single population: stepped one generation at a time so cancel/pause/
  // stall-abort land at generation boundaries, through the worker's
  // persistent executor so the plan cache carries over between jobs.
  util::Rng rng = cp.valid ? cp.rng : harness::runSeedRng(job.config, p, k);
  core::SearchBudget budget =
      cp.valid ? core::SearchBudget::resumed(cp.snap.budgetLimit,
                                             cp.snap.budgetUsed)
               : core::SearchBudget(job.config.searchBudget);
  std::optional<core::SearchState> state;
  if (cp.valid)
    state.emplace(cp.snap, fit, kit.probMap, tp.spec, budget, rng,
                  &ctx.executor);
  else
    state.emplace(job.searchConfig, fit, kit.probMap, tp.spec, tp.length,
                  budget, rng, &ctx.executor);
  core::SearchState::Status status = cp.valid
                                         ? core::SearchState::Status::Running
                                         : state->seed();
  cp.valid = false;
  std::size_t sinceSnap = 0;
  while (status == core::SearchState::Status::Running) {
    if (job.abortFlag[idx].load(std::memory_order_relaxed)) {
      // Stall abort: freeze at this generation boundary so the retry
      // continues the exact trajectory instead of redoing the whole task.
      cp.snap = state->snapshot();
      cp.rng = rng;
      cp.valid = true;
      return TaskOutcome::Abandoned;
    }
    FAULT_POINT("service.task.generation");
    const std::uint8_t sig = job.pollSignal.load(std::memory_order_relaxed);
    if (sig == kPollCancel) return TaskOutcome::Cancelled;
    if (sig == kPollPause) {
      cp.snap = state->snapshot();
      cp.rng = rng;
      cp.valid = true;
      return TaskOutcome::Checkpointed;
    }
    status = state->step();
    job.beatMs[idx].store(nowMs(), std::memory_order_relaxed);
    if (cfg.checkpointEveryGenerations > 0 &&
        ++sinceSnap >= cfg.checkpointEveryGenerations &&
        status == core::SearchState::Status::Running) {
      sinceSnap = 0;
      cp.snap = state->snapshot();
      cp.rng = rng;
      cp.valid = true;
      persistTaskCheckpoint(job, idx, cp);
    }
  }
  const core::SynthesisResult result = state->finish();
  out.found = result.found;
  out.candidates = result.candidatesSearched;
  out.generations = result.generations;
  out.seconds = result.seconds;
  return TaskOutcome::Completed;
}

void SynthService::Impl::workerLoop(std::size_t /*workerIndex*/) {
  WorkerContext ctx;
  std::unique_lock<std::mutex> lock(mu);
  while (true) {
    taskCv.wait(lock, [&] { return stop || !queue.empty(); });
    if (stop) return;
    const auto [jobId, idx] = queue.front();
    queue.pop_front();

    const auto it = jobs.find(jobId);
    if (it == jobs.end()) continue;
    const std::shared_ptr<Job> job = it->second;
    if (isTerminal(job->state)) continue;
    if (job->state == JobState::Paused) {
      // Popped while parked: owed back to the queue by resume().
      job->phase[idx] = Phase::Parked;
      continue;
    }
    if (job->state == JobState::Queued) job->state = JobState::Running;
    job->phase[idx] = Phase::Running;
    ++job->running;
    job->abortFlag[idx].store(false, std::memory_order_relaxed);
    job->beatMs[idx].store(nowMs(), std::memory_order_relaxed);
    TaskCheckpoint cp = std::move(job->checkpoints[idx]);
    job->checkpoints[idx] = TaskCheckpoint{};
    const bool resumed = cp.valid;

    lock.unlock();
    // Per-task counter window: zero the executor's counters at task start
    // and read them raw afterwards. Unlike the before/after snapshot this
    // replaced, the delta cannot go stale when something reconfigures the
    // executor mid-stream (e.g. a search switching the execution backend):
    // whatever runs inside the window is attributed to this task, nothing
    // else. The plan cache itself is untouched — warm-cache behavior across
    // jobs is exactly as before (pinned by test_service).
    ctx.executor.resetCounters();
    TaskRecord record;
    TaskOutcome outcome = TaskOutcome::Failed;
    std::string error;
    try {
      outcome = runTask(ctx, *job, idx, cp, record);
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown task error";
    }
    const std::size_t compilesDelta = ctx.executor.planCompiles();
    const std::size_t lookupsDelta = ctx.executor.planLookups();
    lock.lock();

    --job->running;
    job->beatMs[idx].store(-1, std::memory_order_relaxed);
    job->planCompiles += compilesDelta;
    job->planLookups += lookupsDelta;
    sessionStats.planCompiles += compilesDelta;
    sessionStats.planLookups += lookupsDelta;
    if (resumed && outcome != TaskOutcome::Failed)
      ++sessionStats.tasksResumed;
    switch (outcome) {
      case TaskOutcome::Completed:
        job->tasks[idx] = record;
        job->phase[idx] = Phase::Done;
        ++job->tasksDone;
        ++sessionStats.tasksExecuted;
        appendTaskRecordLocked(*job, idx, record);
        finalizeIfComplete(*job);
        break;
      case TaskOutcome::Checkpointed:
        job->checkpoints[idx] = std::move(cp);
        ++sessionStats.checkpointsTaken;
        if (job->state == JobState::Paused) {
          job->phase[idx] = Phase::Checkpointed;
        } else if (!isTerminal(job->state)) {
          // resume() already ran while this worker was mid-snapshot and
          // found the task still Running, so nobody else will re-enqueue
          // it: requeue here or the job never completes.
          job->phase[idx] = Phase::Queued;
          queue.emplace_back(job->id, idx);
          taskCv.notify_one();
        }
        break;
      case TaskOutcome::Cancelled:
        // Job state already Cancelled; leave the task unfinished.
        break;
      case TaskOutcome::Abandoned:
      case TaskOutcome::Failed: {
        const bool stalled = outcome == TaskOutcome::Abandoned;
        if (stalled) ++sessionStats.tasksAbandoned;
        if (isTerminal(job->state)) break;
        if (job->retryCount[idx] < cfg.maxTaskRetries) {
          // Retry with capped exponential backoff, from the freshest
          // snapshot when one exists (in-memory from this attempt, or the
          // durable one loaded at recovery) — otherwise from the task's
          // deterministic seed. Either way the eventual record is
          // bit-identical to an undisturbed run.
          ++job->retryCount[idx];
          ++job->retriesTotal;
          ++sessionStats.tasksRetried;
          if (cp.valid) job->checkpoints[idx] = std::move(cp);
          job->phase[idx] = Phase::RetryWait;
          job->abortFlag[idx].store(false, std::memory_order_relaxed);
          const double factor = static_cast<double>(
              1ull << std::min<std::size_t>(job->retryCount[idx] - 1, 20));
          const double delay =
              std::min(cfg.retryBackoffMs * factor, cfg.retryBackoffCapMs);
          retryWait.push_back(
              {job->id, idx,
               nowMs() + static_cast<std::int64_t>(delay)});
        } else {
          const std::size_t p = idx / job->runsPer;
          const std::size_t k = idx % job->runsPer;
          failJobLocked(
              *job, stalled ? "stall" : "task",
              "task (program " + std::to_string(p) + ", run " +
                  std::to_string(k) + ") " +
                  (stalled ? "stalled" : "failed") + " after " +
                  std::to_string(job->retryCount[idx]) + " retries" +
                  (error.empty() ? std::string()
                                 : std::string(": ") + error));
        }
        break;
      }
    }
    // The last in-flight task of a job that went terminal mid-run releases
    // its retained storage.
    trimIfIdleLocked(*job);
  }
}

void SynthService::Impl::watchdogLoop() {
  std::unique_lock<std::mutex> lock(mu);
  while (!stop) {
    wdCv.wait_for(lock, std::chrono::milliseconds(20));
    if (stop) return;
    const std::int64_t now = nowMs();

    // Promote retry-backoff tasks whose delay has elapsed.
    bool wake = false;
    for (std::size_t i = 0; i < retryWait.size();) {
      if (retryWait[i].readyAtMs > now) {
        ++i;
        continue;
      }
      const RetryEntry e = retryWait[i];
      retryWait[i] = retryWait.back();
      retryWait.pop_back();
      const auto it = jobs.find(e.jobId);
      if (it != jobs.end() && !isTerminal(it->second->state) &&
          it->second->phase[e.idx] == Phase::RetryWait) {
        it->second->phase[e.idx] = Phase::Queued;
        queue.emplace_back(e.jobId, e.idx);
        wake = true;
      }
    }
    if (wake) taskCv.notify_all();

    // Deadlines + stall detection. Deadline failures are collected first:
    // failJobLocked -> markTerminalLocked can evict map entries, which
    // would invalidate the iterator mid-loop.
    std::vector<std::shared_ptr<Job>> deadlined;
    for (const auto& [id, job] : jobs) {
      if (isTerminal(job->state) || job->state == JobState::Paused) continue;
      if (job->deadlineSeconds > 0) {
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          job->start)
                .count();
        if (elapsed > job->deadlineSeconds) {
          deadlined.push_back(job);
          continue;
        }
      }
      if (cfg.stallSeconds > 0 &&
          job->searchConfig.strategy != core::SearchStrategy::Islands) {
        const auto stallMs =
            static_cast<std::int64_t>(cfg.stallSeconds * 1000.0);
        for (std::size_t i = 0; i < job->phase.size(); ++i) {
          if (job->phase[i] != Phase::Running) continue;
          const std::int64_t beat =
              job->beatMs[i].load(std::memory_order_relaxed);
          if (beat >= 0 && now - beat > stallMs)
            job->abortFlag[i].store(true, std::memory_order_relaxed);
        }
      }
    }
    for (const auto& job : deadlined) {
      if (isTerminal(job->state)) continue;
      ++sessionStats.jobsDeadlineFailed;
      std::ostringstream os;
      os << "deadline exceeded (" << job->deadlineSeconds << "s)";
      failJobLocked(*job, "deadline", os.str());
    }
  }
}

// ---- public API -------------------------------------------------------------

std::string jobDirName(const std::string& method,
                       const harness::ExperimentConfig& config,
                       const std::vector<std::size_t>& taskFilter) {
  // Sort/dedup like submit's normalization, but without the range check (no
  // workload here) and without full-claim collapsing — callers pass the
  // exact claim they submitted, and a coordinator never claims every task
  // of a multi-host job on one host anyway.
  std::vector<std::size_t> claim = taskFilter;
  std::sort(claim.begin(), claim.end());
  claim.erase(std::unique(claim.begin(), claim.end()), claim.end());
  return key16(fnv1a64(resultCacheKey(method, config, claim)));
}

SynthService::SynthService(ServiceConfig config)
    : impl_(std::make_unique<Impl>(config)) {}

SynthService::~SynthService() { shutdown(); }

std::uint64_t SynthService::submit(const harness::ExperimentConfig& config,
                                   const std::string& method,
                                   bool useResultCache) {
  SubmitOptions opts;
  opts.useResultCache = useResultCache;
  return submit(config, method, opts).id;
}

SubmitResult SynthService::submit(const harness::ExperimentConfig& config,
                                  const std::string& method,
                                  const SubmitOptions& opts) {
  if (!isKnownMethod(method))
    throw std::invalid_argument("unknown method '" + method +
                                "' (service methods: Edit, Oracle_CF, "
                                "Oracle_LCS, NetSyn_CF, NetSyn_LCS, "
                                "NetSyn_FP)");

  // Off-lock preparation: validation, search-config derivation, workload
  // generation (deterministic from the config, same as the one-shot
  // harness).
  auto job = std::make_shared<Job>();
  job->method = method;
  job->config = config;
  job->searchConfig = harness::methodSearchConfig(config, method);
  job->workload = harness::makeFullWorkload(config);
  job->programCount = job->workload.size();
  job->runsPer = std::max<std::size_t>(1, config.runsPerProgram);
  const std::size_t total = job->workload.size() * job->runsPer;
  std::vector<std::size_t> claim = normalizeClaim(opts.taskFilter, total);
  job->useResultCache = opts.useResultCache;
  job->cacheKey = resultCacheKey(method, config, claim);
  job->keyHash = fnv1a64(job->cacheKey);
  job->deadlineSeconds = opts.deadlineSeconds > 0
                             ? opts.deadlineSeconds
                             : impl_->cfg.defaultDeadlineSeconds;
  job->start = std::chrono::steady_clock::now();
  initTaskState(*job, total);
  applyClaim(*job, std::move(claim));

  std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->stop) throw std::runtime_error("service is shut down");

  if (opts.attach) {
    // Idempotent resubmission: join the newest job with this key unless it
    // ended badly (a Cancelled/Failed predecessor should be re-run).
    if (const auto bit = impl_->byKey.find(job->keyHash);
        bit != impl_->byKey.end()) {
      if (const auto jit = impl_->jobs.find(bit->second);
          jit != impl_->jobs.end()) {
        const JobState st = jit->second->state;
        if (st != JobState::Cancelled && st != JobState::Failed) {
          ++impl_->sessionStats.attachHits;
          // A joined terminal job becomes the newest history entry, so the
          // next job to end cannot evict it before this client's wait.
          auto& order = impl_->terminalOrder;
          const std::uint64_t id = jit->second->id;
          if (const auto pos = std::find(order.begin(), order.end(), id);
              pos != order.end()) {
            order.erase(pos);
            order.push_back(id);
          }
          return {id, true};
        }
      }
    }
  }

  job->id = impl_->nextId++;

  if (impl_->cfg.resultCache && opts.useResultCache) {
    if (const auto it = impl_->resultCache.find(job->cacheKey);
        it != impl_->resultCache.end()) {
      ++impl_->sessionStats.jobsSubmitted;
      job->tasks = it->second;
      job->tasksDone = job->claimedTotal;
      if (job->claimed.empty())
        job->phase.assign(total, Phase::Done);
      else
        for (const std::size_t idx : job->claimed)
          job->phase[idx] = Phase::Done;
      job->state = JobState::Done;
      job->fromCache = true;
      ++impl_->sessionStats.resultCacheHits;
      ++impl_->sessionStats.jobsCompleted;
      impl_->jobs.emplace(job->id, job);
      impl_->byKey[job->keyHash] = job->id;
      impl_->markTerminalLocked(*job);
      impl_->jobCv.notify_all();
      return {job->id, false};
    }
  }

  // Backpressure: reject before any state is registered, so an overloaded
  // daemon stays exactly as loaded as it was.
  if (impl_->cfg.maxQueuedTasks > 0 &&
      impl_->queue.size() + job->claimedTotal > impl_->cfg.maxQueuedTasks) {
    ++impl_->sessionStats.submitsRejected;
    throw OverloadedError(
        "task queue overloaded: " + std::to_string(impl_->queue.size()) +
        " queued + " + std::to_string(job->claimedTotal) +
        " requested > cap " + std::to_string(impl_->cfg.maxQueuedTasks));
  }

  ++impl_->sessionStats.jobsSubmitted;
  impl_->jobs.emplace(job->id, job);
  impl_->byKey[job->keyHash] = job->id;
  impl_->claimStateDirLocked(*job);
  // Failover adoption runs after the state dir claim so grafted records
  // land in this job's own durable log too.
  if (!opts.adoptDir.empty()) impl_->adoptFromDirLocked(*job, opts.adoptDir);
  for (std::size_t i = 0; i < total; ++i)
    if (job->phase[i] == Phase::Queued)
      impl_->queue.emplace_back(job->id, i);
  impl_->finalizeIfComplete(*job);  // adoption may have finished everything
  impl_->taskCv.notify_all();
  return {job->id, false};
}

JobStatus SynthService::status(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->jobs.find(id);
  if (it == impl_->jobs.end())
    throw std::out_of_range("unknown job " + std::to_string(id));
  return impl_->statusLocked(*it->second);
}

JobStatus SynthService::wait(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(impl_->mu);
  const auto it = impl_->jobs.find(id);
  if (it == impl_->jobs.end())
    throw std::out_of_range("unknown job " + std::to_string(id));
  const std::shared_ptr<Job> job = it->second;
  // Paused also unblocks: a single-threaded protocol session that waits on
  // a job it paused earlier must get the status back — the resume that
  // would make the job terminal can only arrive over that same session.
  impl_->jobCv.wait(lock, [&] {
    return isTerminal(job->state) || job->state == JobState::Paused;
  });
  return impl_->statusLocked(*job);
}

bool SynthService::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->jobs.find(id);
  if (it == impl_->jobs.end())
    throw std::out_of_range("unknown job " + std::to_string(id));
  Job& job = *it->second;
  if (isTerminal(job.state)) return false;
  job.state = JobState::Cancelled;
  job.pollSignal.store(kPollCancel, std::memory_order_relaxed);
  ++impl_->sessionStats.jobsCancelled;
  impl_->markTerminalLocked(job);
  impl_->jobCv.notify_all();
  return true;
}

bool SynthService::pause(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->jobs.find(id);
  if (it == impl_->jobs.end())
    throw std::out_of_range("unknown job " + std::to_string(id));
  Job& job = *it->second;
  if (job.state != JobState::Queued && job.state != JobState::Running)
    return false;
  job.state = JobState::Paused;
  job.pollSignal.store(kPollPause, std::memory_order_relaxed);
  impl_->jobCv.notify_all();  // wait() callers observe Paused
  return true;
}

bool SynthService::resume(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->jobs.find(id);
  if (it == impl_->jobs.end())
    throw std::out_of_range("unknown job " + std::to_string(id));
  Job& job = *it->second;
  if (job.state != JobState::Paused) return false;
  job.state = JobState::Running;
  job.pollSignal.store(kPollContinue, std::memory_order_relaxed);
  for (std::size_t i = 0; i < job.phase.size(); ++i) {
    if (job.phase[i] == Phase::Parked || job.phase[i] == Phase::Checkpointed) {
      job.phase[i] = Phase::Queued;
      impl_->queue.emplace_back(job.id, i);
    }
  }
  // Every task may have finished before the pause landed; completes as Done.
  impl_->finalizeIfComplete(job);
  impl_->taskCv.notify_all();
  return true;
}

HelloResult SynthService::hello(const std::string& token) {
  if (token.empty())
    throw std::invalid_argument("hello requires a non-empty session token");
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->stop) throw std::runtime_error("service is shut down");
  HelloResult res;
  res.resumed = impl_->sessionStats.jobsRecovered > 0;
  if (token == impl_->sessionToken) {
    // Idempotent re-hello: a coordinator reconnecting to a live backend
    // keeps its epoch.
    res.epoch = impl_->sessionEpoch;
    return res;
  }
  if (impl_->retiredTokens.count(token)) {
    ++impl_->sessionStats.staleTokensRejected;
    throw StaleTokenError("session token was superseded at epoch " +
                          std::to_string(impl_->sessionEpoch) +
                          "; a retired token cannot be re-established");
  }
  if (!impl_->sessionToken.empty()) {
    if (impl_->retiredTokens.insert(impl_->sessionToken).second)
      impl_->retiredOrder.push_back(impl_->sessionToken);
    while (impl_->retiredOrder.size() > Impl::kMaxRetiredTokens) {
      impl_->retiredTokens.erase(impl_->retiredOrder.front());
      impl_->retiredOrder.pop_front();
    }
  }
  impl_->sessionToken = token;
  ++impl_->sessionEpoch;
  ++impl_->sessionStats.hellosAccepted;
  res.epoch = impl_->sessionEpoch;
  return res;
}

void SynthService::requireFreshToken(const std::string& token) const {
  if (token.empty())
    throw std::invalid_argument(
        "claim requires a session token (send hello first)");
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->sessionToken.empty()) {
    ++impl_->sessionStats.staleTokensRejected;
    throw StaleTokenError("no fleet session established: hello before claim");
  }
  if (token != impl_->sessionToken) {
    ++impl_->sessionStats.staleTokensRejected;
    throw StaleTokenError("stale session token rejected (current epoch " +
                          std::to_string(impl_->sessionEpoch) + ")");
  }
}

SessionStats SynthService::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->statsLocked();
}

ServiceMetrics SynthService::metrics() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  ServiceMetrics m;
  m.stats = impl_->statsLocked();
  m.queueDepth = impl_->queue.size();
  m.retryWaiting = impl_->retryWait.size();
  m.maxQueuedTasks = impl_->cfg.maxQueuedTasks;
  m.jobsTracked = impl_->jobs.size();
  for (const auto& [id, job] : impl_->jobs)
    if (!isTerminal(job->state)) ++m.jobsActive;
  m.resultCacheEntries = impl_->resultCache.size();
  if (util::FaultRegistry::armed()) {
    m.faultHits = util::FaultRegistry::instance().totalHits();
    m.faultFires = util::FaultRegistry::instance().totalFires();
  }
  return m;
}

void SynthService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->stop) return;
    impl_->stop = true;
    impl_->shuttingDown = true;
    impl_->queue.clear();
    impl_->retryWait.clear();
    // markTerminalLocked may evict old terminal entries from the map, so
    // iterate over a snapshot of the live jobs.
    std::vector<std::shared_ptr<Job>> live;
    for (auto& [id, job] : impl_->jobs)
      if (!isTerminal(job->state)) live.push_back(job);
    for (const auto& job : live) {
      job->state = JobState::Cancelled;
      job->pollSignal.store(kPollCancel, std::memory_order_relaxed);
      ++impl_->sessionStats.jobsCancelled;
      impl_->markTerminalLocked(*job);
    }
    impl_->taskCv.notify_all();
    impl_->jobCv.notify_all();
    impl_->wdCv.notify_all();
  }
  for (auto& w : impl_->workers) w.join();
  impl_->workers.clear();
  if (impl_->watchdog.joinable()) impl_->watchdog.join();
}

// ------------------------------------------------------------ SocketServer

struct SocketServer::Session {
  std::unique_ptr<util::SocketTransport> transport;
  std::thread thread;
  std::atomic<bool> done{false};
};

SocketServer::SocketServer(SynthService& service,
                           const util::SocketEndpoint& endpoint,
                           double recvTimeoutSeconds)
    : service_(service),
      listener_(endpoint),
      recvTimeoutSeconds_(recvTimeoutSeconds) {}

SocketServer::~SocketServer() { stop(); }

const util::SocketEndpoint& SocketServer::boundEndpoint() const {
  return listener_.boundEndpoint();
}

void SocketServer::start() {
  if (started_.exchange(true)) return;
  acceptThread_ = std::thread([this] { acceptLoop(); });
}

void SocketServer::run() {
  start();
  if (acceptThread_.joinable()) acceptThread_.join();
  stop();
}

void SocketServer::acceptLoop() {
  // Finite poll ticks so stop() never races a blocked accept (the
  // SocketListener::close contract).
  while (!stopping_.load(std::memory_order_relaxed)) {
    std::unique_ptr<util::SocketTransport> conn;
    try {
      conn = listener_.accept(/*timeoutSeconds=*/0.1, recvTimeoutSeconds_);
    } catch (const util::TransportClosed&) {
      // A fault-severed or failed accept drops that one connection attempt;
      // the listener itself is still bound.
      continue;
    }
    reapFinishedSessions();
    if (!conn) continue;
    auto session = std::make_unique<Session>();
    session->transport = std::move(conn);
    Session* raw = session.get();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_.load(std::memory_order_relaxed)) return;
      sessions_.push_back(std::move(session));
      ++served_;
    }
    raw->thread = std::thread([this, raw] { serveSession(raw); });
  }
}

void SocketServer::serveSession(Session* session) {
  // `session` outlives this thread: stop() and reapFinishedSessions() both
  // join the thread before destroying the Session object.
  bool shutdownRequested = false;
  try {
    while (!stopping_.load(std::memory_order_relaxed)) {
      const std::string line = session->transport->recvLine();
      if (line.empty()) continue;
      const std::string response =
          handleRequestLine(service_, line, shutdownRequested);
      session->transport->sendLine(response);
      if (shutdownRequested) break;
    }
  } catch (const util::TransportClosed&) {
    // Peer gone (or dropConnections() severed us): just end this session.
  }
  session->transport->close();
  session->done.store(true, std::memory_order_release);
  if (shutdownRequested) {
    // Stop the accept loop but don't join from our own thread — run()/stop()
    // on the owner's thread does the joining.
    stopping_.store(true, std::memory_order_relaxed);
  }
}

void SocketServer::reapFinishedSessions() {
  std::vector<std::unique_ptr<Session>> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& s : finished)
    if (s->thread.joinable()) s->thread.join();
}

void SocketServer::stop() {
  stopping_.store(true, std::memory_order_relaxed);
  if (acceptThread_.joinable() &&
      acceptThread_.get_id() != std::this_thread::get_id())
    acceptThread_.join();
  std::vector<std::unique_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions.swap(sessions_);
  }
  for (auto& s : sessions) {
    s->transport->sever();  // wakes a session blocked in recvLine
    if (s->thread.joinable()) s->thread.join();
  }
  listener_.close();
}

std::size_t SocketServer::dropConnections() {
  std::size_t severed = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& s : sessions_) {
    if (!s->done.load(std::memory_order_acquire) && s->transport->alive()) {
      s->transport->sever();
      ++severed;
    }
  }
  return severed;
}

std::size_t SocketServer::sessionsServed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return served_;
}

std::size_t SocketServer::sessionsActive() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t active = 0;
  for (const auto& s : sessions_)
    if (s && !s->done.load(std::memory_order_acquire)) ++active;
  return active;
}

}  // namespace netsyn::service
