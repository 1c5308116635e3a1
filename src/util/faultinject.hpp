// Deterministic, seeded fault injection for robustness testing.
//
// A FAULT_POINT("dotted.site.name") marks a place where a fault can be made
// to happen on demand: the synthesis service's task loop, the protocol
// parse path, checkpoint I/O. Disarmed (the default, and the only state
// production code ever runs in), a fault point is one relaxed atomic load
// and an untaken branch — no lock, no allocation, no site lookup. Armed via
// FaultRegistry (programmatically, from a spec string, or from the
// NETSYN_FAULTS environment variable), a site can
//
//   crash    — terminate the process immediately (std::_Exit; simulates a
//              kill -9 / power loss: no destructors, no flushes),
//   throw    — raise FaultInjected (simulates a worker dying mid-task),
//   delay    — sleep for a configured number of milliseconds (simulates a
//              stuck dependency; what the stall watchdog exists to catch),
//   corrupt  — flip one byte of a buffer passed through FAULT_CORRUPT
//              (simulates silent media corruption; the checksum layer must
//              detect it — "corrupt and detect").
//
// Firing is deterministic: each site counts its hits and fires at hit
// `first`, then every `every` hits after that, at most `count` times.
// Probabilistic firing (`~p`) draws from a per-site xoshiro stream derived
// from (registry seed, site name), so a seeded chaos run fires the exact
// same faults every time. The chaos suite (tests/test_chaos.cpp) leans on
// this: results with faults armed must be bit-identical to a fault-free
// run, which is only checkable if the fault schedule itself is replayable.
//
// Spec grammar (';'- or ','-separated clauses):
//
//   site=action[:param][@first][/every][xcount][~prob]
//
//   service.task.start=throw@3          throw on the 3rd hit, once
//   service.task.generation=delay:200@5/7x2   sleep 200ms at hits 5 and 12
//   protocol.request=crash:137@2        _Exit(137) on the 2nd request
//   checkpoint.corrupt=corrupt@1x0~0.5  flip a byte in ~half the writes
//
// Defaults: first=1, every=0 (fire only at `first`), count=1 (0 =
// unlimited; every>0 defaults count to unlimited), prob=1.
//
// Thread-safe: arming and hits take one registry mutex (the slow path only
// exists while armed; chaos tests are not throughput-sensitive).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace netsyn::util {

/// The exception a `throw`-armed fault point raises.
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(const std::string& what) : std::runtime_error(what) {}
};

enum class FaultAction : std::uint8_t { Crash, Throw, Delay, Corrupt };

struct FaultSpec {
  FaultAction action = FaultAction::Throw;
  std::uint64_t first = 1;  ///< 1-based hit index of the first fire
  std::uint64_t every = 0;  ///< 0: fire only at `first`; K: every Kth after
  std::uint64_t count = 1;  ///< max fires; 0 = unlimited
  double probability = 1.0; ///< <1: seeded per-eligible-hit coin
  std::uint64_t delayMs = 0;///< Delay payload
  int exitCode = 137;       ///< Crash payload
};

struct FaultSiteStats {
  std::uint64_t hits = 0;   ///< times the armed site was reached
  std::uint64_t fires = 0;  ///< times the action actually ran
};

class FaultRegistry {
 public:
  /// The process-wide registry (sites are global names, like loggers).
  static FaultRegistry& instance();

  /// Fast disarmed check — the only cost a FAULT_POINT pays in production.
  static bool armed() {
    return armedFlag_.load(std::memory_order_relaxed);
  }

  /// Arms one site. Replaces any previous arming of the same site and
  /// resets its counters.
  void arm(const std::string& site, FaultSpec spec);

  /// Arms every clause of a spec string (grammar above). Throws
  /// std::invalid_argument naming the offending clause on bad syntax.
  void armFromText(const std::string& text);

  /// Arms from $NETSYN_FAULTS when set (and seeds from $NETSYN_FAULT_SEED
  /// when that is set). Returns true when anything was armed.
  bool armFromEnv();

  /// Seed for the per-site probability/corruption streams. Call before
  /// arming; re-seeding resets every site's stream and counters.
  void setSeed(std::uint64_t seed);

  /// Disarms every site and drops the fast-path flag back to no-op.
  void disarmAll();

  /// Counters for one site (zeros when never armed).
  FaultSiteStats stats(const std::string& site) const;
  std::uint64_t totalHits() const;
  std::uint64_t totalFires() const;

  // ---- slow paths behind the macros (public for the macros only) ----

  /// Counts a hit at `site` and performs its armed action (crash / throw /
  /// delay). Corrupt-armed sites count but do nothing here.
  void onHit(const char* site);

  /// Counts a hit at `site`; when a corrupt action fires, flips one
  /// deterministically chosen byte of `bytes` (no-op on an empty buffer).
  void corrupt(const char* site, std::string& bytes);

 private:
  FaultRegistry() = default;

  struct Site {
    FaultSpec spec;
    FaultSiteStats stats;
    std::uint64_t rngState = 0;  ///< splitmix64 stream, seeded per site
  };

  /// Advances the firing state; true when the action should run now.
  bool shouldFireLocked(Site& site);
  std::uint64_t nextRandLocked(Site& site);

  static inline std::atomic<bool> armedFlag_{false};

  mutable std::mutex mu_;
  std::uint64_t seed_ = 0x6e657473796e2101ULL;
  std::map<std::string, Site> sites_;
};

}  // namespace netsyn::util

/// Marks a fault site. Disarmed: one relaxed load and an untaken branch.
#define FAULT_POINT(site_name)                                      \
  do {                                                              \
    if (::netsyn::util::FaultRegistry::armed()) [[unlikely]]        \
      ::netsyn::util::FaultRegistry::instance().onHit(site_name);   \
  } while (0)

/// Marks a corruptible buffer (std::string) at a fault site.
#define FAULT_CORRUPT(site_name, bytes)                                    \
  do {                                                                     \
    if (::netsyn::util::FaultRegistry::armed()) [[unlikely]]               \
      ::netsyn::util::FaultRegistry::instance().corrupt(site_name, bytes); \
  } while (0)
