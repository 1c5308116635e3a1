#include "util/faultinject.hpp"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>

namespace netsyn::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hashName(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t parseU64(const std::string& text, const std::string& clause) {
  // std::stoull happily parses "-1" (wrapping to 2^64-1) and leading
  // whitespace/plus signs; a fault schedule that silently turns a typo'd
  // count into "fire forever" is exactly the kind of bug the injector is
  // meant to find, not introduce. Require a pure digit string.
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos)
    throw std::invalid_argument("fault spec: bad number '" + text + "' in '" +
                                clause + "'");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE)
    throw std::invalid_argument("fault spec: number out of range '" + text +
                                "' in '" + clause + "'");
  return static_cast<std::uint64_t>(v);
}

double parseProb(const std::string& text, const std::string& clause) {
  std::size_t pos = 0;
  double v = 0;
  try {
    v = std::stod(text, &pos);
  } catch (...) {
    pos = 0;
  }
  // NaN compares false to everything, so it sails through a plain
  // range check and later poisons the fire decision; reject non-finite
  // values explicitly.
  if (pos != text.size() || text.empty() || !std::isfinite(v) || v < 0.0 ||
      v > 1.0)
    throw std::invalid_argument("fault spec: bad probability '" + text +
                                "' in '" + clause + "'");
  return v;
}

/// One clause: site=action[:param][@first][/every][xcount][~prob].
std::pair<std::string, FaultSpec> parseClause(const std::string& clause) {
  const std::size_t eq = clause.find('=');
  if (eq == std::string::npos || eq == 0)
    throw std::invalid_argument("fault spec: missing 'site=' in '" + clause +
                                "'");
  const std::string site = clause.substr(0, eq);
  std::string rest = clause.substr(eq + 1);

  // Peel the suffixes right to left so action params may not contain the
  // suffix characters (they are numeric anyway).
  FaultSpec spec;
  bool haveCount = false;
  for (const char marker : {'~', 'x', '/', '@'}) {
    const std::size_t at = rest.rfind(marker);
    if (at == std::string::npos) continue;
    const std::string value = rest.substr(at + 1);
    rest = rest.substr(0, at);
    switch (marker) {
      case '~': spec.probability = parseProb(value, clause); break;
      case 'x': spec.count = parseU64(value, clause); haveCount = true; break;
      case '/': spec.every = parseU64(value, clause); break;
      case '@': spec.first = parseU64(value, clause); break;
    }
  }
  if (spec.first == 0)
    throw std::invalid_argument("fault spec: @first is 1-based in '" + clause +
                                "'");
  // A periodic fault without an explicit cap means "keep firing".
  if (!haveCount && spec.every > 0) spec.count = 0;

  std::string param;
  if (const std::size_t colon = rest.find(':'); colon != std::string::npos) {
    param = rest.substr(colon + 1);
    rest = rest.substr(0, colon);
  }
  if (rest == "crash") {
    spec.action = FaultAction::Crash;
    if (!param.empty())
      spec.exitCode = static_cast<int>(parseU64(param, clause));
  } else if (rest == "throw") {
    spec.action = FaultAction::Throw;
  } else if (rest == "delay") {
    spec.action = FaultAction::Delay;
    if (param.empty())
      throw std::invalid_argument("fault spec: delay needs ':ms' in '" +
                                  clause + "'");
    spec.delayMs = parseU64(param, clause);
  } else if (rest == "corrupt") {
    spec.action = FaultAction::Corrupt;
  } else {
    throw std::invalid_argument("fault spec: unknown action '" + rest +
                                "' in '" + clause +
                                "' (crash, throw, delay, corrupt)");
  }
  return {site, spec};
}

}  // namespace

FaultRegistry& FaultRegistry::instance() {
  static FaultRegistry registry;
  return registry;
}

void FaultRegistry::arm(const std::string& site, FaultSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  Site s;
  s.spec = spec;
  s.rngState = seed_ ^ hashName(site);
  sites_[site] = s;
  armedFlag_.store(true, std::memory_order_relaxed);
}

void FaultRegistry::armFromText(const std::string& text) {
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find_first_of(";,", start);
    if (end == std::string::npos) end = text.size();
    std::string clause = text.substr(start, end - start);
    // Trim surrounding whitespace; empty clauses (trailing separators) are
    // legal and ignored.
    const std::size_t b = clause.find_first_not_of(" \t");
    const std::size_t e = clause.find_last_not_of(" \t");
    if (b != std::string::npos) {
      auto [site, spec] = parseClause(clause.substr(b, e - b + 1));
      arm(site, spec);
    }
    start = end + 1;
  }
}

bool FaultRegistry::armFromEnv() {
  if (const char* seed = std::getenv("NETSYN_FAULT_SEED"))
    setSeed(parseU64(seed, "NETSYN_FAULT_SEED"));
  const char* spec = std::getenv("NETSYN_FAULTS");
  if (!spec || !*spec) return false;
  armFromText(spec);
  return true;
}

void FaultRegistry::setSeed(std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed;
  for (auto& [name, site] : sites_) {
    site.rngState = seed_ ^ hashName(name);
    site.stats = FaultSiteStats{};
  }
}

void FaultRegistry::disarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  armedFlag_.store(false, std::memory_order_relaxed);
}

FaultSiteStats FaultRegistry::stats(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = sites_.find(site); it != sites_.end())
    return it->second.stats;
  return FaultSiteStats{};
}

std::uint64_t FaultRegistry::totalHits() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& [name, site] : sites_) n += site.stats.hits;
  return n;
}

std::uint64_t FaultRegistry::totalFires() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& [name, site] : sites_) n += site.stats.fires;
  return n;
}

std::uint64_t FaultRegistry::nextRandLocked(Site& site) {
  return splitmix64(site.rngState);
}

bool FaultRegistry::shouldFireLocked(Site& site) {
  const FaultSpec& spec = site.spec;
  const std::uint64_t hit = ++site.stats.hits;
  if (spec.count > 0 && site.stats.fires >= spec.count) return false;
  const bool eligible =
      hit == spec.first ||
      (spec.every > 0 && hit > spec.first &&
       (hit - spec.first) % spec.every == 0);
  if (!eligible) return false;
  if (spec.probability < 1.0) {
    const double draw =
        static_cast<double>(nextRandLocked(site) >> 11) * 0x1.0p-53;
    if (draw >= spec.probability) return false;
  }
  ++site.stats.fires;
  return true;
}

void FaultRegistry::onHit(const char* site) {
  FaultSpec spec;
  std::uint64_t hit = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sites_.find(site);
    if (it == sites_.end()) return;
    if (it->second.spec.action == FaultAction::Corrupt) {
      // Corrupt only acts through FAULT_CORRUPT; a plain FAULT_POINT at the
      // same name is not a hit for it.
      return;
    }
    if (!shouldFireLocked(it->second)) return;
    spec = it->second.spec;
    hit = it->second.stats.hits;
  }
  // Act outside the lock: a delay must not serialize other sites, and a
  // throw must not leave the mutex held.
  switch (spec.action) {
    case FaultAction::Crash:
      // Hard death: no destructors, no stream flushes — the closest an
      // in-process fault can get to kill -9.
      std::_Exit(spec.exitCode);
    case FaultAction::Throw:
      throw FaultInjected(std::string("injected fault at ") + site +
                          " (hit " + std::to_string(hit) + ")");
    case FaultAction::Delay:
      std::this_thread::sleep_for(std::chrono::milliseconds(spec.delayMs));
      return;
    case FaultAction::Corrupt:
      return;  // unreachable (filtered above)
  }
}

void FaultRegistry::corrupt(const char* site, std::string& bytes) {
  std::size_t pos = 0;
  unsigned char mask = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sites_.find(site);
    if (it == sites_.end()) return;
    if (it->second.spec.action != FaultAction::Corrupt) return;
    if (!shouldFireLocked(it->second)) return;
    if (bytes.empty()) return;  // fired, but nothing to flip
    const std::uint64_t r = nextRandLocked(it->second);
    pos = static_cast<std::size_t>(r % bytes.size());
    // Any nonzero mask guarantees the byte actually changes.
    mask = static_cast<unsigned char>((r >> 32) | 1u);
  }
  bytes[pos] = static_cast<char>(static_cast<unsigned char>(bytes[pos]) ^ mask);
}

}  // namespace netsyn::util
