// In-memory span recorder for the traced run.
//
// Spans are recorded only by the benchmark's own decorators (decorators.hpp)
// and clients, around calls into each layer's public entry points; nothing
// in the library is instrumented. Every thread appends to its own buffer,
// so recording takes no lock. A span's parent is the innermost open span on
// the same thread, or else the open root span (one synthesize call, which
// may fan out to island threads) — that is how children recorded on island
// threads find the synthesize span that caused them.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

/// Span layers. The numeric values index Attribution::layer.
enum class Layer : std::uint8_t {
  Synthesize,    ///< core: baselines::Method::synthesize (root span)
  GradeNn,       ///< nn: FitnessFunction::scoreBatch on an NN fitness
  GradeEdit,     ///< fitness: FitnessFunction::scoreBatch on edit distance
  EncodeBegin,   ///< fitness: LaneTraceSink::beginCapture
  Encode,        ///< fitness: LaneTraceSink::capture (one gene)
  ProbMap,       ///< nn: ProbMapProvider::probMap
  Train,         ///< harness: loadOrTrain
  Workload,      ///< harness: makeFullWorkload
  Request,       ///< service/transport: one NDJSON request round trip
  Sample,        ///< bench: copying graded genes for the dsl replay
  Count
};

struct Span {
  Layer layer = Layer::Synthesize;
  std::uint32_t tag = 0;     ///< genes in a batch, or the request op
  std::uint32_t thread = 0;  ///< recorder thread index
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = none
  double start = 0.0;        ///< seconds since the recorder epoch
  double end = 0.0;
};

class Tracer {
 public:
  static Tracer& instance();

  void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Seconds since the recorder epoch (steady clock).
  static double now();

  /// Every span recorded since the last clear(), in no particular order.
  /// Call only while no thread is recording.
  std::vector<Span> collect() const;
  void clear();

 private:
  friend class ScopedSpan;
  struct ThreadBuf {
    std::uint32_t index = 0;
    std::vector<Span> spans;
    std::vector<std::uint64_t> stack;  ///< open span ids on this thread
  };
  ThreadBuf& local();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> nextId_{1};
  std::atomic<std::uint64_t> root_{0};  ///< open root span, 0 = none
  mutable std::mutex mu_;               ///< guards bufs_ (registration only)
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/// Records one span for its lifetime (no-op while tracing is disabled).
/// A Synthesize span is the root that threads without an open span of
/// their own attach to.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer, std::uint32_t tag = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::ThreadBuf* buf_ = nullptr;  ///< null when disabled
  Span span_;
};

}  // namespace perfbench
