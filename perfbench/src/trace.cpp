#include "trace.hpp"

#include <chrono>

namespace perfbench {

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

double Tracer::now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

Tracer::ThreadBuf& Tracer::local() {
  // The buffer is owned by the tracer, so spans survive their thread (island
  // gang threads end before the spans are collected).
  thread_local ThreadBuf* buf = nullptr;
  if (!buf) {
    std::lock_guard<std::mutex> lock(mu_);
    bufs_.push_back(std::make_unique<ThreadBuf>());
    buf = bufs_.back().get();
    buf->index = static_cast<std::uint32_t>(bufs_.size() - 1);
  }
  return *buf;
}

std::vector<Span> Tracer::collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& b : bufs_)
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  return out;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& b : bufs_) {
    b->spans.clear();
    b->stack.clear();
  }
  root_.store(0);
}

ScopedSpan::ScopedSpan(Layer layer, std::uint32_t tag) {
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return;
  buf_ = &t.local();
  span_.layer = layer;
  span_.tag = tag;
  span_.thread = buf_->index;
  span_.id = t.nextId_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = buf_->stack.empty() ? t.root_.load(std::memory_order_acquire)
                                     : buf_->stack.back();
  if (layer == Layer::Synthesize)
    t.root_.store(span_.id, std::memory_order_release);
  buf_->stack.push_back(span_.id);
  span_.start = Tracer::now();
}

ScopedSpan::~ScopedSpan() {
  if (!buf_) return;
  span_.end = Tracer::now();
  buf_->stack.pop_back();
  if (span_.layer == Layer::Synthesize)
    Tracer::instance().root_.store(span_.parent, std::memory_order_release);
  buf_->spans.push_back(span_);
}

}  // namespace perfbench
