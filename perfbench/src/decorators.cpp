#include "decorators.hpp"

#include <algorithm>
#include <tuple>

namespace perfbench {

std::vector<GeneSampler::Entry>* GeneSampler::newBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<std::vector<Entry>>());
  return buffers_.back().get();
}

std::vector<GeneSampler::Entry> GeneSampler::sorted() const {
  std::vector<Entry> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : buffers_) out.insert(out.end(), b->begin(), b->end());
  }
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.task, a.island, a.seq) <
           std::tie(b.task, b.island, b.seq);
  });
  return out;
}

void TimingSink::beginCapture(const netsyn::dsl::Spec& spec,
                              std::size_t count) {
  ScopedSpan span(Layer::EncodeBegin);
  inner_->beginCapture(spec, count);
}

void TimingSink::capture(std::size_t slot,
                         const netsyn::dsl::Program& candidate,
                         const netsyn::dsl::LaneTraceView& view) {
  ScopedSpan span(Layer::Encode, 1);
  inner_->capture(slot, candidate, view);
}

TracedFitness::TracedFitness(netsyn::fitness::FitnessPtr inner, Layer layer,
                             GeneSampler* sampler, std::size_t island)
    : inner_(std::move(inner)),
      layer_(layer),
      sampler_(sampler),
      buffer_(sampler ? sampler->newBuffer() : nullptr),
      island_(island) {}

void TracedFitness::sample(
    const std::vector<const netsyn::dsl::Program*>& genes) {
  if (!buffer_) return;
  ScopedSpan span(Layer::Sample);
  for (const auto* g : genes) {
    const std::size_t seq = seen_++;
    if (seq % sampler_->stride() == 0)
      buffer_->push_back({sampler_->task(), island_, seq, *g});
  }
}

double TracedFitness::score(const netsyn::dsl::Program& gene,
                            const netsyn::fitness::EvalContext& ctx) {
  sample({&gene});
  ScopedSpan span(layer_, 1);
  return inner_->score(gene, ctx);
}

std::vector<double> TracedFitness::scoreBatch(
    const std::vector<const netsyn::dsl::Program*>& genes,
    const std::vector<const netsyn::fitness::EvalContext*>& contexts) {
  sample(genes);
  ScopedSpan span(layer_, static_cast<std::uint32_t>(genes.size()));
  return inner_->scoreBatch(genes, contexts);
}

netsyn::fitness::LaneTraceSink* TracedFitness::laneSink() {
  netsyn::fitness::LaneTraceSink* inner = inner_->laneSink();
  if (!inner) return nullptr;
  if (!sink_) sink_ = std::make_unique<TimingSink>(inner);
  return sink_.get();
}

}  // namespace perfbench
