// Data-parallel minibatch step shared by Trainer and RankTrainer.
//
// The serial sweep it reproduces builds every sample's graph, chains the
// losses with add, and runs one backward over scale(sum, 1/n). That sweep
// seeds each sample's loss gradient with exactly 1/n and visits the samples
// last to first, each graph in its own reverse post-order: the samples'
// graphs share nothing but the parameters. MinibatchRunner gets the same
// gradients, bit for bit, on any number of threads:
//   - a worker (the calling thread is one of them) builds a sample's graph
//     on its own model replica (weights re-copied whenever the model's
//     version moves) and runs backward(scale(loss, 1/n)), which seeds the
//     same 1/n;
//   - meanwhile a LeafGradLog records the sample's parameter-gradient
//     writes, and the worker drops the graph before taking the next sample;
//   - the logs are replayed into the model's gradients last sample first,
//     split across the workers by parameter rows.
// Every gradient element thus receives the same float additions in the same
// order as in the serial sweep. Clipping and the optimizer step then run on
// the calling thread, and losses are summed in sample order: the trained
// weights depend on (seed, corpus, batch size), not on the thread count.
// tests/test_train_parallel.cpp pins this against the serial sweep.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "fitness/model.hpp"
#include "nn/optim.hpp"

namespace netsyn::fitness {

class MinibatchRunner {
 public:
  /// Runs each minibatch on up to `threads` threads of the process-wide
  /// util::Executor, the calling thread included. One worker (no replicas)
  /// runs everything on the calling thread, writing gradients directly,
  /// last sample first.
  MinibatchRunner(NnffModel& model, std::size_t threads);
  /// Returns the malloc arenas' free pages to the OS (see minibatch.cpp).
  ~MinibatchRunner();
  MinibatchRunner(const MinibatchRunner&) = delete;
  MinibatchRunner& operator=(const MinibatchRunner&) = delete;

  std::size_t threads() const { return threads_; }

  /// The loss of sample `i`, built on `model` (the trained model or one of
  /// its replicas).
  using LossFn = std::function<nn::Var(const NnffModel& model, std::size_t i)>;

  /// One optimizer step on samples 0..n-1: zeroes the gradients,
  /// accumulates the gradient of their mean loss, clips it to a global norm
  /// of `gradClip` (<= 0: no clipping) and calls opt.step(). Adds each
  /// sample's loss to `lossSum`, in sample order.
  void step(std::size_t n, const LossFn& loss, float gradClip,
            nn::Optimizer& opt, double& lossSum);

  /// Calls fn(model, i) for every i in 0..n-1 in inference mode, spread
  /// over the workers, each on its own replica. fn must write only to
  /// per-i outputs.
  void forEach(std::size_t n,
               const std::function<void(const NnffModel&, std::size_t)>& fn);

 private:
  /// Worker w's replica, with the model's current weights.
  const NnffModel& replica(std::size_t w);

  NnffModel& model_;
  std::size_t threads_;
  std::vector<std::unique_ptr<NnffModel>> replicas_;
  std::vector<std::uint64_t> replicaVersion_;  ///< model version copied
  std::vector<nn::LeafGradLog> logs_;          ///< one per sample
  std::vector<float> losses_;
};

}  // namespace netsyn::fitness
