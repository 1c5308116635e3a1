// Random generation of programs, inputs, and specifications.
//
// Mirrors the paper's experimental setup (§5): training and test programs
// are random, fully-live (no dead code) function sequences; each program is
// paired with m input-output examples obtained by executing it on random
// inputs. "Singleton" programs end in an int-returning function, "list"
// programs end in a list-returning one; the paper's test workload is half of
// each.
#pragma once

#include <cstdint>
#include <optional>

#include "dsl/dce.hpp"
#include "dsl/program.hpp"
#include "dsl/spec.hpp"
#include "util/rng.hpp"

namespace netsyn::dsl {

struct Domain;  // domain.hpp — vocabulary + value shapes of one DSL

/// Knobs for random generation. Defaults follow DeepCoder-style conventions
/// scaled to this repo's CPU-only setting (documented in DESIGN.md §5).
struct GeneratorConfig {
  int minListLength = 4;     ///< random input list length range
  int maxListLength = 10;
  std::int32_t minValue = -64;  ///< element / int-input range
  std::int32_t maxValue = 64;
  double intInputProbability = 0.5;  ///< P(program also takes an int input)
  int maxAttempts = 1000;  ///< rejection-sampling budget per artifact
  /// Separate range for Int *inputs* when useIntRange is set (the str domain
  /// draws list elements as char codes but int inputs as small counts /
  /// indices). Off by default: ints share [minValue, maxValue], the list
  /// domain's classic behaviour.
  bool useIntRange = false;
  std::int32_t intMinValue = 0;
  std::int32_t intMaxValue = 0;
  /// Which DSL to generate for: vocabulary for function sampling plus value
  /// hooks. nullptr selects the classic list domain (bit-identical to the
  /// pre-domain generator; pinned by test_domain_parity).
  const Domain* domain = nullptr;
};

class Generator {
 public:
  explicit Generator(GeneratorConfig config = {}) : config_(config) {}
  /// Generator for `domain` with the domain's default knobs.
  explicit Generator(const Domain& domain);

  const GeneratorConfig& config() const { return config_; }
  /// The domain generated for (config().domain, null resolving to list).
  const Domain& domain() const;

  /// Random input signature: always a list first, optionally an int.
  InputSignature randomSignature(util::Rng& rng) const;

  /// Random value of the given type within the configured ranges.
  Value randomValue(Type t, util::Rng& rng) const;

  /// Random input tuple for `sig`.
  std::vector<Value> randomInputs(const InputSignature& sig,
                                  util::Rng& rng) const;

  /// Uniformly random program of exactly `length` functions with no dead
  /// code under `sig`. If `outputType` is given, the final function returns
  /// that type. Uses rejection sampling with per-statement repair; returns
  /// nullopt only if `maxAttempts` is exhausted (practically unreachable for
  /// lengths <= 15).
  std::optional<Program> randomProgram(std::size_t length,
                                       const InputSignature& sig,
                                       util::Rng& rng,
                                       std::optional<Type> outputType = {})
      const;

  /// Builds a spec of `m` examples by running `program` on random inputs of
  /// signature `sig`. Rejects degenerate specs where every output equals the
  /// type default (those make synthesis trivially easy and teach the NN
  /// nothing); returns nullopt if no acceptable spec is found within the
  /// attempt budget.
  std::optional<Spec> makeSpec(const Program& program,
                               const InputSignature& sig, std::size_t m,
                               util::Rng& rng) const;

  /// One-stop test-case generation: a fully-live random program of `length`
  /// plus an m-example spec. `singleton` selects an int-returning final
  /// function (the paper's "singleton programs") versus list-returning.
  struct TestCase {
    Program program;
    InputSignature signature;
    Spec spec;
  };
  std::optional<TestCase> randomTestCase(std::size_t length, std::size_t m,
                                         bool singleton,
                                         util::Rng& rng) const;

 private:
  /// randomValue / randomInputs drawn into existing storage (same draws),
  /// so a retained list buffer is refilled instead of reallocated.
  void drawValue(Type t, util::Rng& rng, Value& out) const;
  void drawInputs(const InputSignature& sig, util::Rng& rng,
                  std::vector<Value>& out) const;

  GeneratorConfig config_;
};

}  // namespace netsyn::dsl
