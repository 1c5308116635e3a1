// Differential / fuzz harness for the DSL execution engine.
//
// A seeded fuzzer cross-checks the production pipeline — cached ExecPlans,
// in-place function bodies, statement-major executePlanMulti, pooled
// ExecResult storage — against the frozen seed interpreter embedded in
// bench/legacy_baseline.hpp (value-returning bodies, fresh allocations,
// per-call plan recomputation). Any divergence in any trace slot on any
// random program is a bug in one of the two; the legacy side is a
// do-not-touch snapshot, so in practice it pins the engine.
//
// The suite also locks down the engine's aliasing contract. Audit result
// (dsl/interpreter.cpp, dsl/functions.cpp, PR 3):
//   - applyFunctionInto's `out` must never alias an argument. The
//     interpreter upholds this structurally: a statement's destination is
//     trace[k] and its arguments resolve only to trace[j] with j < k,
//     program inputs, or the shared defaults. The fuzzed invariant test
//     below pins that property over random plans, and the engine/legacy
//     differential would catch any violation behaviorally (an aliased
//     in-place body reads its input mid-overwrite).
//   - Argument-argument aliasing (args[0] == args[1], the dup-reuse rule
//     for two-list statements with a single producer) IS allowed and must
//     stay correct: bodies only read arguments. Pinned per ZIPWITH below.
//   - Value retained-buffer reuse (setInt/makeList/copy-assign) must never
//     leak stale elements between candidates; the pooled-slot stress test
//     reruns shrinking/growing programs through one ExecResult.
// No live aliasing bug was found; these tests exist so none can creep in.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "../bench/legacy_baseline.hpp"
#include "dsl/dce.hpp"
#include "dsl/domain.hpp"
#include "dsl/functions.hpp"
#include "dsl/generator.hpp"
#include "dsl/interpreter.hpp"
#include "dsl/lanes.hpp"
#include "dsl/program.hpp"
#include "fitness/model.hpp"
#include "fitness/neural_fitness.hpp"
#include "util/rng.hpp"

namespace nd = netsyn::dsl;
namespace nf = netsyn::fitness;
using netsyn::util::Rng;

namespace {

using List = std::vector<std::int32_t>;

/// The seed interpreter, verbatim from PR 1: argument plan recomputed per
/// call, whole-Value argument copies, a fresh Value per statement.
nd::ExecResult legacyRun(const nd::Program& program,
                         const std::vector<nd::Value>& inputs) {
  const nd::ArgPlan plan =
      nd::computeArgPlan(program, nd::signatureOf(inputs));
  nd::ExecResult result;
  result.trace.reserve(program.length());
  std::array<nd::Value, nd::kMaxArity> argbuf;
  for (std::size_t k = 0; k < program.length(); ++k) {
    const nd::StatementPlan& sp = plan[k];
    const nd::FunctionInfo& info = nd::functionInfo(program.at(k));
    for (std::size_t slot = 0; slot < sp.arity; ++slot) {
      const nd::ArgSource& src = sp.args[slot];
      switch (src.kind) {
        case nd::ArgSource::Kind::Statement:
          argbuf[slot] = result.trace[src.index];
          break;
        case nd::ArgSource::Kind::Input:
          argbuf[slot] = inputs[src.index];
          break;
        case nd::ArgSource::Kind::Default:
          argbuf[slot] = nd::Value::defaultFor(info.argTypes[slot]);
          break;
      }
    }
    result.trace.push_back(netsyn::bench::legacy::applyFunction(
        program.at(k), std::span<const nd::Value>(argbuf.data(), sp.arity)));
  }
  return result;
}

/// Uniformly random function sequence — deliberately NOT the generator's
/// fully-live programs: dead code, duplicate producers, and default-arg
/// statements are exactly the corners the differential should cover.
nd::Program randomRawProgram(std::size_t length, Rng& rng) {
  nd::Program p;
  for (std::size_t i = 0; i < length; ++i)
    p.append(static_cast<nd::FuncId>(rng.uniform(nd::kNumFunctions)));
  return p;
}

void expectSameTrace(const nd::ExecResult& engine, const nd::ExecResult& legacy,
                     const nd::Program& program, std::uint64_t caseId) {
  ASSERT_EQ(engine.trace.size(), legacy.trace.size())
      << "case " << caseId << ": " << program.toString();
  for (std::size_t k = 0; k < engine.trace.size(); ++k) {
    ASSERT_EQ(engine.trace[k], legacy.trace[k])
        << "case " << caseId << " trace slot " << k << ": "
        << program.toString();
  }
}

}  // namespace

// --------------------------------------------- engine vs legacy fuzz ------

// >= 10k random programs in CI-fast mode (the acceptance floor): one shared
// Executor so cached plans, direct-mapped slot evictions, and pooled
// ExecResult buffers are all exercised across wildly different programs.
TEST(FuzzDifferential, TenThousandRandomProgramsMatchTheLegacyInterpreter) {
  constexpr std::size_t kPrograms = 12000;
  constexpr std::size_t kExamples = 3;

  Rng rng(0xF0221);
  const nd::Generator gen;
  nd::Executor executor;
  // Persistent result slots: every program refills the same trace storage,
  // the retained-buffer path the GA's evaluator runs in steady state.
  std::vector<nd::ExecResult> engineRuns(kExamples);

  for (std::size_t n = 0; n < kPrograms; ++n) {
    const nd::InputSignature sig = gen.randomSignature(rng);
    const std::size_t length = 1 + rng.uniform(8);
    // 1-in-4 programs come from the fully-live generator (the GA's actual
    // distribution); the rest are raw uniform sequences.
    nd::Program program;
    if (rng.uniform(4) == 0) {
      auto live = gen.randomProgram(length, sig, rng);
      ASSERT_TRUE(live.has_value());
      program = std::move(*live);
    } else {
      program = randomRawProgram(length, rng);
    }

    std::vector<std::vector<nd::Value>> inputs;
    std::vector<const std::vector<nd::Value>*> inputSets;
    inputs.reserve(kExamples);
    inputSets.reserve(kExamples);
    for (std::size_t j = 0; j < kExamples; ++j) {
      inputs.push_back(gen.randomInputs(sig, rng));
      inputSets.push_back(&inputs[j]);
    }

    const nd::ExecPlan& plan = executor.planFor(program, sig);
    nd::executePlanMulti(plan, inputSets.data(), kExamples,
                         engineRuns.data());
    for (std::size_t j = 0; j < kExamples; ++j) {
      const nd::ExecResult legacy = legacyRun(program, inputs[j]);
      expectSameTrace(engineRuns[j], legacy, program, n);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// DCE is semantics-preserving: a program and its dead-code-eliminated form
// must produce identical outputs on every input (trace lengths differ, the
// output cannot). Raw random programs carry plenty of dead code.
TEST(FuzzDifferential, DceNeverChangesProgramOutputs) {
  constexpr std::size_t kPrograms = 4000;
  Rng rng(0xDCE5EED);
  const nd::Generator gen;
  nd::Executor executor;

  std::size_t programsWithDeadCode = 0;
  for (std::size_t n = 0; n < kPrograms; ++n) {
    const nd::InputSignature sig = gen.randomSignature(rng);
    const nd::Program program = randomRawProgram(1 + rng.uniform(8), rng);
    const nd::Program stripped = nd::eliminateDeadCode(program, sig);
    if (stripped.length() < program.length()) ++programsWithDeadCode;

    for (std::size_t j = 0; j < 2; ++j) {
      const std::vector<nd::Value> in = gen.randomInputs(sig, rng);
      const nd::Value& full = executor.evalInto(program, in);
      const nd::Value fullCopy = full;  // evalInto's slot is reused below
      const nd::Value& reduced = executor.evalInto(stripped, in);
      ASSERT_EQ(fullCopy, reduced)
          << "case " << n << ": " << program.toString() << "  ->  "
          << stripped.toString();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // The fuzz distribution must actually exercise the transform.
  EXPECT_GT(programsWithDeadCode, kPrograms / 4);
}

// ------------------------------------ SIMD lanes vs the scalar oracle -----

namespace {

/// Fuzzes the SoA lane executor against scalar executePlanMulti — the
/// designated oracle for the SIMD path (the scalar path itself is pinned
/// against the frozen legacy interpreter above, so equality is transitive
/// back to the seed). Trace equality is checked slot by slot on every
/// example. Example counts sweep the lane-group tails: 1, one full SIMD
/// vector +/- 1, SoATrace::kMaxLanes - 1 / exact / + 1, and two groups
/// plus a ragged tail.
void fuzzLanesVsScalar(const nd::Domain& domain, std::uint64_t seed) {
  constexpr std::size_t kPrograms = 6000;
  const std::size_t laneTails[] = {1,
                                   7,
                                   8,
                                   9,
                                   nd::SoATrace::kMaxLanes - 1,
                                   nd::SoATrace::kMaxLanes,
                                   nd::SoATrace::kMaxLanes + 1,
                                   2 * nd::SoATrace::kMaxLanes + 3};
  constexpr std::size_t kMaxExamples = 2 * nd::SoATrace::kMaxLanes + 3;

  Rng rng(seed);
  const nd::Generator gen(domain);
  nd::Executor executor;
  nd::SoATrace trace;
  // Persistent slots for both paths: the retained-buffer reuse of each is
  // part of what the differential covers.
  std::vector<nd::ExecResult> scalarRuns(kMaxExamples);
  std::vector<nd::ExecResult> laneRuns(kMaxExamples);
  std::vector<nd::Value> laneOuts(kMaxExamples);

  for (std::size_t n = 0; n < kPrograms; ++n) {
    const nd::InputSignature sig = gen.randomSignature(rng);
    const std::size_t length = 1 + rng.uniform(8);
    // 1-in-4 fully-live generator programs; the rest uniform over the
    // domain's vocabulary (dead code, duplicate producers, default args).
    nd::Program program;
    if (rng.uniform(4) == 0) {
      auto live = gen.randomProgram(length, sig, rng);
      ASSERT_TRUE(live.has_value());
      program = std::move(*live);
    } else {
      for (std::size_t i = 0; i < length; ++i)
        program.append(
            domain.vocabulary[rng.uniform(domain.vocabulary.size())]);
    }
    const std::size_t examples = laneTails[n % std::size(laneTails)];

    std::vector<std::vector<nd::Value>> inputs;
    std::vector<const std::vector<nd::Value>*> inputSets;
    inputs.reserve(examples);
    inputSets.reserve(examples);
    for (std::size_t j = 0; j < examples; ++j) {
      inputs.push_back(gen.randomInputs(sig, rng));
      inputSets.push_back(&inputs[j]);
    }

    const nd::ExecPlan& plan = executor.planFor(program, sig);
    nd::executePlanMulti(plan, inputSets.data(), examples, scalarRuns.data());
    nd::executePlanMultiLanes(plan, inputSets.data(), examples,
                              laneRuns.data(), trace);
    nd::executePlanMultiLanesOutputs(plan, inputSets.data(), examples,
                                     laneOuts.data(), trace);
    for (std::size_t j = 0; j < examples; ++j) {
      ASSERT_EQ(laneRuns[j].trace.size(), scalarRuns[j].trace.size())
          << "case " << n << " example " << j << ": " << program.toString();
      for (std::size_t k = 0; k < laneRuns[j].trace.size(); ++k) {
        ASSERT_EQ(laneRuns[j].trace[k], scalarRuns[j].trace[k])
            << "case " << n << " example " << j << " (" << examples
            << " lanes) trace slot " << k << ": " << program.toString();
      }
      ASSERT_EQ(laneOuts[j], scalarRuns[j].output())
          << "case " << n << " example " << j << " (" << examples
          << " lanes) output-only path: " << program.toString();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace

// 12k random programs total across the two registered domains, per the
// acceptance bar for the lane executor (backend under test is whatever this
// binary was compiled with — CI runs both the AVX2 and scalar builds).
TEST(FuzzDifferential, LaneExecutorMatchesScalarOracleOnListDomain) {
  fuzzLanesVsScalar(nd::listDomain(), 0x51D0A);
}

TEST(FuzzDifferential, LaneExecutorMatchesScalarOracleOnStrDomain) {
  fuzzLanesVsScalar(nd::strDomain(), 0x51D0B);
}

// The Executor-level switch: both settings of setLaneExecution must produce
// identical traces through the same executeMulti entry point (this is the
// contract SpecEvaluator and the NS scorer rely on when the config flag
// flips), and the compiled backend must report a known name.
TEST(FuzzDifferential, ExecutorBackendSwitchIsTraceInvisible) {
  const std::string backend = nd::Executor::backendName();
  EXPECT_TRUE(backend == "avx2" || backend == "scalar") << backend;

  Rng rng(0xBAC63D);
  const nd::Generator gen;
  nd::Executor executor;
  constexpr std::size_t kExamples = 10;
  std::vector<nd::ExecResult> laneRuns(kExamples), scalarRuns(kExamples);
  for (std::size_t n = 0; n < 500; ++n) {
    const nd::InputSignature sig = gen.randomSignature(rng);
    const nd::Program program = randomRawProgram(1 + rng.uniform(8), rng);
    std::vector<std::vector<nd::Value>> inputs;
    std::vector<const std::vector<nd::Value>*> inputSets;
    inputs.reserve(kExamples);
    for (std::size_t j = 0; j < kExamples; ++j) {
      inputs.push_back(gen.randomInputs(sig, rng));
      inputSets.push_back(&inputs[j]);
    }
    const nd::ExecPlan& plan = executor.planFor(program, sig);
    executor.setLaneExecution(true);
    ASSERT_TRUE(executor.laneExecution());
    executor.executeMulti(plan, inputSets.data(), kExamples, laneRuns.data());
    executor.setLaneExecution(false);
    executor.executeMulti(plan, inputSets.data(), kExamples,
                          scalarRuns.data());
    for (std::size_t j = 0; j < kExamples; ++j)
      for (std::size_t k = 0; k < laneRuns[j].trace.size(); ++k)
        ASSERT_EQ(laneRuns[j].trace[k], scalarRuns[j].trace[k])
            << "case " << n << ": " << program.toString();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// The pinned-ingest fast path in production shape: one immutable spec, many
// candidate programs through one Executor with pinExampleInputs (exactly how
// SpecEvaluator drives it). Both executeMulti and executeMultiOutputs must
// match the scalar oracle on every candidate — the ingest is only ever
// transposed once, so any lane-table corruption by a plan would poison all
// later candidates and be caught here. Then the pin lifecycle: re-pinning
// the same array after its contents changed must force a fresh ingest (the
// trace-level pin is keyed by address, so stale-ingest reuse is the failure
// mode this pins down).
TEST(FuzzDifferential, PinnedIngestMatchesScalarOracleAcrossCandidates) {
  Rng rng(0xF1A7ED);
  const nd::Generator gen;
  constexpr std::size_t kExamples = 10;

  for (std::size_t round = 0; round < 40; ++round) {
    const nd::InputSignature sig = gen.randomSignature(rng);
    std::vector<std::vector<nd::Value>> inputs;
    std::vector<const std::vector<nd::Value>*> inputSets;
    inputs.reserve(kExamples);
    inputSets.reserve(kExamples);
    for (std::size_t j = 0; j < kExamples; ++j) {
      inputs.push_back(gen.randomInputs(sig, rng));
      inputSets.push_back(&inputs[j]);
    }
    nd::Executor executor;
    executor.pinExampleInputs(inputSets.data(), kExamples);

    std::vector<nd::ExecResult> laneRuns(kExamples), scalarRuns(kExamples);
    std::vector<nd::Value> laneOuts(kExamples);
    const auto checkCandidates = [&](std::size_t cases) {
      for (std::size_t n = 0; n < cases; ++n) {
        const nd::Program program = randomRawProgram(1 + rng.uniform(8), rng);
        const nd::ExecPlan& plan = executor.planFor(program, sig);
        executor.executeMulti(plan, inputSets.data(), kExamples,
                              laneRuns.data());
        executor.executeMultiOutputs(plan, inputSets.data(), kExamples,
                                     laneOuts.data());
        nd::executePlanMulti(plan, inputSets.data(), kExamples,
                             scalarRuns.data());
        for (std::size_t j = 0; j < kExamples; ++j) {
          for (std::size_t k = 0; k < laneRuns[j].trace.size(); ++k)
            ASSERT_EQ(laneRuns[j].trace[k], scalarRuns[j].trace[k])
                << "round " << round << " case " << n << ": "
                << program.toString();
          ASSERT_EQ(laneOuts[j], scalarRuns[j].output())
              << "round " << round << " case " << n << ": "
              << program.toString();
        }
        if (::testing::Test::HasFatalFailure()) return;
      }
    };
    checkCandidates(25);
    if (::testing::Test::HasFatalFailure()) return;

    // Mutate the example inputs in place (same addresses — the hostile case
    // for an address-keyed pin) and re-pin: results must reflect the new
    // contents, not the stale ingest.
    for (std::size_t j = 0; j < kExamples; ++j)
      inputs[j] = gen.randomInputs(sig, rng);
    executor.pinExampleInputs(inputSets.data(), kExamples);
    checkCandidates(25);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ------------------------------- lane-view NN encoding parity -------------

// The NN fitness stack encodes traces two ways: scattered per-example
// Values from the scalar executor (encodeTrace) and un-scattered SoA lane
// blocks through a LaneTraceView (encodeLaneTrace). The lane encoder reads
// fingerprints and token spans straight off the lane segments, so any
// mismatch with the Value cells — ordering, sign extension, empty-list
// defaults, the final-output edit distance — shows up here, first as an
// EncodedTrace field difference, then as a score difference. Both must be
// bitwise-equal, not just close: the two encoders share one body and feed
// the same memos and the same batched LSTM rows.
TEST(FuzzDifferential, LaneViewEncodingMatchesScalarNnScoresBitwise) {
  nf::NnffConfig cfg;
  cfg.encoder = {.vmax = 64, .maxValueTokens = 8};
  cfg.embedDim = 16;
  cfg.hiddenDim = 24;
  cfg.maxExamples = 4;
  cfg.head = nf::HeadKind::Classifier;
  cfg.useTrace = true;
  cfg.seed = 7;
  const nf::NnffModel model(cfg);

  Rng rng(0x1A2E51);
  const nd::Generator gen;
  constexpr std::size_t kRounds = 30;
  constexpr std::size_t kGenes = 12;

  for (std::size_t round = 0; round < kRounds; ++round) {
    const std::size_t length = 2 + rng.uniform(4);
    const std::size_t examples = 3 + rng.uniform(4);
    const auto tc = gen.randomTestCase(length, examples, false, rng);
    ASSERT_TRUE(tc.has_value());
    const nd::Spec& spec = tc->spec;
    const nd::InputSignature sig = spec.signature();

    std::vector<const std::vector<nd::Value>*> inputSets;
    for (const auto& ex : spec.examples) inputSets.push_back(&ex.inputs);

    // Mixed population: live generator programs and raw uniform sequences,
    // lengths 1..6 (the encoder keys rows on per-candidate length).
    std::vector<nd::Program> genes;
    for (std::size_t i = 0; i < kGenes; ++i) {
      const std::size_t len = 1 + rng.uniform(6);
      nd::Program program = randomRawProgram(len, rng);
      if (rng.uniform(2) == 0) {
        if (auto live = gen.randomProgram(len, sig, rng))
          program = std::move(*live);
      }
      genes.push_back(std::move(program));
    }
    std::vector<const nd::Program*> genePtrs;
    for (const auto& g : genes) genePtrs.push_back(&g);

    // Scalar oracle: scalar-executor traces, scattered and encoded in place.
    nd::Executor scalarExec;
    scalarExec.setLaneExecution(false);
    std::vector<nd::ExecResult> runs(examples);
    std::vector<nf::EncodedTrace> scattered(kGenes);
    std::vector<const nf::EncodedTrace*> scatteredPtrs;
    for (std::size_t b = 0; b < kGenes; ++b) {
      const nd::ExecPlan& plan = scalarExec.planFor(genes[b], sig);
      scalarExec.executeMulti(plan, inputSets.data(), examples, runs.data());
      model.encodeTrace(spec, genes[b], runs, scattered[b]);
      scatteredPtrs.push_back(&scattered[b]);
    }

    // Lane path: the view aliases the executor's scratch SoA trace, so each
    // gene is encoded before the next execution overwrites it — the same
    // consume-before-advance discipline the synthesizer uses.
    nd::Executor lanesExec;
    lanesExec.setLaneExecution(true);
    lanesExec.pinExampleInputs(inputSets.data(), examples);
    model.beginLaneCapture(spec);
    std::vector<nf::EncodedTrace> encoded(kGenes);
    std::vector<const nf::EncodedTrace*> encodedPtrs;
    nd::LaneTraceView view;
    for (std::size_t b = 0; b < kGenes; ++b) {
      const nd::ExecPlan& plan = lanesExec.planFor(genes[b], sig);
      ASSERT_TRUE(
          lanesExec.executeMultiView(plan, inputSets.data(), examples, view));
      model.encodeLaneTrace(spec, genes[b], view, encoded[b]);
      encodedPtrs.push_back(&encoded[b]);
    }
    for (std::size_t b = 0; b < kGenes; ++b) {
      ASSERT_EQ(encoded[b].length, scattered[b].length) << "gene " << b;
      ASSERT_EQ(encoded[b].examples, scattered[b].examples) << "gene " << b;
      ASSERT_EQ(encoded[b].steps, scattered[b].steps)
          << "round " << round << " gene " << b << ": "
          << genes[b].toString();
      ASSERT_EQ(encoded[b].gfeat, scattered[b].gfeat)
          << "round " << round << " gene " << b << ": "
          << genes[b].toString();
    }
    const auto scalar = model.predictBatch(spec, genePtrs, scatteredPtrs);
    const auto lane = model.predictBatch(spec, genePtrs, encodedPtrs);

    ASSERT_EQ(lane.size(), scalar.size());
    for (std::size_t b = 0; b < kGenes; ++b) {
      ASSERT_EQ(lane[b].size(), scalar[b].size());
      for (std::size_t j = 0; j < lane[b].size(); ++j)
        ASSERT_EQ(lane[b][j], scalar[b][j])
            << "round " << round << " gene " << b << " logit " << j << ": "
            << genes[b].toString();
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// The lane sink copies a view's cells when it captures a gene and encodes
// them only when the generation is graded, after the executor has run other
// genes through the same lane buffers. Grading through the sink must equal
// the eager path (encodeLaneTrace while the view is live, then
// predictBatch) bit for bit, feature by feature and score by score, on one
// grading thread and on several. The population has empty programs and
// Int-typed steps, and the specs range past the model's maxExamples.
TEST(FuzzDifferential, CapturedCellsAreIndependentOfExecutorBuffers) {
  nf::NnffConfig cfg;
  cfg.encoder = {.vmax = 64, .maxValueTokens = 8};
  cfg.embedDim = 16;
  cfg.hiddenDim = 24;
  cfg.maxExamples = 4;
  cfg.head = nf::HeadKind::Classifier;
  cfg.useTrace = true;
  cfg.seed = 11;
  const nf::NnffModel model(cfg);

  Rng rng(0xCE11);
  const nd::Generator gen;
  constexpr std::size_t kGenes = 13;
  std::size_t intSteps = 0, emptyGenes = 0, wideSpecs = 0;
  for (std::size_t round = 0; round < 10; ++round) {
    const std::size_t examples = 3 + round % 5;  // 3..7 vs maxExamples 4
    const auto tc = gen.randomTestCase(2 + rng.uniform(4), examples, false,
                                       rng);
    ASSERT_TRUE(tc.has_value());
    const nd::Spec& spec = tc->spec;
    const nd::InputSignature sig = spec.signature();
    std::vector<const std::vector<nd::Value>*> inputSets;
    for (const auto& ex : spec.examples) inputSets.push_back(&ex.inputs);
    if (examples > cfg.maxExamples) ++wideSpecs;

    std::vector<nd::Program> genes(1);  // gene 0: the empty program
    while (genes.size() < kGenes) {
      const std::size_t len = 1 + rng.uniform(6);
      nd::Program program = randomRawProgram(len, rng);
      if (rng.uniform(2) == 0) {
        if (auto live = gen.randomProgram(len, sig, rng))
          program = std::move(*live);
      }
      genes.push_back(std::move(program));
    }
    std::vector<const nd::Program*> genePtrs;
    for (const auto& g : genes) genePtrs.push_back(&g);

    nd::Executor exec;
    exec.setLaneExecution(true);
    exec.pinExampleInputs(inputSets.data(), examples);
    nd::LaneTraceView view;
    const auto execute = [&](const nd::Program& g) {
      return exec.executeMultiView(exec.planFor(g, sig), inputSets.data(),
                                   examples, view);
    };

    // Eager oracle: each view encoded while it is live.
    const auto eagerModel = model.clone();
    eagerModel->beginLaneCapture(spec);
    std::vector<nf::EncodedTrace> eager(kGenes);
    std::vector<const nf::EncodedTrace*> eagerPtrs;
    for (std::size_t b = 0; b < kGenes; ++b) {
      ASSERT_TRUE(execute(genes[b]));
      for (std::size_t k = 0; k < view.steps; ++k)
        if (view.stepType(k) == nd::Type::Int) ++intSteps;
      if (view.steps == 0) ++emptyGenes;
      eagerModel->encodeLaneTrace(spec, genes[b], view, eager[b]);
      eagerPtrs.push_back(&eager[b]);
    }
    const auto eagerLogits = eagerModel->predictBatch(spec, genePtrs,
                                                      eagerPtrs);
    // The same scores through a fitness, from contexts already encoded.
    std::deque<nf::EvalContext> store;
    std::vector<const nf::EvalContext*> eagerCtx;
    for (std::size_t b = 0; b < kGenes; ++b) {
      store.push_back(nf::EvalContext{spec, nf::kNoRuns, &eager[b]});
      eagerCtx.push_back(&store.back());
    }
    const auto eagerScores =
        nf::NeuralFitness(model.clone(), "NN", 1).scoreBatch(genePtrs,
                                                             eagerCtx);

    for (const std::size_t threads : {1, 3}) {
      nf::NeuralFitness fit(model.clone(), "NN", threads);
      nf::LaneTraceSink* sink = fit.laneSink();
      ASSERT_NE(sink, nullptr);
      sink->beginCapture(spec, kGenes);
      for (std::size_t b = 0; b < kGenes; ++b) {
        ASSERT_TRUE(execute(genes[b]));
        sink->capture(b, genes[b], view);
      }
      // Overwrite the lane buffers again before anything is encoded.
      for (std::size_t b = kGenes; b-- > 0;) ASSERT_TRUE(execute(genes[b]));
      std::vector<const nf::EvalContext*> ctx;
      for (std::size_t b = 0; b < kGenes; ++b) {
        store.push_back(nf::EvalContext{spec, nf::kNoRuns, &sink->at(b)});
        ctx.push_back(&store.back());
      }
      const auto scores = fit.scoreBatch(genePtrs, ctx);
      for (std::size_t b = 0; b < kGenes; ++b) {
        ASSERT_EQ(sink->at(b).steps, eager[b].steps)
            << "round " << round << " gene " << b << ": "
            << genes[b].toString();
        ASSERT_EQ(sink->at(b).gfeat, eager[b].gfeat)
            << "round " << round << " gene " << b;
        ASSERT_EQ(scores[b], eagerScores[b])
            << threads << " threads, round " << round << " gene " << b;
      }
      // The graded slots are the eager features, so predicting them again
      // gives the eager logits.
      std::vector<const nf::EncodedTrace*> slotPtrs;
      for (std::size_t b = 0; b < kGenes; ++b) slotPtrs.push_back(&sink->at(b));
      ASSERT_EQ(model.clone()->predictBatch(spec, genePtrs, slotPtrs),
                eagerLogits);
    }
  }
  EXPECT_GT(intSteps, 0u) << "no Int-typed step was captured";
  EXPECT_GT(emptyGenes, 0u);
  EXPECT_GT(wideSpecs, 0u);
}

// ------------------------------------------------ aliasing lockdown -------

// Structural invariant behind applyFunctionInto's no-alias contract: a
// compiled statement's arguments may only reference strictly earlier trace
// slots (or inputs/defaults) — the destination trace[k] is unreachable.
TEST(FuzzDifferential, CompiledPlansNeverAliasDestinationWithArguments) {
  Rng rng(0xA11A5);
  const nd::Generator gen;
  for (std::size_t n = 0; n < 2000; ++n) {
    const nd::InputSignature sig = gen.randomSignature(rng);
    const nd::Program program = randomRawProgram(1 + rng.uniform(10), rng);
    const nd::ExecPlan plan = nd::compilePlan(program, sig);
    ASSERT_EQ(plan.steps.size(), program.length());
    for (std::size_t k = 0; k < plan.steps.size(); ++k) {
      const nd::ExecStep& step = plan.steps[k];
      for (std::size_t slot = 0; slot < step.arity; ++slot) {
        if (step.args[slot].kind == nd::ArgSource::Kind::Statement) {
          ASSERT_LT(step.args[slot].index, k)
              << program.toString() << " statement " << k;
        }
      }
    }
  }
}

// Argument-argument aliasing is legal (the interpreter's dup-reuse rule
// feeds one producer to both slots of a two-list statement) and must match
// the non-aliased evaluation exactly.
TEST(FuzzDifferential, TwoListBodiesAcceptTheSameValueInBothSlots) {
  const nd::Value list(List{3, -1, 4, 1, -5, 9});
  const nd::Value listCopy = list;
  for (std::size_t id = 0; id < nd::kNumFunctions; ++id) {
    const nd::FunctionInfo& info = nd::functionInfo(static_cast<nd::FuncId>(id));
    if (info.arity != 2 || info.argTypes[0] != nd::Type::List) continue;
    const nd::Value* aliased[2] = {&list, &list};
    nd::Value out;
    nd::applyFunctionInto(static_cast<nd::FuncId>(id),
                          std::span<const nd::Value* const>(aliased, 2), out);
    const std::array<nd::Value, 2> plain{list, listCopy};
    const nd::Value expected = nd::applyFunction(
        static_cast<nd::FuncId>(id),
        std::span<const nd::Value>(plain.data(), 2));
    EXPECT_EQ(out, expected) << info.name;
  }
}

// Retained-buffer reuse across shrinking and growing results: one pooled
// ExecResult serves programs whose trace values alternate between long
// lists, short lists, and ints. Stale elements from a previous (longer)
// occupant leaking into a refilled slot would diverge from the fresh run.
TEST(FuzzDifferential, PooledResultSlotsNeverLeakStaleElements) {
  const auto idOf = [](const char* name) {
    const auto id = nd::functionByName(name);
    EXPECT_TRUE(id.has_value()) << name;
    return *id;
  };
  // SORT (long list) -> TAKE (short prefix; int consumed from input) ->
  // SUM (int) -> INSERT (list again, rebuilt from the int producer).
  const nd::Program longThenShort(std::vector<nd::FuncId>{
      idOf("SORT"), idOf("TAKE"), idOf("SUM"), idOf("INSERT")});
  const nd::Program allLong(std::vector<nd::FuncId>{
      idOf("REVERSE"), idOf("MAP(*2)"), idOf("SCANL1(+)"), idOf("ZIPWITH(max)")});

  nd::Executor executor;
  nd::ExecResult pooled;  // shared across every execution below
  Rng rng(0xB0FFE);
  const nd::Generator gen;
  const nd::InputSignature sig = {nd::Type::List, nd::Type::Int};
  for (std::size_t n = 0; n < 500; ++n) {
    const std::vector<nd::Value> in = gen.randomInputs(sig, rng);
    for (const nd::Program* p : {&allLong, &longThenShort}) {
      nd::executePlan(executor.planFor(*p, sig), in, pooled);
      const nd::ExecResult fresh = nd::run(*p, in);
      ASSERT_EQ(pooled.trace.size(), fresh.trace.size());
      for (std::size_t k = 0; k < fresh.trace.size(); ++k)
        ASSERT_EQ(pooled.trace[k], fresh.trace[k])
            << p->toString() << " slot " << k;
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Value's self-assignment guard (assign() from its own range would be UB).
TEST(FuzzDifferential, ValueSelfAssignmentIsANoOp) {
  nd::Value v(List{1, 2, 3, 4});
  const nd::Value snapshot = v;
  nd::Value& alias = v;
  v = alias;
  EXPECT_EQ(v, snapshot);
  v.setInt(7);
  nd::Value& alias2 = v;
  v = alias2;
  EXPECT_EQ(v, nd::Value(7));
}
