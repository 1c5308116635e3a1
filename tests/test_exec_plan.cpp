// Parity tests for the zero-allocation execution engine: cached-plan
// execution must be indistinguishable from a fresh interpreter run, pooled
// storage must never leak state between candidates, the evaluator's
// fingerprint dedup must preserve budget semantics, and the blocked NN
// matmul must stay bitwise identical to the scalar kernel.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/budget.hpp"
#include "core/evaluator.hpp"
#include "dsl/functions.hpp"
#include "dsl/generator.hpp"
#include "dsl/interpreter.hpp"
#include "dsl/lanes.hpp"
#include "nn/inference.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace nd = netsyn::dsl;
namespace nc = netsyn::core;
namespace nn = netsyn::nn;
using netsyn::util::Rng;

namespace {

using List = std::vector<std::int32_t>;

/// Structural equality of two ExecResults (output view + full trace).
void expectSameResult(const nd::ExecResult& a, const nd::ExecResult& b) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  EXPECT_EQ(a.output(), b.output());
  for (std::size_t k = 0; k < a.trace.size(); ++k)
    EXPECT_EQ(a.trace[k], b.trace[k]) << "trace slot " << k;
}

/// Executes `program` on `inputs` through the executor's plan cache into
/// `out`, refilling its trace slots in place.
void runCached(nd::Executor& executor, const nd::Program& program,
               const std::vector<nd::Value>& inputs, nd::ExecResult& out) {
  nd::executePlan(executor.planFor(program, nd::signatureOf(inputs)), inputs,
                  out);
}

}  // namespace

// ------------------------------------------------------------ Value -------

TEST(ValueInPlace, SetIntKeepsListBufferAlive) {
  nd::Value v(List{1, 2, 3, 4, 5, 6, 7, 8});
  const std::int32_t* data = v.asList().data();
  v.setInt(42);
  EXPECT_EQ(v, nd::Value(42));
  // Retargeting back to a list of no larger size must reuse the retained
  // heap buffer — this is the arena property the executor relies on.
  List& list = v.makeList();
  list.assign({9, 8, 7});
  EXPECT_EQ(v, nd::Value(List{9, 8, 7}));
  EXPECT_EQ(v.asList().data(), data);
}

TEST(ValueInPlace, CopyAssignRefillsInPlace) {
  nd::Value dst(List{1, 2, 3, 4, 5, 6, 7, 8});
  const std::int32_t* data = dst.asList().data();
  const nd::Value smaller(List{4, 5});
  dst = smaller;  // copy-assign (a temporary would move and steal storage)
  EXPECT_EQ(dst, smaller);
  EXPECT_EQ(dst.asList().data(), data);  // capacity reused, no realloc
  const nd::Value seven(7);
  dst = seven;
  EXPECT_EQ(dst, nd::Value(7));
  EXPECT_TRUE(dst.isInt());
}

TEST(ValueInPlace, EqualityIgnoresDeadStorage) {
  nd::Value a(List{1, 2, 3});
  a.setInt(5);  // list storage retained but dead
  EXPECT_EQ(a, nd::Value(5));
  EXPECT_NE(a, nd::Value(List{1, 2, 3}));
}

// ------------------------------------------------- applyFunctionInto ------

TEST(ApplyFunctionInto, MatchesApplyFunctionForEveryFunction) {
  const nd::Value intArg(3);
  const nd::Value listA(List{5, -2, 0, 7, -9, 2});
  const nd::Value listB(List{1, 4, -3});
  for (std::size_t id = 0; id < nd::kNumFunctions; ++id) {
    const auto f = static_cast<nd::FuncId>(id);
    const auto& info = nd::functionInfo(f);
    std::vector<nd::Value> args;
    std::vector<const nd::Value*> ptrs;
    for (std::size_t slot = 0; slot < info.arity; ++slot) {
      if (info.argTypes[slot] == nd::Type::Int) {
        args.push_back(intArg);
      } else {
        args.push_back(slot == 0 ? listA : listB);
      }
    }
    for (const auto& a : args) ptrs.push_back(&a);

    const nd::Value expected = nd::applyFunction(
        f, std::span<const nd::Value>(args.data(), args.size()));
    // Dirty destination: the in-place path must fully overwrite retained
    // state from a previous (larger) result.
    nd::Value out(List{99, 99, 99, 99, 99, 99, 99, 99, 99, 99});
    nd::applyFunctionInto(
        f, std::span<const nd::Value* const>(ptrs.data(), ptrs.size()), out);
    EXPECT_EQ(out, expected) << info.name;
  }
}

// ------------------------------------------------------- plan cache -------

TEST(Executor, CachedPlanMatchesFreshRunOnRandomPrograms) {
  Rng rng(7);
  const nd::Generator gen;
  nd::Executor executor;
  nd::ExecResult pooled;  // reused across every iteration: the arena path
  for (int iter = 0; iter < 300; ++iter) {
    const bool withInt = iter % 2 == 0;
    nd::InputSignature sig = {nd::Type::List};
    if (withInt) sig.push_back(nd::Type::Int);
    const std::size_t length = 1 + static_cast<std::size_t>(rng.uniform(8));
    const auto prog = gen.randomProgram(length, sig, rng);
    ASSERT_TRUE(prog.has_value());
    const auto inputs = gen.randomInputs(sig, rng);

    const nd::ExecResult fresh = nd::run(*prog, inputs);
    runCached(executor, *prog, inputs, pooled);
    expectSameResult(pooled, fresh);
    EXPECT_EQ(nd::eval(*prog, inputs), fresh.output());
  }
}

TEST(Executor, PlanIsCompiledOncePerProgramAndSignature) {
  Rng rng(11);
  const nd::Generator gen;
  const nd::InputSignature sig = {nd::Type::List};
  const auto prog = gen.randomProgram(5, sig, rng);
  ASSERT_TRUE(prog.has_value());

  nd::Executor executor;
  nd::ExecResult out;
  for (int i = 0; i < 10; ++i) {
    const auto inputs = gen.randomInputs(sig, rng);
    runCached(executor, *prog, inputs, out);
  }
  EXPECT_EQ(executor.planCompiles(), 1u);
  EXPECT_EQ(executor.planCacheSize(), 1u);

  // Same program under a different signature is a different plan.
  const nd::InputSignature sig2 = {nd::Type::List, nd::Type::Int};
  std::vector<nd::Value> inputs2 = {nd::Value(List{1, 2, 3}), nd::Value(2)};
  runCached(executor, *prog, inputs2, out);
  EXPECT_EQ(executor.planCompiles(), 2u);
}

TEST(Executor, PooledStorageNeverLeaksBetweenPrograms) {
  // A long list-heavy program followed by a short int-producing one: the
  // pooled trace must shrink exactly and dead list storage must not bleed
  // into results.
  const auto big = nd::Program::fromString("MAP(*2) | SORT | REVERSE");
  const auto small = nd::Program::fromString("SUM");
  ASSERT_TRUE(big && small);
  const std::vector<nd::Value> inputs = {nd::Value(List{3, 1, 2})};

  nd::Executor executor;
  nd::ExecResult pooled;
  runCached(executor, *big, inputs, pooled);
  ASSERT_EQ(pooled.trace.size(), 3u);
  runCached(executor, *small, inputs, pooled);
  ASSERT_EQ(pooled.trace.size(), 1u);
  EXPECT_EQ(pooled.output(), nd::Value(6));
  expectSameResult(pooled, nd::run(*small, inputs));
}

// --------------------------------------------------------- evaluator ------

TEST(SpecEvaluator, RecycledEvaluationsMatchFreshOnes) {
  Rng rng(13);
  const nd::Generator gen;
  const auto tc = gen.randomTestCase(4, 5, false, rng);
  ASSERT_TRUE(tc.has_value());

  nc::SearchBudget budgetA(100000), budgetB(100000);
  nc::SpecEvaluator pooledEval(tc->spec, budgetA);
  nc::SpecEvaluator freshEval(tc->spec, budgetB);

  const nd::InputSignature sig = tc->spec.signature();
  for (int round = 0; round < 20; ++round) {
    const auto prog = gen.randomProgram(4, sig, rng);
    ASSERT_TRUE(prog.has_value());
    auto a = pooledEval.evaluate(*prog);
    auto b = freshEval.evaluate(*prog);
    ASSERT_TRUE(a.has_value() && b.has_value());
    EXPECT_EQ(a->satisfied, b->satisfied);
    ASSERT_EQ(a->runs.size(), b->runs.size());
    for (std::size_t j = 0; j < a->runs.size(); ++j) {
      expectSameResult(a->runs[j], b->runs[j]);
      // Ground truth: a fresh interpreter run.
      expectSameResult(a->runs[j],
                       nd::run(*prog, tc->spec.examples[j].inputs));
    }
    // Only the pooled evaluator recycles; parity must hold regardless.
    pooledEval.recycle(std::move(*a));
  }
  EXPECT_EQ(budgetA.used(), budgetB.used());
}

TEST(SpecEvaluator, FingerprintDedupPreservesBudgetSemantics) {
  Rng rng(17);
  const nd::Generator gen;
  const auto tc = gen.randomTestCase(3, 4, false, rng);
  ASSERT_TRUE(tc.has_value());
  const nd::InputSignature sig = tc->spec.signature();

  std::vector<nd::Program> progs;
  for (int i = 0; i < 5; ++i) progs.push_back(*gen.randomProgram(3, sig, rng));

  nc::SearchBudget budget(100000);
  nc::SpecEvaluator evaluator(tc->spec, budget);
  for (const auto& p : progs) ASSERT_TRUE(evaluator.evaluate(p).has_value());
  EXPECT_EQ(budget.used(), progs.size());
  // Re-examinations are free, in any API.
  for (const auto& p : progs) ASSERT_TRUE(evaluator.evaluate(p).has_value());
  for (const auto& p : progs) ASSERT_TRUE(evaluator.check(p).has_value());
  EXPECT_EQ(budget.used(), progs.size());
}

TEST(SpecEvaluator, CheckAgreesWithSatisfiesSpec) {
  Rng rng(19);
  const nd::Generator gen;
  const auto tc = gen.randomTestCase(3, 5, false, rng);
  ASSERT_TRUE(tc.has_value());
  const nd::InputSignature sig = tc->spec.signature();

  nc::SearchBudget budget(100000);
  nc::SpecEvaluator evaluator(tc->spec, budget, /*dedup=*/false);
  // The target program itself must check out; random ones must agree with
  // the reference satisfiesSpec.
  EXPECT_TRUE(evaluator.check(tc->program).value());
  for (int i = 0; i < 50; ++i) {
    const auto p = gen.randomProgram(3, sig, rng);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(evaluator.check(*p).value(),
              nd::satisfiesSpec(*p, tc->spec));
  }
}

TEST(SpecEvaluator, VerdictsPastTheLaneLimitMatchEval) {
  // A spec one example past the lane limit: no lane view serves it, so
  // check() and evaluate() run on the scalar engine alone and must agree
  // with the reference interpreter example by example.
  Rng rng(23);
  const nd::Generator gen;
  constexpr std::size_t kExamples = nd::SoATrace::kMaxLanes + 1;
  const auto tc = gen.randomTestCase(3, kExamples, false, rng);
  ASSERT_TRUE(tc.has_value());
  ASSERT_EQ(tc->spec.size(), kExamples);
  const nd::InputSignature sig = tc->spec.signature();

  nc::SearchBudget budget(100000);
  nc::SpecEvaluator evaluator(tc->spec, budget, /*dedup=*/false);
  EXPECT_FALSE(evaluator.laneViewCapable());
  std::vector<nd::Program> progs = {tc->program};
  for (int i = 0; i < 60; ++i) {
    const auto p = gen.randomProgram(1 + rng.uniform(4), sig, rng);
    ASSERT_TRUE(p.has_value());
    progs.push_back(*p);
  }
  std::size_t satisfied = 0;
  for (const nd::Program& p : progs) {
    bool expected = true;
    for (const auto& ex : tc->spec.examples)
      expected = expected && nd::eval(p, ex.inputs) == ex.output;
    satisfied += expected;
    EXPECT_EQ(evaluator.check(p).value(), expected) << p.toString();
    const auto ev = evaluator.evaluate(p);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->satisfied, expected) << p.toString();
    ASSERT_EQ(ev->runs.size(), kExamples);
    for (std::size_t j = 0; j < kExamples; ++j)
      expectSameResult(ev->runs[j], nd::run(p, tc->spec.examples[j].inputs));
  }
  EXPECT_GE(satisfied, 1u);  // the target program itself

  // The target against a spec with one expected output perturbed: both
  // verdicts turn false whichever example it is, the last one included.
  for (const std::size_t bad : {std::size_t{0}, kExamples - 1}) {
    nd::Spec spec = tc->spec;
    nd::Value& out = spec.examples[bad].output;
    if (out.isInt())
      out.setInt(out.asInt() ^ 1);
    else
      out.makeList().push_back(1);
    nc::SearchBudget fresh(100);
    nc::SpecEvaluator perturbed(spec, fresh, /*dedup=*/false);
    EXPECT_FALSE(perturbed.check(tc->program).value()) << "example " << bad;
    EXPECT_FALSE(perturbed.evaluate(tc->program)->satisfied)
        << "example " << bad;
  }
}

// ----------------------------------------------------- lane executor ------

namespace {

/// Runs `program` over `examples` random input sets through the lane view
/// and the scalar statement-major path, and asserts cell-for-cell equality.
/// Counts beyond one lane execution must be refused (those specs run on the
/// scalar path). Shared workhorse for the tail-count sweep below.
void expectLanesMatchScalar(const nd::Program& program,
                            const nd::InputSignature& sig,
                            std::size_t examples, Rng& rng) {
  const nd::Generator gen;
  nd::Executor executor;

  std::vector<std::vector<nd::Value>> inputs;
  std::vector<const std::vector<nd::Value>*> inputSets;
  inputs.reserve(examples);
  for (std::size_t j = 0; j < examples; ++j) {
    inputs.push_back(gen.randomInputs(sig, rng));
    inputSets.push_back(&inputs[j]);
  }

  const nd::ExecPlan& plan = executor.planFor(program, sig);
  nd::LaneTraceView view;
  if (examples > nd::SoATrace::kMaxLanes) {
    ASSERT_FALSE(
        executor.executeMultiView(plan, inputSets.data(), examples, view));
    return;
  }
  std::vector<nd::ExecResult> scalar(examples);
  nd::executePlanMulti(plan, inputSets.data(), examples, scalar.data());
  ASSERT_TRUE(
      executor.executeMultiView(plan, inputSets.data(), examples, view));
  ASSERT_EQ(view.steps, program.length());
  for (std::size_t j = 0; j < examples; ++j) {
    for (std::size_t k = 0; k < view.steps; ++k) {
      const nd::Value& v = scalar[j].trace[k];
      if (view.stepType(k) == nd::Type::Int) {
        ASSERT_EQ(nd::Value{view.intAt(k, j)}, v)
            << "example " << j << " of " << examples << ", trace slot " << k
            << ": " << program.toString();
      } else {
        std::size_t len = 0;
        const std::int32_t* seg = view.listAt(k, j, &len);
        ASSERT_EQ(nd::Value{List(seg, seg + len)}, v)
            << "example " << j << " of " << examples << ", trace slot " << k
            << ": " << program.toString();
      }
    }
    ASSERT_TRUE(view.outputEquals(j, scalar[j].output()))
        << "example " << j << " of " << examples << ": "
        << program.toString();
  }
}

}  // namespace

TEST(LaneExecutor, TailCountsMatchScalar) {
  // Example counts straddling both boundaries: the SIMD vector width (8
  // int32 per AVX2 register) and the lane limit (SoATrace::kMaxLanes = 32):
  // 1, lane-1, lane, lane+1, 2*lane+3 for each.
  constexpr std::size_t kVec = 8;
  constexpr std::size_t kGroup = nd::SoATrace::kMaxLanes;
  const std::size_t counts[] = {1,          kVec - 1,   kVec,
                                kVec + 1,   2 * kVec + 3, kGroup - 1,
                                kGroup,     kGroup + 1, 2 * kGroup + 3};

  Rng rng(29);
  const nd::Generator gen;
  for (const std::size_t examples : counts) {
    for (int rep = 0; rep < 8; ++rep) {
      const nd::InputSignature sig = gen.randomSignature(rng);
      const auto prog =
          gen.randomProgram(1 + rng.uniform(6), sig, rng);
      ASSERT_TRUE(prog.has_value());
      expectLanesMatchScalar(*prog, sig, examples, rng);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(LaneExecutor, MixedIntAndListOutputsUnderSoA) {
  // A fixed pipeline that interleaves list- and int-producing statements,
  // so the SoA trace carries both payload kinds side by side and the view
  // must pick the right one per statement: list, int, list
  // (TAKE consumes the int), int, list (again via default/int args), int.
  const auto prog = nd::Program::fromString(
      "MAP(*2) | MAXIMUM | TAKE | COUNT(>0) | SCANL1(+) | SUM");
  ASSERT_TRUE(prog.has_value());
  const nd::InputSignature sig = {nd::Type::List, nd::Type::Int};
  Rng rng(31);
  for (const std::size_t examples : {1u, 7u, 9u, 33u, 67u}) {
    expectLanesMatchScalar(*prog, sig, examples, rng);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(LaneTraceView, ViewMatchesScalarTraceCellByCell) {
  // The no-scatter view path must expose exactly the cells the scalar
  // engine scatters: statement k, lane j reads back the same int or the
  // same list segment, and outputEquals agrees with the scalar output.
  Rng rng(37);
  const nd::Generator gen;
  nd::Executor executor;
  for (int rep = 0; rep < 20; ++rep) {
    const nd::InputSignature sig = gen.randomSignature(rng);
    const auto prog = gen.randomProgram(1 + rng.uniform(6), sig, rng);
    ASSERT_TRUE(prog.has_value());
    const std::size_t examples = 1 + rng.uniform(nd::SoATrace::kMaxLanes);
    std::vector<std::vector<nd::Value>> inputs;
    std::vector<const std::vector<nd::Value>*> inputSets;
    inputs.reserve(examples);
    for (std::size_t j = 0; j < examples; ++j) {
      inputs.push_back(gen.randomInputs(sig, rng));
      inputSets.push_back(&inputs[j]);
    }
    const nd::ExecPlan& plan = executor.planFor(*prog, sig);
    std::vector<nd::ExecResult> scalar(examples);
    nd::executePlanMulti(plan, inputSets.data(), examples, scalar.data());

    nd::LaneTraceView view;
    ASSERT_TRUE(
        executor.executeMultiView(plan, inputSets.data(), examples, view));
    ASSERT_EQ(view.steps, prog->length());
    ASSERT_EQ(view.lanes, examples);
    for (std::size_t k = 0; k < view.steps; ++k) {
      for (std::size_t j = 0; j < examples; ++j) {
        const nd::Value& v = scalar[j].trace[k];
        if (view.stepType(k) == nd::Type::Int) {
          ASSERT_TRUE(v.isInt());
          EXPECT_EQ(view.intAt(k, j), v.asInt());
        } else {
          ASSERT_FALSE(v.isInt());
          std::size_t len = 0;
          const std::int32_t* seg = view.listAt(k, j, &len);
          ASSERT_EQ(len, v.asList().size());
          for (std::size_t t = 0; t < len; ++t)
            EXPECT_EQ(seg[t], v.asList()[t]) << "slot " << k << " lane " << j;
        }
      }
    }
    for (std::size_t j = 0; j < examples; ++j) {
      const nd::Value& out = scalar[j].output();
      EXPECT_TRUE(view.outputEquals(j, out));
      // A value guaranteed different — same type, perturbed contents — and
      // a cross-type probe must both miss.
      if (out.isInt()) {
        EXPECT_FALSE(view.outputEquals(
            j, nd::Value{static_cast<std::int32_t>(out.asInt() + 1)}));
        EXPECT_FALSE(view.outputEquals(j, nd::Value{List{}}));
      } else {
        List longer = out.asList();
        longer.push_back(1);
        EXPECT_FALSE(view.outputEquals(j, nd::Value{longer}));
        EXPECT_FALSE(view.outputEquals(j, nd::Value{0}));
      }
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(LaneTraceView, EmptyProgramAndLaneLimits) {
  nd::Executor executor;
  const nd::InputSignature sig = {nd::Type::List};
  const nd::Program empty;
  const nd::ExecPlan& plan = executor.planFor(empty, sig);
  const std::vector<nd::Value> in = {nd::Value{List{1, 2, 3}}};
  const std::vector<nd::Value>* sets[] = {&in};

  // An empty plan yields an empty view whose output is the default list,
  // matching ExecResult::output() on the scalar path's empty trace — whose
  // retained slots are dropped even when a previous program filled them.
  nd::LaneTraceView view;
  ASSERT_TRUE(executor.executeMultiView(plan, sets, 1, view));
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.steps, 0u);
  std::vector<nd::ExecResult> scalar(1);
  scalar[0].trace.assign(2, nd::Value{7});
  nd::executePlanMulti(plan, sets, 1, scalar.data());
  EXPECT_TRUE(scalar[0].trace.empty());
  EXPECT_EQ(scalar[0].output(), nd::Value{List{}});
  EXPECT_TRUE(view.outputEquals(0, scalar[0].output()));
  EXPECT_FALSE(view.outputEquals(0, nd::Value{List{1}}));
  EXPECT_FALSE(view.outputEquals(0, nd::Value{0}));

  // The view holds one lane execution: counts beyond kMaxLanes (and the
  // degenerate zero) are refused so callers fall back to the scalar path.
  std::vector<std::vector<nd::Value>> many(nd::SoATrace::kMaxLanes + 1, in);
  std::vector<const std::vector<nd::Value>*> manySets;
  for (auto& m : many) manySets.push_back(&m);
  EXPECT_FALSE(executor.executeMultiView(plan, manySets.data(),
                                         manySets.size(), view));
  EXPECT_FALSE(executor.executeMultiView(plan, sets, 0, view));
}

TEST(Executor, ResetCountersClearsDeltasButKeepsPlanCache) {
  Rng rng(37);
  const nd::Generator gen;
  const nd::InputSignature sig = {nd::Type::List};
  const auto prog = gen.randomProgram(5, sig, rng);
  ASSERT_TRUE(prog.has_value());

  nd::Executor executor;
  nd::ExecResult out;
  for (int i = 0; i < 4; ++i)
    runCached(executor, *prog, gen.randomInputs(sig, rng), out);
  EXPECT_EQ(executor.planCompiles(), 1u);
  EXPECT_EQ(executor.planLookups(), 4u);
  EXPECT_EQ(executor.planCacheSize(), 1u);

  // The per-job delta reset: counters go to zero, the cache stays warm.
  executor.resetCounters();
  EXPECT_EQ(executor.planCompiles(), 0u);
  EXPECT_EQ(executor.planLookups(), 0u);
  EXPECT_EQ(executor.planCacheSize(), 1u);

  // Re-running the same program is a pure cache hit: lookups advance from
  // zero, compiles stay zero — exactly the delta a service worker reports.
  runCached(executor, *prog, gen.randomInputs(sig, rng), out);
  EXPECT_EQ(executor.planCompiles(), 0u);
  EXPECT_EQ(executor.planLookups(), 1u);

  // A genuinely new signature after the reset counts one compile.
  const nd::InputSignature sig2 = {nd::Type::List, nd::Type::Int};
  std::vector<nd::Value> inputs2 = {nd::Value(List{1, 2, 3}), nd::Value(2)};
  runCached(executor, *prog, inputs2, out);
  EXPECT_EQ(executor.planCompiles(), 1u);
  EXPECT_EQ(executor.planCacheSize(), 2u);
}

// ------------------------------------------------- blocked NN matmul ------

TEST(BlockedMatmul, BitwiseIdenticalToScalarAccumulation) {
  Rng rng(23);
  const std::size_t in = 13, out = 17;
  nn::Matrix w(in, out);
  for (std::size_t i = 0; i < w.size(); ++i)
    w.at(i) = static_cast<float>(rng.uniformReal(-1, 1));

  for (std::size_t batch = 1; batch <= 9; ++batch) {
    std::vector<float> x(batch * in), zBlocked(batch * out),
        zScalar(batch * out);
    std::vector<std::uint8_t> active(batch, 1);
    for (std::size_t i = 0; i < x.size(); ++i) {
      // Sprinkle exact zeros: the scalar kernel's skip-on-zero must be
      // reproduced exactly by the blocked path.
      x[i] = (i % 5 == 0) ? 0.0f
                          : static_cast<float>(rng.uniformReal(-2, 2));
    }
    for (std::size_t i = 0; i < batch * out; ++i)
      zBlocked[i] = zScalar[i] = static_cast<float>(rng.uniformReal(-1, 1));
    if (batch > 2) active[batch / 2] = 0;  // one masked lane

    nn::addVecMatBatch(x.data(), in, batch, in, w, zBlocked.data(), out,
                       active.data());
    // Scalar reference: per-row accumulation in row order via the public
    // single-row building block (batch of one).
    for (std::size_t b = 0; b < batch; ++b) {
      if (active[b] == 0) continue;
      nn::addVecMatBatch(x.data() + b * in, in, 1, in, w,
                         zScalar.data() + b * out, out);
    }
    // Masked lanes must be untouched; all lanes bitwise equal.
    EXPECT_EQ(0, std::memcmp(zBlocked.data(), zScalar.data(),
                             batch * out * sizeof(float)))
        << "batch " << batch;
  }
}
