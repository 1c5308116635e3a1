#include "dsl/interpreter.hpp"

#include <cassert>

#include "dsl/simd.hpp"

namespace netsyn::dsl {
namespace {

/// Argument sources for Default plan entries, indexed by the type tag the
/// compiler stored in ArgSource::index (0 = Int, 1 = List). The list
/// default is the one shared kEmptyListValue instance.
const Value kIntDefault{std::int32_t{0}};
const Value* const kDefaults[2] = {&kIntDefault, &kEmptyListValue};

/// Shared resolution core: computes each statement's StatementPlan and
/// hands it to `emit(k, plan)`. Single source of truth for computeArgPlan
/// (dead-code analysis) and compilePlanInto (execution), so the two can
/// never drift.
template <typename Emit>
void resolveArgs(const Program& program, const InputSignature& inputs,
                 Emit&& emit) {
  // Return types of all statements, computed once: the source scans below
  // consult them O(L) times per slot, and a table lookup beats a repeated
  // functionInfo call. Stack buffer for every realistic program length.
  constexpr std::size_t kMaxStackLen = 128;
  std::array<Type, kMaxStackLen> stackTypes;
  std::vector<Type> heapTypes;
  Type* stmtType = stackTypes.data();
  if (program.length() > kMaxStackLen) {
    heapTypes.resize(program.length());
    stmtType = heapTypes.data();
  }
  for (std::size_t k = 0; k < program.length(); ++k)
    stmtType[k] = functionInfo(program.at(k)).returnType;
  const auto typeOf = [&](const ArgSource& s) {
    return s.kind == ArgSource::Kind::Statement ? stmtType[s.index]
                                                : inputs[s.index];
  };

  for (std::size_t k = 0; k < program.length(); ++k) {
    const FunctionInfo& info = functionInfo(program.at(k));
    StatementPlan sp;
    sp.arity = info.arity;

    // Candidate sources in recency order: statements k-1..0, then program
    // inputs from last to first (inputs behave as if executed, in order,
    // before the first statement).
    auto forEachSource = [&](auto&& visit) {
      for (std::size_t j = k; j-- > 0;) {
        if (visit(ArgSource{ArgSource::Kind::Statement,
                            static_cast<std::uint16_t>(j)}))
          return;
      }
      for (std::size_t j = inputs.size(); j-- > 0;) {
        if (visit(ArgSource{ArgSource::Kind::Input,
                            static_cast<std::uint16_t>(j)}))
          return;
      }
    };

    // Each slot takes the most recent matching source not already consumed
    // by an earlier slot of this statement.
    std::array<bool, kMaxArity> filled{};
    for (std::size_t slot = 0; slot < info.arity; ++slot) {
      const Type want = info.argTypes[slot];
      forEachSource([&](const ArgSource& src) {
        if (typeOf(src) != want) return false;
        for (std::size_t prev = 0; prev < slot; ++prev)
          if (filled[prev] && sp.args[prev] == src) return false;  // consumed
        sp.args[slot] = src;
        filled[slot] = true;
        return true;
      });
    }
    // Unfilled slots: reuse the most recent matching source (duplicate use is
    // allowed when it is the only producer), else the type default.
    for (std::size_t slot = 0; slot < info.arity; ++slot) {
      if (filled[slot]) continue;
      const Type want = info.argTypes[slot];
      sp.args[slot] = ArgSource{};  // Default
      forEachSource([&](const ArgSource& src) {
        if (typeOf(src) != want) return false;
        sp.args[slot] = src;
        return true;
      });
    }
    emit(k, sp);
  }
}

}  // namespace

ArgPlan computeArgPlan(const Program& program, const InputSignature& inputs) {
  ArgPlan plan(program.length());
  resolveArgs(program, inputs,
              [&](std::size_t k, const StatementPlan& sp) { plan[k] = sp; });
  return plan;
}

ExecPlan compilePlan(const Program& program, const InputSignature& inputs) {
  ExecPlan compiled;
  compilePlanInto(program, inputs, compiled);
  return compiled;
}

void compilePlanInto(const Program& program, const InputSignature& inputs,
                     ExecPlan& compiled) {
  compiled.steps.resize(program.length());
  resolveArgs(program, inputs, [&](std::size_t k, const StatementPlan& sp) {
    ExecStep& step = compiled.steps[k];
    step.fn = program.at(k);
    step.arity = sp.arity;
    step.args = sp.args;
    step.body = functionBody(step.fn);
    step.shape = step.body.unary ? ExecStep::Shape::Unary
                 : step.body.intList ? ExecStep::Shape::IntList
                                     : ExecStep::Shape::ListList;
    step.lane = functionLaneKernel(step.fn);
    // Default sources carry the slot's type in `index` (0 = Int, 1 = List)
    // so execution never consults functionInfo for argument types.
    const FunctionInfo& info = functionInfo(step.fn);
    step.ret = info.returnType;
    for (std::size_t slot = 0; slot < step.arity; ++slot) {
      if (step.args[slot].kind == ArgSource::Kind::Default)
        step.args[slot].index =
            info.argTypes[slot] == Type::List ? 1 : 0;
    }
  });
}

void executePlan(const ExecPlan& plan, const std::vector<Value>& inputs,
                 ExecResult& out) {
  const std::size_t n = plan.steps.size();
  out.trace.resize(n);
  const auto resolve = [&](const ArgSource& src) -> const Value* {
    switch (src.kind) {
      case ArgSource::Kind::Statement:
        return &out.trace[src.index];
      case ArgSource::Kind::Input:
        return &inputs[src.index];
      case ArgSource::Kind::Default:
        break;
    }
    return kDefaults[src.index];
  };
  for (std::size_t k = 0; k < n; ++k) {
    const ExecStep& step = plan.steps[k];
    Value& slot = out.trace[k];
    // Direct body call through the pointer compiled into the step: no
    // dispatch-table access, no re-validation (the plan is the type proof).
    switch (step.shape) {
      case ExecStep::Shape::Unary:
        step.body.unary(resolve(step.args[0])->listUnchecked(), slot);
        break;
      case ExecStep::Shape::IntList:
        step.body.intList(resolve(step.args[0])->intUnchecked(),
                          resolve(step.args[1])->listUnchecked(), slot);
        break;
      case ExecStep::Shape::ListList:
        step.body.listList(resolve(step.args[0])->listUnchecked(),
                           resolve(step.args[1])->listUnchecked(), slot);
        break;
    }
  }
}

void executePlanMulti(const ExecPlan& plan,
                      const std::vector<Value>* const* inputSets,
                      std::size_t count, ExecResult* outs) {
  const std::size_t n = plan.steps.size();
  for (std::size_t j = 0; j < count; ++j) outs[j].trace.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const ExecStep& step = plan.steps[k];
    const auto resolve = [&](std::size_t j,
                             const ArgSource& src) -> const Value* {
      switch (src.kind) {
        case ArgSource::Kind::Statement:
          return &outs[j].trace[src.index];
        case ArgSource::Kind::Input:
          return &(*inputSets[j])[src.index];
        case ArgSource::Kind::Default:
          break;
      }
      return kDefaults[src.index];
    };
    switch (step.shape) {
      case ExecStep::Shape::Unary:
        for (std::size_t j = 0; j < count; ++j)
          step.body.unary(resolve(j, step.args[0])->listUnchecked(),
                          outs[j].trace[k]);
        break;
      case ExecStep::Shape::IntList:
        for (std::size_t j = 0; j < count; ++j)
          step.body.intList(resolve(j, step.args[0])->intUnchecked(),
                            resolve(j, step.args[1])->listUnchecked(),
                            outs[j].trace[k]);
        break;
      case ExecStep::Shape::ListList:
        for (std::size_t j = 0; j < count; ++j)
          step.body.listList(resolve(j, step.args[0])->listUnchecked(),
                             resolve(j, step.args[1])->listUnchecked(),
                             outs[j].trace[k]);
        break;
    }
  }
}

std::uint64_t Executor::keyOf(const Program& program,
                              const InputSignature& sig) {
  std::uint64_t h = program.hash();
  h ^= 0xa5;  // domain separator: program bytes vs signature bytes
  h *= 0x100000001b3ULL;
  for (Type t : sig) {
    h ^= static_cast<std::uint64_t>(t) + 1;
    h *= 0x100000001b3ULL;
  }
  return h;
}

const ExecPlan& Executor::planFor(const Program& program,
                                  const InputSignature& sig) {
  const std::uint64_t key = keyOf(program, sig);
  ++lookups_;
  Slot& slot = slots_[key & (kSlots - 1)];
  // Exact hit test: the fingerprint routes to the slot, the stored function
  // sequence + signature confirm identity (collisions recompile, nothing
  // more). The compares are short contiguous byte/enum ranges.
  if (!slot.used || slot.key != key || slot.functions != program.functions() ||
      slot.sig != sig) {
    compilePlanInto(program, sig, slot.plan);  // reuses the slot's storage
    slot.functions.assign(program.functions().begin(),
                          program.functions().end());
    slot.sig.assign(sig.begin(), sig.end());
    if (!slot.used) ++occupied_;
    slot.key = key;
    slot.used = true;
    ++compiles_;
  }
  return slot.plan;
}

const char* Executor::backendName() { return simd::backendName(); }

ExecResult run(const Program& program, const std::vector<Value>& inputs) {
  ExecResult result;
  executePlan(compilePlan(program, signatureOf(inputs)), inputs, result);
  return result;
}

Value eval(const Program& program, const std::vector<Value>& inputs) {
  return run(program, inputs).output();
}

InputSignature signatureOf(const std::vector<Value>& inputs) {
  InputSignature sig;
  sig.reserve(inputs.size());
  for (const Value& v : inputs) sig.push_back(v.type());
  return sig;
}

}  // namespace netsyn::dsl
