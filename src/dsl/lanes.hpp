// Structure-of-arrays trace store and the lane-parallel plan executor.
//
// `executePlanMulti` (interpreter.hpp) is statement-major: one compiled step
// is applied to all m spec examples back to back. The lane executor takes
// the final step and transposes the *storage* too: instead of m separate
// `ExecResult` traces of `Value`s, one `SoATrace` holds, per plan slot, a
// contiguous block of per-example ("lane") int payloads plus per-example
// list segments living in one shared arena with common offset/length
// tables. Concatenating every lane's list for a statement into one dense
// block is what lets the elementwise op families (MAP, ZIPWITH) run as a
// single SIMD loop over all examples at once (simd.hpp), instead of m short
// loops whose tails dominate at the paper's list lengths (~5-10 elements).
//
// The lane executor has one job: producing the trace view the NN fitness
// encoders read (LaneTraceView). Every other execution — Value traces,
// outputs, Definition 3.1 equivalence checks — runs through the scalar
// `executePlanMulti` / `executePlan`, which is also the lane executor's
// oracle.
//
// Slot layout of one SoATrace (lanes = examples in the current execution):
//
//           lane 0   lane 1  ...  lane L-1
//   slot 0  [ 0    |  0     | ... | 0     ]   Int default (paper: 0)
//   slot 1  [ ----- empty list lanes ---- ]   List default ([])
//   slot 2  [ ingested program input 0    ]
//   ...          ...
//   slot 2+I-1 [ ingested input I-1       ]
//   slot 2+I   [ outputs of statement 0   ]   <- ExecStep k writes 2+I+k
//   ...          ...
//
// Int slots store lane j at ints[slot*lanes + j]. List slots store lane j as
// arena[off[slot*lanes+j] .. +len[slot*lanes+j]); every producer writes its
// lanes *densely* (lane j+1's segment starts where lane j's ends), so a
// whole slot is also readable as one contiguous block of listTotal(slot)
// elements starting at off[slot*lanes] — the dense invariant the SIMD
// kernels rely on. The arena only ever grows (high-water mark), so steady
// state execution allocates nothing, mirroring the Value-slot reuse of the
// scalar path.
//
// One execution covers 1..kMaxLanes examples, one lane each (no masking —
// every block op takes an explicit element count). Nothing is scattered
// back into `Value`s: consumers read the executed blocks in place through a
// LaneTraceView and copy what they keep before the next execution.
// tests/test_fuzz_differential.cpp pins every view cell to the scalar
// trace over 12k random programs in the list and str domains.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "dsl/functions.hpp"
#include "dsl/value.hpp"

namespace netsyn::dsl {

struct ExecPlan;
struct ExecResult;

/// memcpy for lane segments that tolerates empty blocks: an empty list's
/// vector data() — and an empty arena's base pointer — may be null, and
/// memcpy's pointer arguments are declared nonnull even at size 0.
inline void copyLane(std::int32_t* dst, const std::int32_t* src,
                     std::size_t n) {
  if (n) std::memcpy(dst, src, n * sizeof(std::int32_t));
}

/// Structure-of-arrays execution trace of one lane execution. See the file
/// comment for the slot layout and the dense invariant.
struct SoATrace {
  /// Most examples one execution holds. This covers any realistic spec
  /// (the paper uses m=5..10 examples); larger specs run on the scalar
  /// executor.
  static constexpr std::size_t kMaxLanes = 32;

  /// Reserved leading slots: 0 = Int default, 1 = List default. Chosen so a
  /// Default ArgSource's payload index (0 = Int, 1 = List, assigned by
  /// compilePlanInto) is directly the slot id.
  static constexpr std::uint32_t kIntDefaultSlot = 0;
  static constexpr std::uint32_t kListDefaultSlot = 1;
  static constexpr std::uint32_t kFixedSlots = 2;

  std::size_t lanes = 0;  ///< examples in the current execution
  std::size_t slots = 0;  ///< kFixedSlots + inputs + plan length

  std::vector<std::int32_t> ints;  ///< int payloads, [slot*lanes + lane]
  std::vector<std::uint32_t> off;  ///< arena offset of each list segment
  std::vector<std::uint32_t> len;  ///< element count of each list segment
  std::vector<std::int32_t> arena; ///< list elements, high-water storage
  std::size_t used = 0;            ///< arena elements in use

  // Pinned-ingest bookkeeping (see executePlanMultiLanesView's reuseIngest):
  // an ingest can be kept across calls when the caller guarantees
  // the example inputs are byte-stable — the spec of a search never changes,
  // so the transpose is paid once per spec instead of once per candidate.
  // The pinned input payloads occupy arena[0, pinnedUsed); statement
  // outputs are written above that watermark, and the input slots' table
  // rows are left untouched by every producer, so a matching later call
  // (same inputs array identity, lane count, and input count) skips the
  // ingest phase entirely. Any non-matching ingest invalidates the pin.
  const void* pinKey = nullptr;  ///< inputs array identity, null = no pin
  std::size_t pinLanes = 0;
  std::size_t pinInputs = 0;
  std::size_t pinnedUsed = 0;  ///< arena watermark protecting pinned inputs

  std::size_t seededLanes = 0;  ///< lane count the default slots are seeded for

  /// Re-shapes for an execution, keeping capacity (and any pinned ingest).
  /// Seeds the two default slots (int lanes = 0, list lanes empty) when the
  /// lane count changed — their rows are never overwritten, so an unchanged
  /// shape keeps them; all other slots are written by the ingest/execute
  /// phases before any plan can read them.
  void reset(std::size_t laneCount, std::size_t slotCount) {
    lanes = laneCount;
    slots = slotCount;
    used = pinnedUsed;
    const std::size_t cells = lanes * slots;
    if (ints.size() < cells) {
      ints.resize(cells);
      off.resize(cells);
      len.resize(cells);
    }
    if (seededLanes != lanes) {
      for (std::size_t j = 0; j < lanes; ++j) {
        ints[kIntDefaultSlot * lanes + j] = 0;
        off[kListDefaultSlot * lanes + j] = 0;
        len[kListDefaultSlot * lanes + j] = 0;
      }
      seededLanes = lanes;
    }
  }

  std::int32_t* intBlock(std::uint32_t slot) {
    return ints.data() + slot * lanes;
  }
  const std::int32_t* intBlock(std::uint32_t slot) const {
    return ints.data() + slot * lanes;
  }
  std::uint32_t* offBlock(std::uint32_t slot) { return off.data() + slot * lanes; }
  std::uint32_t* lenBlock(std::uint32_t slot) { return len.data() + slot * lanes; }
  const std::uint32_t* offBlock(std::uint32_t slot) const {
    return off.data() + slot * lanes;
  }
  const std::uint32_t* lenBlock(std::uint32_t slot) const {
    return len.data() + slot * lanes;
  }

  /// Total elements across all lanes of a list slot (== the dense block's
  /// length, by the dense invariant).
  std::size_t listTotal(std::uint32_t slot) const {
    const std::uint32_t* l = lenBlock(slot);
    std::size_t total = 0;
    for (std::size_t j = 0; j < lanes; ++j) total += l[j];
    return total;
  }

  /// Reserves `n` more arena elements and returns the write cursor.
  /// May reallocate: producers must call grow() for their full output bound
  /// BEFORE taking any pointer into the arena (argument blocks included).
  /// grow() itself does not advance `used` — producers set their off/len
  /// entries and bump `used` (or call finishDense) as they fill.
  std::int32_t* grow(std::size_t n) {
    if (arena.size() < used + n)
      arena.resize(std::max(used + n, arena.size() * 2));
    return arena.data() + used;
  }

  /// For producers that filled lenBlock(slot) and wrote their elements
  /// densely at grow()'s cursor: assigns the offsets and advances `used`.
  void finishDense(std::uint32_t slot) {
    std::uint32_t* o = offBlock(slot);
    const std::uint32_t* l = lenBlock(slot);
    std::uint32_t cursor = static_cast<std::uint32_t>(used);
    for (std::size_t j = 0; j < lanes; ++j) {
      o[j] = cursor;
      cursor += l[j];
    }
    used = cursor;
  }
};

/// Zero-copy, per-statement view over one lane execution. This is the seam
/// that lets trace consumers (the NN fitness encoders) read the SoA blocks
/// in place instead of per-example `Value`s: `executePlanMultiLanesView`
/// runs the plan and binds one of these over the scratch trace. Statement
/// k's lane j is `intAt(k, j)` for Int-typed steps or the arena segment
/// `listAt(k, j, &len)` for List-typed ones.
///
/// The view aliases the executor's scratch `SoATrace`: it is valid only
/// until the next execution (or reset) of that trace, so consume-or-copy
/// before evaluating the next candidate.
struct LaneTraceView {
  const SoATrace* trace = nullptr;
  const ExecPlan* plan = nullptr;
  std::uint32_t base = 0;  ///< slot id of statement 0 (kFixedSlots + inputs)
  std::size_t lanes = 0;   ///< examples, one per lane
  std::size_t steps = 0;   ///< plan length (0 for the empty program)

  bool empty() const { return steps == 0; }

  /// Statement k's int lane block (only when stepType(k) == Type::Int).
  const std::int32_t* intLanes(std::size_t k) const {
    return trace->intBlock(base + static_cast<std::uint32_t>(k));
  }
  std::int32_t intAt(std::size_t k, std::size_t lane) const {
    return intLanes(k)[lane];
  }

  /// Statement k, lane `lane`'s list segment: arena pointer + element count
  /// (only when stepType(k) == Type::List).
  const std::int32_t* listAt(std::size_t k, std::size_t lane,
                             std::size_t* lenOut) const {
    const std::uint32_t slot = base + static_cast<std::uint32_t>(k);
    *lenOut = trace->lenBlock(slot)[lane];
    return trace->arena.data() + trace->offBlock(slot)[lane];
  }

  // Defined inline in interpreter.hpp (they need ExecStep, which this header
  // only forward-declares; every view consumer already includes the
  // interpreter).

  /// Return type of statement k.
  Type stepType(std::size_t k) const;
  /// True iff the final statement's output in `lane` equals `expected`. An
  /// empty plan compares against the default list, like ExecResult::output().
  bool outputEquals(std::size_t lane, const Value& expected) const;
};

/// Executes `plan` on `count` input tuples, one per lane, through `trace`
/// and binds `view` over the executed blocks; nothing is materialized as a
/// `Value`. Requires 1 <= count <= SoATrace::kMaxLanes. Every cell equals
/// the scalar executePlanMulti's trace slot — the saturating integer
/// kernels have no backend-dependent rounding — which the differential fuzz
/// suite pins. `trace` is caller-owned scratch (the Executor keeps one) so
/// steady-state execution allocates nothing. The view is valid until
/// `trace` is next executed or reset.
///
/// `reuseIngest` opts into the pinned-ingest fast path: pass true ONLY when
/// `inputSets[0..count)` and every pointed-to input tuple are guaranteed
/// byte-stable since the previous reuseIngest call with the same array
/// (identity, not content, is what the pin checks — an owner like
/// SpecEvaluator whose spec is immutable for the search's lifetime).
void executePlanMultiLanesView(const ExecPlan& plan,
                               const std::vector<Value>* const* inputSets,
                               std::size_t count, LaneTraceView& view,
                               SoATrace& trace, bool reuseIngest = false);

}  // namespace netsyn::dsl
