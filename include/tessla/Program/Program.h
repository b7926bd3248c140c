//===- tessla/Program/Program.h - Lowered program IR -----------*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fully lowered, backend-neutral form of a specification — the single
/// product of the paper's translation scheme (§III): the calculation
/// section's steps in translation order with the mutability set applied,
/// plus the bookkeeping the triggering section needs (last-value slots,
/// delay scheduling, outputs).
///
/// Both execution backends consume exactly this IR:
///
///   Analysis/Pipeline ──▶ Program::compile ──┬─▶ Runtime/Monitor
///                                            └─▶ CodeGen/CppEmitter
///
/// so the interpreter and the generated C++ agree by construction — there
/// is one lowering, not two.
///
/// Lowering resolves everything the per-event hot path would otherwise
/// re-derive:
///
///  * a **dense value-slot** per event-carrying stream (nil streams share
///    one dead slot), so engine state is indexed by slot, not StreamId;
///  * dense **last slots** for streams used as the first argument of a
///    last, and dense **delay slots** for delay streams — each referencing
///    step carries its slot index directly (no per-event search);
///  * a pre-resolved **opcode** merging the stream operator with its
///    builtin's event semantics, and for lift steps a pre-resolved
///    **function pointer** for the (BuiltinId, InPlace) combination — the
///    interpreter executes one flat dispatch per step instead of nested
///    switches.
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_PROGRAM_PROGRAM_H
#define TESSLA_PROGRAM_PROGRAM_H

#include "tessla/Runtime/BuiltinImpls.h"
#include "tessla/Runtime/Value.h"

#include <atomic>
#include <memory>
#include <mutex>

namespace tessla {

class AnalysisResult;

/// Engine state index. Slots are dense: 0..numValueSlots()-1 address the
/// current-timestamp value of one stream each; nil streams (which never
/// carry events) all map to the dead slot numValueSlots(), which no step
/// ever writes.
using SlotId = uint16_t;

/// Pre-resolved dispatch opcode of one program step: StreamKind and (for
/// lifts) EventSemantics folded into one flat enum so the interpreter's
/// per-step dispatch is a single switch.
///
/// The last three opcodes are never produced by Program::compile; they
/// are introduced by the optimization passes in tessla::opt (Opt/) and
/// executed by both backends.
enum class Opcode : uint8_t {
  Skip,          // Input (buffered by feed()) and Nil — no calculation
  Const,         // Const/Unit: one event at timestamp 0
  Time,          // time(s): s' timestamp as value
  Last,          // last(v, r): last-slot value when r fires
  Delay,         // delay(d, r): fire when the armed timer matches
  LiftAll,       // lift, EventSemantics::All — Impl over all arguments
  LiftMerge,     // lift, EventSemantics::Any — first present wins
  LiftFirstRest, // lift, EventSemantics::FirstAndAnyRest — Impl
  LiftFilter,    // lift, EventSemantics::Custom — pass iff condition
  // --- Opt-introduced opcodes ---
  ConstTick,     // ConstVal at timestamp 0 and whenever Args[0] fires
                 // (a collapsed held constant merge(c, last(c, t)))
  FusedLastLift, // last(v, r) fused into its LiftAll consumer: reads
                 // the last slot directly, no intermediate step/slot
  FusedLiftLift, // single-consumer LiftAll producer fused into its
                 // LiftAll consumer: Impl2 feeds Impl in one step
};

/// One lowered statement of the calculation section.
struct ProgramStep {
  Opcode Op = Opcode::Skip;
  /// Original operator (pretty-printing and code generation).
  StreamKind Kind = StreamKind::Nil;
  BuiltinId Fn = BuiltinId::Merge; // Lift only
  /// True when this stream's aggregate family is mutable: aggregate
  /// updates run destructively and fresh aggregates use the mutable
  /// representation.
  bool InPlace = false;
  uint8_t NumArgs = 0;
  /// Destination value slot.
  SlotId Dst = 0;
  /// Value slots of Args (gathered without a StreamId indirection).
  SlotId ArgSlot[3] = {0, 0, 0};
  /// Last steps: dense last-slot index of Args[0]. Delay steps: dense
  /// delay index into Program::delays(). Unused otherwise.
  SlotId Aux = 0;
  /// Pre-resolved evaluator for LiftAll/LiftFirstRest steps (and the
  /// consumer half of fused steps); null for every other opcode
  /// (merge/filter never reach an evaluator).
  BuiltinFn Impl = nullptr;
  /// The defined stream (diagnostics, printing, code generation).
  StreamId Id = 0;
  /// Stream-level operands (code generation, printing, and backward
  /// reachability in the optimizer). Per-opcode layout:
  ///  * ConstTick: {trigger} — NumArgs == 1;
  ///  * FusedLastLift: {v, r, rest...} of the fused last(v, r), so
  ///    Args.size() == NumArgs + 1 and ArgSlot[0] is r's slot followed
  ///    by the rest slots;
  ///  * FusedLiftLift: producer args then consumer rest args, aligned
  ///    with ArgSlot;
  ///  * everything else: the spec operands, aligned with ArgSlot.
  std::vector<StreamId> Args;
  Value ConstVal; // Const/ConstTick steps (always a scalar)

  // --- Fields used only by the opt-introduced opcodes. ---
  /// FusedLiftLift: evaluator/builtin/mutability of the fused producer.
  BuiltinFn Impl2 = nullptr;
  BuiltinId Fn2 = BuiltinId::Merge;
  bool InPlace2 = false;
  /// FusedLiftLift: arity of the fused producer (its argument slots are
  /// ArgSlot[0..FusedArity), the consumer's rest follows).
  uint8_t FusedArity = 0;
  /// Fused steps: the stream of the fused-away producer (printing, code
  /// generation, mutability lookups).
  StreamId FusedId = 0;
  /// True when ConstantFold rewrote this step (printing/statistics).
  bool Folded = false;
};

/// One *_last slot: the most recent value of Source, updated at the end
/// of every timestamp where Source fired.
struct LastSlot {
  StreamId Source;
  SlotId ValueSlot; // Source's value slot
};

/// One delay stream with pre-resolved operand slots.
struct DelaySlot {
  StreamId Id;
  StreamId DelaysArg;
  StreamId ResetArg;
  SlotId ValueSlot;  // the delay stream's own value slot
  SlotId DelaysSlot; // value slot of the delays argument
  SlotId ResetSlot;  // value slot of the reset argument
};

/// One output-marked stream.
struct OutputSlot {
  StreamId Id;
  SlotId ValueSlot;
};

/// Slot liveness within one calculation: the interpreter's table for
/// holding exactly one handle to an aggregate when an in-place update
/// runs (DESIGN.md §COW). Derived from Program::steps() alone, never
/// serialized, so bundles, checkpoints and wire bytes do not depend on
/// it.
///
///  * Release — an aggregate value slot is cleared after its last value
///    read in translation order. Outputs, last sources and delay
///    operands are read after the calculation and are never released.
///  * Consume — when that last reader is an InPlace update taking the
///    slot as argument 0 (and as no other argument), the step moves the
///    value into a step-owned local before calling its evaluator. Only a
///    consumed argument is offered to the destructive tier; the root
///    refcount still decides at run time whether it may be mutated.
///  * Last move — a Last step that is the only reader of its last slot,
///    and whose destination is consumed, moves the last value instead of
///    copying it. The consumer firing must imply that the last source
///    fires, so the end of the calculation overwrites the emptied last
///    slot; when the Last step fired but the consumer did not, the end of
///    the calculation puts the value back.
struct SlotPlan {
  static constexpr SlotId NoSlot = UINT16_MAX;

  struct StepFacts {
    /// LiftAll/LiftFirstRest: ArgSlot[0] is moved into a local before
    /// Impl runs. FusedLiftLift: the same for the producer (Impl2).
    /// FusedLastLift: the last slot Aux is moved into a local.
    bool Consume = false;
    /// Last steps: LastVal[Aux] is moved into Dst instead of copied.
    bool MoveLast = false;
    /// Slots cleared after the step: Releases[ReleaseBegin..ReleaseEnd).
    uint32_t ReleaseBegin = 0;
    uint32_t ReleaseEnd = 0;
  };

  /// Parallel to Program::steps().
  std::vector<StepFacts> Steps;
  std::vector<SlotId> Releases;
  /// Per last slot (indexed like Program::lastSlots()): the destination
  /// slot of the Last step that moves it, or NoSlot.
  std::vector<SlotId> MovedTo;
};

/// The lowered program; shares ownership of the spec with the analysis
/// result. Compile once, execute from any backend.
class Program {
public:
  /// Lowers \p Analysis' spec using its translation order and mutability
  /// set. Pass a baseline AnalysisResult (Optimize=false) for the paper's
  /// all-persistent reference program. Defined in Program/Lower.cpp
  /// (library tessla_lower): the Program data structure itself, its
  /// verifier and its serialized form (Program/Serialize.h) are
  /// frontend-free, so shipped monitors link neither the parser nor the
  /// analyses.
  static Program compile(const AnalysisResult &Analysis);

  const Spec &spec() const { return *S; }
  /// Shared spec handle for consumers whose artifacts outlive the
  /// program object (the abstract-interpretation fact store keeps the
  /// spec alive for name rendering).
  std::shared_ptr<const Spec> sharedSpec() const { return S; }
  const std::vector<ProgramStep> &steps() const { return Steps; }
  /// Dense *_last slots (streams used as first argument of some last).
  const std::vector<LastSlot> &lastSlots() const { return LastSlots; }
  const std::vector<DelaySlot> &delays() const { return Delays; }
  const std::vector<OutputSlot> &outputs() const { return Outputs; }

  uint32_t numStreams() const { return S->numStreams(); }
  /// Number of live value slots. Engines must size their state to
  /// numValueSlots() + 1: the extra entry is the shared dead slot of nil
  /// streams, which stays never-present forever.
  SlotId numValueSlots() const { return NumValueSlots; }
  /// The value slot of \p Id (the dead slot numValueSlots() for nil).
  SlotId valueSlot(StreamId Id) const { return ValueSlots[Id]; }
  /// Whether \p Id's aggregate family is implemented destructively.
  bool isMutable(StreamId Id) const { return Mutable[Id]; }

  /// Number of steps executing destructive aggregate updates (stats).
  uint32_t inPlaceStepCount() const;

  /// The slot-liveness table of steps(), derived on first use (safe to
  /// call from several threads) and cached until optView() is taken.
  const SlotPlan &slotPlan() const;

  /// Renders the lowered program, one step per line with its slot
  /// assignment and in-place/folded/fused markers, followed by the
  /// last/delay/output slot tables — the single human-readable form of
  /// what both backends execute.
  std::string str() const;

  /// Mutable access to the IR tables for the optimization passes in
  /// tessla::opt. Invariants (dense slot ranges, dispatch pointers,
  /// Args/ArgSlot agreement) are re-checked by opt::verifyProgram after
  /// every pass; all other code must treat Program as immutable.
  struct OptView {
    std::vector<ProgramStep> &Steps;
    std::vector<LastSlot> &LastSlots;
    std::vector<DelaySlot> &Delays;
    std::vector<OutputSlot> &Outputs;
    std::vector<SlotId> &ValueSlots;
    SlotId &NumValueSlots;
  };
  OptView optView() {
    Plan.reset();
    return {Steps, LastSlots, Delays, Outputs, ValueSlots, NumValueSlots};
  }

private:
  /// The bundle reader/writer (Program/Serialize.cpp) reconstructs every
  /// table directly, including the spec handle and the mutability set
  /// that OptView deliberately does not expose.
  friend class ProgramSerializer;

  std::shared_ptr<const Spec> S;
  std::vector<ProgramStep> Steps;
  std::vector<LastSlot> LastSlots;
  std::vector<DelaySlot> Delays;
  std::vector<OutputSlot> Outputs;
  std::vector<SlotId> ValueSlots; // indexed by StreamId
  std::vector<bool> Mutable;      // indexed by StreamId
  SlotId NumValueSlots = 0;

  /// The cached slotPlan(). A copied or moved-from program starts with an
  /// empty cache and derives its own.
  class PlanCache {
  public:
    PlanCache() = default;
    PlanCache(const PlanCache &) {}
    PlanCache &operator=(const PlanCache &) {
      reset();
      return *this;
    }
    const SlotPlan &get(const Program &P);
    /// Requires exclusive access to the program.
    void reset() {
      Ready.store(nullptr, std::memory_order_relaxed);
      Owned.reset();
    }

  private:
    std::atomic<const SlotPlan *> Ready{nullptr};
    std::mutex Mu;
    std::unique_ptr<const SlotPlan> Owned;
  };
  mutable PlanCache Plan;
};

} // namespace tessla

#endif // TESSLA_PROGRAM_PROGRAM_H
