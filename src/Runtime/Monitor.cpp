//===- Runtime/Monitor.cpp --------------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/Monitor.h"

#include "tessla/Runtime/ExecutionEngine.h"
#include "tessla/Support/Format.h"

#include <cassert>
#include <limits>
#include <utility>

using namespace tessla;

Monitor::Monitor(const Program &Prog_)
    : Prog(Prog_), Plan(Prog_.slotPlan()) {
  // +1: the shared dead slot of nil streams stays never-present.
  LastBase = Prog.numValueSlots() + 1u;
  TimerBase = LastBase + static_cast<uint32_t>(Prog.lastSlots().size());
  Slots.resize(TimerBase + Prog.delays().size());
  for (size_t I = TimerBase, E = Slots.size(); I != E; ++I)
    Slots[I] = Value::integer(0);
  Flags.assign(Slots.size(), 0);
}

void Monitor::failAt(Time Ts, StreamId Id, const std::string &Message) {
  Err.fail(formatString("at t=%lld, stream '%s': %s",
                        static_cast<long long>(Ts),
                        Prog.spec().stream(Id).Name.c_str(),
                        Message.c_str()));
}

void Monitor::setValue(SlotId Slot, Value V) {
  Slots[Slot] = std::move(V);
  if (!Flags[Slot]) {
    Flags[Slot] = 1;
    Touched.push_back(Slot);
  }
}

std::optional<Time> Monitor::minNextDelay() const {
  std::optional<Time> Min;
  for (size_t I = TimerBase, E = Slots.size(); I != E; ++I)
    if (Flags[I] && (!Min || Slots[I].getInt() < *Min))
      Min = Slots[I].getInt();
  return Min;
}

namespace {

/// Calls \p Fn. With \p Owner, the value Args[0] points to is moved out
/// of *Owner into a step-owned local first: the caller then holds no
/// second handle to it, and only such a consumed argument is offered to
/// the destructive tier (\p InPlace). Evaluators fail before they update,
/// so on failure the untouched value goes back.
Value evaluate(BuiltinFn Fn, const Value **Args, Value *Owner, bool InPlace,
               EvalError &Err) {
  if (!Owner)
    return Fn(Args, false, Err);
  Value Own = std::exchange(*Owner, Value());
  Args[0] = &Own;
  Value Result = Fn(Args, InPlace, Err);
  if (Err.Failed)
    *Owner = std::move(Own);
  return Result;
}

} // namespace

bool Monitor::runSteps(Time Ts) {
  if (Err.Failed)
    return false;
  const std::vector<ProgramStep> &Steps = Prog.steps();
  for (size_t StepIdx = 0, StepEnd = Steps.size(); StepIdx != StepEnd;
       ++StepIdx) {
    const ProgramStep &Step = Steps[StepIdx];
    const SlotPlan::StepFacts &F = Plan.Steps[StepIdx];
    switch (Step.Op) {
    case Opcode::Skip:
      break; // inputs were buffered by feed(); nil never fires
    case Opcode::Const:
      if (Ts == 0)
        setValue(Step.Dst, Step.ConstVal);
      break;
    case Opcode::Time:
      if (Flags[Step.ArgSlot[0]])
        setValue(Step.Dst, Value::integer(Ts));
      break;
    case Opcode::Last:
      if (Flags[Step.ArgSlot[1]] && lastInit(Step.Aux))
        setValue(Step.Dst, F.MoveLast
                               ? std::exchange(lastVal(Step.Aux), Value())
                               : lastVal(Step.Aux));
      break;
    case Opcode::Delay:
      if (Flags[TimerBase + Step.Aux] &&
          Slots[TimerBase + Step.Aux].getInt() == Ts)
        setValue(Step.Dst, Value::unit());
      break;
    case Opcode::LiftAll: {
      const Value *Args[3];
      bool AllPresent = true;
      for (unsigned I = 0; I != Step.NumArgs; ++I) {
        if (!Flags[Step.ArgSlot[I]]) {
          AllPresent = false;
          break;
        }
        Args[I] = &Slots[Step.ArgSlot[I]];
      }
      if (!AllPresent)
        break;
      Value Result = evaluate(Step.Impl, Args,
                              F.Consume ? &Slots[Step.ArgSlot[0]] : nullptr,
                              Step.InPlace, Err);
      if (Err.Failed) {
        failAt(Ts, Step.Id, Err.Message);
        return false;
      }
      setValue(Step.Dst, std::move(Result));
      break;
    }
    case Opcode::LiftMerge:
      // merge: the first stream's event wins (f_merge, §II).
      for (unsigned I = 0; I != Step.NumArgs; ++I)
        if (Flags[Step.ArgSlot[I]]) {
          setValue(Step.Dst, Slots[Step.ArgSlot[I]]);
          break;
        }
      break;
    case Opcode::LiftFirstRest: {
      if (!Flags[Step.ArgSlot[0]])
        break;
      const Value *Args[3] = {nullptr, nullptr, nullptr};
      bool AnyRest = false;
      Args[0] = &Slots[Step.ArgSlot[0]];
      for (unsigned I = 1; I != Step.NumArgs; ++I)
        if (Flags[Step.ArgSlot[I]]) {
          Args[I] = &Slots[Step.ArgSlot[I]];
          AnyRest = true;
        }
      if (!AnyRest)
        break;
      Value Result = evaluate(Step.Impl, Args,
                              F.Consume ? &Slots[Step.ArgSlot[0]] : nullptr,
                              Step.InPlace, Err);
      if (Err.Failed) {
        failAt(Ts, Step.Id, Err.Message);
        return false;
      }
      setValue(Step.Dst, std::move(Result));
      break;
    }
    case Opcode::LiftFilter: {
      // filter(a, c): pass a's event iff c is currently true.
      if (!Flags[Step.ArgSlot[0]] || !Flags[Step.ArgSlot[1]])
        break;
      const Value &Cond = Slots[Step.ArgSlot[1]];
      if (Cond.kind() != Value::Kind::Bool) {
        failAt(Ts, Step.Id, "filter condition is not a Bool");
        return false;
      }
      if (Cond.getBool())
        setValue(Step.Dst, Slots[Step.ArgSlot[0]]);
      break;
    }
    case Opcode::ConstTick:
      // Collapsed held constant: fires at timestamp 0 and with every
      // trigger event, always carrying the same scalar.
      if (Ts == 0 || Flags[Step.ArgSlot[0]])
        setValue(Step.Dst, Step.ConstVal);
      break;
    case Opcode::FusedLastLift: {
      // Consumer lift with a fused last(v, r) as first argument: fires
      // when r fires, the last slot is initialized, and the remaining
      // arguments are present — byte-identical to the unfused pair.
      if (!Flags[Step.ArgSlot[0]] || !lastInit(Step.Aux))
        break;
      const Value *Args[3];
      Args[0] = &lastVal(Step.Aux);
      bool AllPresent = true;
      for (unsigned I = 1; I != Step.NumArgs; ++I) {
        if (!Flags[Step.ArgSlot[I]]) {
          AllPresent = false;
          break;
        }
        Args[I] = &Slots[Step.ArgSlot[I]];
      }
      if (!AllPresent)
        break;
      Value Result =
          evaluate(Step.Impl, Args, F.Consume ? &lastVal(Step.Aux) : nullptr,
                   Step.InPlace, Err);
      if (Err.Failed) {
        failAt(Ts, Step.Id, Err.Message);
        return false;
      }
      setValue(Step.Dst, std::move(Result));
      break;
    }
    case Opcode::FusedLiftLift: {
      // Consumer lift with its single-consumer producer inlined. The
      // producer is evaluated whenever *its* arguments are present —
      // even if the consumer's rest is absent — so destructive updates
      // and error behavior match the unfused program exactly; the
      // temporary is simply discarded when the consumer cannot fire.
      const Value *Inner[3];
      bool InnerPresent = true;
      for (unsigned I = 0; I != Step.FusedArity; ++I) {
        if (!Flags[Step.ArgSlot[I]]) {
          InnerPresent = false;
          break;
        }
        Inner[I] = &Slots[Step.ArgSlot[I]];
      }
      if (!InnerPresent)
        break;
      Value Tmp = evaluate(Step.Impl2, Inner,
                           F.Consume ? &Slots[Step.ArgSlot[0]] : nullptr,
                           Step.InPlace2, Err);
      if (Err.Failed) {
        failAt(Ts, Step.FusedId, Err.Message);
        return false;
      }
      const Value *Args[3];
      Args[0] = &Tmp;
      bool AllPresent = true;
      for (unsigned I = Step.FusedArity; I != Step.NumArgs; ++I) {
        if (!Flags[Step.ArgSlot[I]]) {
          AllPresent = false;
          break;
        }
        Args[1 + I - Step.FusedArity] = &Slots[Step.ArgSlot[I]];
      }
      if (!AllPresent)
        break;
      // The temporary is step-owned: the consumer may update it in place.
      Value Result = Step.Impl(Args, Step.InPlace, Err);
      if (Err.Failed) {
        failAt(Ts, Step.Id, Err.Message);
        return false;
      }
      setValue(Step.Dst, std::move(Result));
      break;
    }
    }
    // Aggregate slots this step read for the last time in this
    // calculation: drop their handles so later updates see one owner.
    for (uint32_t K = F.ReleaseBegin; K != F.ReleaseEnd; ++K)
      Slots[Plan.Releases[K]] = Value();
  }
  return true;
}

void Monitor::unwindMovedLast() {
  // A failed calculation leaves the last slots as they were. Copy, not
  // move: the failed lane keeps its current-value slots as they stood.
  // A value an update already consumed cannot come back; its last slot
  // keeps the unit placeholder (the lane is terminal, see DESIGN.md).
  for (size_t I = 0, E = Plan.MovedTo.size(); I != E; ++I) {
    SlotId D = Plan.MovedTo[I];
    if (D != SlotPlan::NoSlot && Flags[D] && Slots[D].isAggregate())
      lastVal(I) = Slots[D];
  }
}

void Monitor::runCalc(Time Ts) {
  ++NumCalcRuns;

  // --- Calculation section (§III-A), in translation order: one flat
  // dispatch per step over pre-resolved slots and function pointers. ---
  if (!runSteps(Ts)) {
    unwindMovedLast();
    return;
  }

  // --- Emit outputs. ---
  if (Handler) {
    for (const OutputSlot &Out : Prog.outputs())
      if (Flags[Out.ValueSlot]) {
        ++NumOutputs;
        Handler(Ts, Out.Id, Slots[Out.ValueSlot]);
      }
  } else {
    for (const OutputSlot &Out : Prog.outputs())
      if (Flags[Out.ValueSlot])
        ++NumOutputs;
  }

  // --- End of calculation: update *_last slots (§III-A). A last value a
  // Last step moved out while its source did not fire goes back. ---
  for (size_t I = 0, E = Prog.lastSlots().size(); I != E; ++I) {
    SlotId V = Prog.lastSlots()[I].ValueSlot;
    if (Flags[V]) {
      lastVal(I) = Slots[V];
      lastInit(I) = 1;
    } else if (SlotId D = Plan.MovedTo[I];
               D != SlotPlan::NoSlot && Flags[D]) {
      lastVal(I) = std::exchange(Slots[D], Value());
    }
  }

  // --- Delay scheduling (§III-B): an event of the reset stream or the
  // delay itself is a reset; with a delays-value event it re-arms the
  // timer, without one it cancels it. ---
  for (size_t I = 0, E = Prog.delays().size(); I != E; ++I) {
    const DelaySlot &D = Prog.delays()[I];
    bool ResetEvent = Flags[D.ResetSlot] || Flags[D.ValueSlot];
    if (!ResetEvent)
      continue;
    if (Flags[D.DelaysSlot]) {
      int64_t Amount = Slots[D.DelaysSlot].getInt();
      if (Amount <= 0) {
        failAt(Ts, D.Id, "delay amounts must be positive");
        return;
      }
      Slots[TimerBase + I] = Value::integer(Ts + Amount);
      Flags[TimerBase + I] = 1;
    } else {
      Flags[TimerBase + I] = 0;
    }
  }

  // --- Reset current-value slots for the next timestamp. ---
  for (SlotId Slot : Touched) {
    Flags[Slot] = 0;
    Slots[Slot] = Value(); // release aggregate handles promptly
  }
  Touched.clear();
}

void Monitor::flushBefore(Time T) {
  if (!CalcDoneForPending) {
    runCalc(PendingTs);
    CalcDoneForPending = true;
  }
  while (!Err.Failed) {
    std::optional<Time> Min = minNextDelay();
    if (!Min || *Min >= T)
      return;
    runCalc(*Min);
  }
}

bool Monitor::feed(StreamId Input, Time Ts, Value V) {
  if (Err.Failed)
    return false;
  if (Finished) {
    Err.fail("feed() after finish()");
    return false;
  }
  assert(Prog.spec().stream(Input).Kind == StreamKind::Input &&
         "feed() targets must be input streams");
  SlotId Slot = Prog.valueSlot(Input);
  if (Ts < 0) {
    failAt(Ts, Input, "timestamps must be non-negative");
    return false;
  }
  if (Ts < PendingTs || (CalcDoneForPending && Ts == PendingTs)) {
    failAt(Ts, Input, "input events must arrive in timestamp order");
    return false;
  }
  if (Ts > PendingTs) {
    flushBefore(Ts);
    if (Err.Failed)
      return false;
    PendingTs = Ts;
    CalcDoneForPending = false;
  } else if (Flags[Slot]) {
    failAt(Ts, Input, "two events on one stream at the same timestamp");
    return false;
  }
  setValue(Slot, std::move(V));
  ++NumFed;
  return true;
}

void Monitor::finish(std::optional<Time> Horizon) {
  if (Err.Failed || Finished)
    return;
  Time Bound = Horizon ? (*Horizon == std::numeric_limits<Time>::max()
                              ? *Horizon
                              : *Horizon + 1)
                       : std::numeric_limits<Time>::max();
  flushBefore(Bound);
  Finished = true;
}

void Monitor::extractState(EngineLaneState &Out) {
  Out.PendingTs = PendingTs;
  Out.CalcDone = CalcDoneForPending;
  Out.Failed = Err.Failed;
  Out.Error = std::move(Err.Message);
  Out.NumFed = NumFed;
  Out.NumOutputs = NumOutputs;
  Out.NumCalcRuns = NumCalcRuns;
  Out.Slots = std::move(Slots);
  Out.Flags = std::move(Flags);
  Out.NumValueSlots = LastBase;
  Out.NumLastSlots = TimerBase - LastBase;
}

void Monitor::snapshotState(EngineLaneState &Out) const {
  Out.PendingTs = PendingTs;
  Out.CalcDone = CalcDoneForPending;
  Out.Failed = Err.Failed;
  Out.Error = Err.Message;
  Out.NumFed = NumFed;
  Out.NumOutputs = NumOutputs;
  Out.NumCalcRuns = NumCalcRuns;
  Out.Slots = Slots; // O(1) per slot: aggregate handles share structure
  Out.Flags = Flags;
  Out.NumValueSlots = LastBase;
  Out.NumLastSlots = TimerBase - LastBase;
}

void Monitor::visitValues(
    const std::function<void(const Value &)> &Fn) const {
  for (size_t I = 0; I != TimerBase; ++I)
    Fn(Slots[I]);
}

void Monitor::restoreState(EngineLaneState &State) {
  assert(State.NumValueSlots == LastBase &&
         State.NumLastSlots == TimerBase - LastBase &&
         State.Slots.size() == Slots.size() &&
         State.Flags.size() == Flags.size() &&
         "lane snapshot from a different program");
  PendingTs = State.PendingTs;
  CalcDoneForPending = State.CalcDone;
  Err.Failed = State.Failed;
  Err.Message = std::move(State.Error);
  NumFed = State.NumFed;
  NumOutputs = State.NumOutputs;
  NumCalcRuns = State.NumCalcRuns;
  Slots = std::move(State.Slots);
  Flags = std::move(State.Flags);
  // The reset order of current-value slots is unobservable; membership
  // is what matters, so Touched is rebuilt from presence.
  Touched.clear();
  for (size_t Slot = 0; Slot != LastBase; ++Slot)
    if (Flags[Slot])
      Touched.push_back(static_cast<SlotId>(Slot));
}

std::vector<OutputEvent> tessla::runMonitor(
    const Program &Prog,
    const std::vector<std::tuple<StreamId, Time, Value>> &Events,
    std::optional<Time> Horizon, std::string *ErrorOut) {
  Monitor M(Prog);
  std::vector<OutputEvent> Out;
  M.setOutputHandler([&Out](Time Ts, StreamId Id, const Value &V) {
    // The handler's value is borrowed; the copy shares its root, so an
    // in-place update at a later timestamp path-copies instead.
    Out.push_back({Ts, Id, V});
  });
  for (const auto &[Id, Ts, V] : Events) {
    if (!M.feed(Id, Ts, V))
      break;
  }
  M.finish(Horizon);
  if (ErrorOut)
    *ErrorOut = M.failed() ? M.errorMessage() : "";
  return Out;
}
