//===- Program/Program.cpp --------------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/Program/Program.h"

#include "tessla/Support/Format.h"

#include <algorithm>
#include <optional>

using namespace tessla;

// Program::compile lives in Program/Lower.cpp (library tessla_lower): it
// is the only member that consumes analysis results, and keeping it out
// of this translation unit keeps tessla_program frontend-free.

namespace {

std::string joinNames(const Spec &S, const StreamId *Ids, size_t N) {
  std::string Out;
  for (size_t I = 0; I != N; ++I)
    Out += (I ? ", " : "") + S.stream(Ids[I]).Name;
  return Out;
}

/// Renders one step's operator text. The opt-introduced opcodes and
/// folded steps have no spec-level shape, so they render from the step
/// itself; everything else renders from the original StreamKind.
std::string stepText(const Spec &S, const ProgramStep &Step) {
  switch (Step.Op) {
  case Opcode::ConstTick:
    return "const " + Step.ConstVal.str() + " on " +
           S.stream(Step.Args[0]).Name;
  case Opcode::FusedLastLift:
    return std::string(builtinInfo(Step.Fn).Name) + "(last(" +
           S.stream(Step.Args[0]).Name + ", " +
           S.stream(Step.Args[1]).Name + ")" +
           (Step.Args.size() > 2
                ? ", " + joinNames(S, Step.Args.data() + 2,
                                   Step.Args.size() - 2)
                : "") +
           ")";
  case Opcode::FusedLiftLift:
    return std::string(builtinInfo(Step.Fn).Name) + "(" +
           std::string(builtinInfo(Step.Fn2).Name) + "(" +
           joinNames(S, Step.Args.data(), Step.FusedArity) + ")" +
           (Step.NumArgs > Step.FusedArity
                ? ", " + joinNames(S, Step.Args.data() + Step.FusedArity,
                                   Step.NumArgs - Step.FusedArity)
                : "") +
           ")";
  default:
    break;
  }
  if (Step.Folded) {
    if (Step.Op == Opcode::Const)
      return "const " + Step.ConstVal.str();
    if (Step.Op == Opcode::Skip)
      return "never";
  }
  return std::string();
}

} // namespace

std::string Program::str() const {
  std::string Out;
  unsigned Index = 0;
  for (const ProgramStep &Step : Steps) {
    const StreamDef &D = S->stream(Step.Id);
    std::string Kind = stepText(*S, Step);
    if (!Kind.empty()) {
      Out += std::to_string(Index++) + ": " + D.Name + " = " + Kind;
      if (Step.InPlace && Step.Kind == StreamKind::Lift)
        Out += "   [in-place]";
      if (Step.InPlace2)
        Out += "   [in-place-inner]";
      if (Step.Folded)
        Out += "   [folded]";
      if (Step.Op == Opcode::FusedLastLift ||
          Step.Op == Opcode::FusedLiftLift)
        Out += "   [fused]";
      if (Step.Dst != NumValueSlots)
        Out += "   @" + std::to_string(Step.Dst);
      if (Step.Op == Opcode::FusedLastLift)
        Out += " last[" + std::to_string(Step.Aux) + "]";
      Out += '\n';
      continue;
    }
    switch (Step.Kind) {
    case StreamKind::Input:
      Kind = "input";
      break;
    case StreamKind::Nil:
      Kind = "nil";
      break;
    case StreamKind::Unit:
      Kind = "unit";
      break;
    case StreamKind::Const:
      Kind = "const " + D.Literal.str();
      break;
    case StreamKind::Time:
      Kind = "time(" + S->stream(Step.Args[0]).Name + ")";
      break;
    case StreamKind::Lift: {
      std::vector<std::string> Args;
      for (StreamId A : Step.Args)
        Args.push_back(S->stream(A).Name);
      Kind = std::string(builtinInfo(Step.Fn).Name) + "(" +
             [&Args] {
               std::string Joined;
               for (size_t I = 0; I != Args.size(); ++I)
                 Joined += (I ? ", " : "") + Args[I];
               return Joined;
             }() +
             ")";
      break;
    }
    case StreamKind::Last:
      Kind = "last(" + S->stream(Step.Args[0]).Name + ", " +
             S->stream(Step.Args[1]).Name + ")";
      break;
    case StreamKind::Delay:
      Kind = "delay(" + S->stream(Step.Args[0]).Name + ", " +
             S->stream(Step.Args[1]).Name + ")";
      break;
    }
    Out += std::to_string(Index++) + ": " + D.Name + " = " + Kind;
    if (Step.InPlace && Step.Kind == StreamKind::Lift)
      Out += "   [in-place]";
    // A rewritten step that still renders through its builtin shape
    // (e.g. a clock-exact filter degenerated to a one-arm merge).
    if (Step.Folded)
      Out += "   [folded]";
    if (Step.Kind != StreamKind::Nil)
      Out += "   @" + std::to_string(Step.Dst);
    if (Step.Kind == StreamKind::Last)
      Out += " last[" + std::to_string(Step.Aux) + "]";
    if (Step.Kind == StreamKind::Delay)
      Out += " delay[" + std::to_string(Step.Aux) + "]";
    Out += '\n';
  }

  Out += formatString("slots: value=%u last=%zu delay=%zu\n",
                      static_cast<unsigned>(NumValueSlots),
                      LastSlots.size(), Delays.size());
  for (size_t I = 0; I != LastSlots.size(); ++I)
    Out += "last[" + std::to_string(I) + "]: " +
           S->stream(LastSlots[I].Source).Name + " @" +
           std::to_string(LastSlots[I].ValueSlot) + "\n";
  for (size_t I = 0; I != Delays.size(); ++I) {
    const DelaySlot &D = Delays[I];
    Out += "delay[" + std::to_string(I) + "]: " + S->stream(D.Id).Name +
           " @" + std::to_string(D.ValueSlot) + " delays=" +
           S->stream(D.DelaysArg).Name + "@" +
           std::to_string(D.DelaysSlot) + " reset=" +
           S->stream(D.ResetArg).Name + "@" +
           std::to_string(D.ResetSlot) + "\n";
  }
  if (!Outputs.empty()) {
    Out += "outputs:";
    for (const OutputSlot &O : Outputs)
      Out += " " + S->stream(O.Id).Name + "@" +
             std::to_string(O.ValueSlot);
    Out += '\n';
  }
  return Out;
}

uint32_t Program::inPlaceStepCount() const {
  uint32_t Count = 0;
  for (const ProgramStep &Step : Steps) {
    if (Step.InPlace && Step.Kind == StreamKind::Lift)
      ++Count;
    if (Step.InPlace2)
      ++Count; // destructive producer half of a fused step
  }
  return Count;
}

// --- Slot liveness --------------------------------------------------------

namespace {

/// Calls \p Fn for every value slot \p Step reads the value of (not just
/// the presence): the slots the engine dereferences.
template <typename Fn> void forEachValueRead(const ProgramStep &Step, Fn F) {
  switch (Step.Op) {
  case Opcode::LiftAll:
  case Opcode::LiftMerge:
  case Opcode::LiftFirstRest:
  case Opcode::LiftFilter:
  case Opcode::FusedLiftLift:
    for (unsigned I = 0; I != Step.NumArgs; ++I)
      F(Step.ArgSlot[I]);
    break;
  case Opcode::FusedLastLift: // ArgSlot[0] is the trigger
    for (unsigned I = 1; I != Step.NumArgs; ++I)
      F(Step.ArgSlot[I]);
    break;
  default: // time and last triggers, ConstTick: presence only
    break;
  }
}

/// Derives the SlotPlan; see its comment in Program/Program.h.
class SlotPlanBuilder {
public:
  explicit SlotPlanBuilder(const Program &P)
      : P(P), Steps(P.steps()), Dead(P.numValueSlots()),
        Writer(Dead + 1u, -1), Pinned(Dead + 1u, 0),
        LastRead(Dead + 1u, -1), LastReaders(P.lastSlots().size(), 0) {
    for (size_t I = 0; I != Steps.size(); ++I) {
      if (Steps[I].Dst != Dead)
        Writer[Steps[I].Dst] = static_cast<int32_t>(I);
      forEachValueRead(Steps[I], [&](SlotId S) {
        LastRead[S] = static_cast<int32_t>(I);
      });
      if (Steps[I].Op == Opcode::Last || Steps[I].Op == Opcode::FusedLastLift)
        ++LastReaders[Steps[I].Aux];
    }
    // Read after the calculation section.
    Pinned[Dead] = 1;
    for (const OutputSlot &O : P.outputs())
      Pinned[O.ValueSlot] = 1;
    for (const LastSlot &L : P.lastSlots())
      Pinned[L.ValueSlot] = 1;
    for (const DelaySlot &D : P.delays())
      Pinned[D.ValueSlot] = Pinned[D.DelaysSlot] = Pinned[D.ResetSlot] = 1;
  }

  SlotPlan build() {
    SlotPlan Plan;
    Plan.Steps.resize(Steps.size());
    Plan.MovedTo.assign(P.lastSlots().size(), SlotPlan::NoSlot);
    std::vector<char> Consumed(Dead + 1u, 0);
    for (size_t I = 0; I != Steps.size(); ++I) {
      const ProgramStep &Step = Steps[I];
      if (Step.Op == Opcode::FusedLastLift) {
        Plan.Steps[I].Consume = Step.InPlace &&
                                LastReaders[Step.Aux] == 1 &&
                                sourceFiresWith(Step.Aux, Step.Dst);
        continue;
      }
      std::optional<SlotId> S = consumable(I);
      if (!S)
        continue;
      int32_t W = Writer[*S];
      if (W >= 0 && Steps[W].Op == Opcode::Last) {
        // The destination of a Last step holds a copy of the last value
        // unless the Last step may move it (otherwise the update borrows
        // and path-copies).
        const ProgramStep &L = Steps[W];
        if (LastReaders[L.Aux] != 1 || !sourceFiresWith(L.Aux, Step.Dst))
          continue;
        Plan.Steps[W].MoveLast = true;
        Plan.MovedTo[L.Aux] = *S;
      }
      Plan.Steps[I].Consume = true;
      Consumed[*S] = 1;
    }
    // Releases, grouped by the step after which they run.
    std::vector<std::vector<SlotId>> After(Steps.size());
    for (SlotId S = 0; S != Dead; ++S)
      if (LastRead[S] >= 0 && !Pinned[S] && !Consumed[S] && aggregate(S))
        After[LastRead[S]].push_back(S);
    for (size_t I = 0; I != Steps.size(); ++I) {
      Plan.Steps[I].ReleaseBegin = static_cast<uint32_t>(Plan.Releases.size());
      Plan.Releases.insert(Plan.Releases.end(), After[I].begin(),
                           After[I].end());
      Plan.Steps[I].ReleaseEnd = static_cast<uint32_t>(Plan.Releases.size());
    }
    return Plan;
  }

private:
  const Program &P;
  const std::vector<ProgramStep> &Steps;
  const SlotId Dead;
  std::vector<int32_t> Writer;      // step writing each slot, -1: none
  std::vector<char> Pinned;         // read after the calculation
  std::vector<int32_t> LastRead;    // last step reading each slot's value
  std::vector<uint32_t> LastReaders; // Last/FusedLastLift steps per slot

  /// Whether slot \p S holds aggregates.
  bool aggregate(SlotId S) const {
    return Writer[S] >= 0 &&
           P.spec().stream(Steps[Writer[S]].Id).Ty.isComplex();
  }

  /// The slot step \p I may consume: its argument 0 to an InPlace update,
  /// read there for the last time and by no other argument of the step.
  std::optional<SlotId> consumable(size_t I) const {
    const ProgramStep &Step = Steps[I];
    bool Update =
        (Step.Op == Opcode::LiftAll || Step.Op == Opcode::LiftFirstRest)
            ? Step.InPlace
            : Step.Op == Opcode::FusedLiftLift && Step.InPlace2 &&
                  Step.FusedArity != 0;
    if (!Update || Step.NumArgs == 0)
      return std::nullopt;
    SlotId S = Step.ArgSlot[0];
    for (unsigned K = 1; K != Step.NumArgs; ++K)
      if (Step.ArgSlot[K] == S)
        return std::nullopt;
    if (S == Dead || Pinned[S] || LastRead[S] != static_cast<int32_t>(I) ||
        !aggregate(S))
      return std::nullopt;
    return S;
  }

  /// Whether last slot \p Aux's source fires in every calculation in
  /// which slot \p C fires — then the end of that calculation overwrites
  /// the last slot.
  bool sourceFiresWith(SlotId Aux, SlotId C) const {
    return firesWith(P.lastSlots()[Aux].ValueSlot, C, 6);
  }

  /// A syntactic proof that slot \p S fires whenever slot \p C does
  /// (false when no proof is found within \p Depth steps).
  bool firesWith(SlotId S, SlotId C, unsigned Depth) const {
    if (S == C)
      return true;
    if (Depth == 0 || S == Dead || Writer[S] < 0)
      return false;
    const ProgramStep &Step = Steps[Writer[S]];
    auto Arg = [&](unsigned K) {
      return firesWith(Step.ArgSlot[K], C, Depth - 1);
    };
    switch (Step.Op) {
    case Opcode::Time:
    case Opcode::ConstTick:
      return Arg(0);
    case Opcode::LiftAll:
    case Opcode::FusedLiftLift:
      for (unsigned K = 0; K != Step.NumArgs; ++K)
        if (!Arg(K))
          return false;
      return Step.NumArgs != 0;
    case Opcode::LiftFirstRest:
      if (!Arg(0))
        return false;
      for (unsigned K = 1; K != Step.NumArgs; ++K)
        if (Arg(K))
          return true;
      return false;
    case Opcode::LiftMerge:
      for (unsigned K = 0; K != Step.NumArgs; ++K)
        if (Arg(K) || heldConstantFiresWith(Step, K, C, Depth - 1))
          return true;
      return false;
    default:
      return false;
    }
  }

  /// The held-constant shape merge(c, last(c, r)) over a constant c
  /// fires with r: c fires at timestamp 0, so its last slot is set in
  /// every later calculation. \p K names the last(c, r) argument of
  /// \p Merge.
  bool heldConstantFiresWith(const ProgramStep &Merge, unsigned K, SlotId C,
                             unsigned Depth) const {
    SlotId L = Merge.ArgSlot[K];
    if (L == Dead || Writer[L] < 0 || Steps[Writer[L]].Op != Opcode::Last)
      return false;
    const ProgramStep &Last = Steps[Writer[L]];
    SlotId Const = P.lastSlots()[Last.Aux].ValueSlot;
    if (Const == Dead || Writer[Const] < 0 ||
        Steps[Writer[Const]].Op != Opcode::Const ||
        std::find(Merge.ArgSlot, Merge.ArgSlot + Merge.NumArgs, Const) ==
            Merge.ArgSlot + Merge.NumArgs)
      return false;
    return firesWith(Last.ArgSlot[1], C, Depth);
  }
};

} // namespace

const SlotPlan &Program::PlanCache::get(const Program &P) {
  if (const SlotPlan *Built = Ready.load(std::memory_order_acquire))
    return *Built;
  std::lock_guard<std::mutex> G(Mu);
  if (!Owned) {
    Owned = std::make_unique<const SlotPlan>(SlotPlanBuilder(P).build());
    Ready.store(Owned.get(), std::memory_order_release);
  }
  return *Owned;
}

const SlotPlan &Program::slotPlan() const { return Plan.get(*this); }
