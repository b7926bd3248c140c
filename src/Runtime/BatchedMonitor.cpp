//===- Runtime/BatchedMonitor.cpp -------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// The lockstep sweep mirrors Monitor::runCalc case by case: every opcode
// is decoded once per step and applied to all active lanes before the
// next step runs, with slot state striped Slot * LaneCap + Lane so one
// step's sweep walks contiguous rows. Any observable divergence from
// Monitor — outputs, failure points, messages — is a bug; the comments
// below call out the places where the correspondence is subtle.
//
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/BatchedMonitor.h"

#include "tessla/Support/Format.h"

#include <cassert>
#include <limits>

using namespace tessla;

BatchedMonitor::BatchedMonitor(const Program &Prog_, bool CollectOutputs_)
    : Prog(Prog_), CollectOutputs(CollectOutputs_),
      // +1: the shared dead slot of nil streams stays never-present,
      // exactly as in Monitor's AoS layout.
      NumSlots(Prog_.numValueSlots() + 1u) {}

void BatchedMonitor::failLane(uint32_t Lane, std::string Message) {
  Failed[Lane] = 1;
  AnyFailed = true;
  ErrMsg[Lane] = std::move(Message);
}

void BatchedMonitor::failLaneAt(uint32_t Lane, Time Ts, StreamId Id,
                                const std::string &Message) {
  // Same rendering as Monitor::failAt.
  failLane(Lane, formatString("at t=%lld, stream '%s': %s",
                              static_cast<long long>(Ts),
                              Prog.spec().stream(Id).Name.c_str(),
                              Message.c_str()));
}

void BatchedMonitor::setLane(SlotId Slot, uint32_t Lane, Value V) {
  size_t I = idx(Slot, Lane);
  Cur[I] = std::move(V);
  if (!Present[I]) {
    Present[I] = 1;
    Touched[Lane].push_back(Slot);
  }
}

void BatchedMonitor::growLanes(size_t NewCap) {
  // Re-stripe the SoA rows to the wider stride.
  auto Restripe = [&](auto &Vec, size_t Rows) {
    std::remove_reference_t<decltype(Vec)> New(Rows * NewCap);
    for (size_t R = 0; R != Rows; ++R)
      for (size_t L = 0; L != NumLanes; ++L)
        New[R * NewCap + L] = std::move(Vec[R * LaneCap + L]);
    Vec = std::move(New);
  };
  Restripe(Cur, NumSlots);
  Restripe(Present, NumSlots);
  Restripe(LastVal, Prog.lastSlots().size());
  Restripe(LastInit, Prog.lastSlots().size());
  Restripe(NextTs, Prog.delays().size());
  Restripe(NextTsSet, Prog.delays().size());
  LaneCap = NewCap;

  Session.resize(NewCap, 0);
  Live.resize(NewCap, 0);
  Failed.resize(NewCap, 0);
  CalcDone.resize(NewCap, 0);
  FinishedL.resize(NewCap, 0);
  PendingTs.resize(NewCap, 0);
  RunTs.resize(NewCap, 0);
  ErrMsg.resize(NewCap);
  NumFed.resize(NewCap, 0);
  NumOutputs.resize(NewCap, 0);
  NumCalcRuns.resize(NewCap, 0);
  Queue.resize(NewCap);
  QueuePos.resize(NewCap, 0);
  Touched.resize(NewCap);
  Outputs.resize(NewCap);
  InDirty.resize(NewCap, 0);
}

unsigned BatchedMonitor::allocLane(SessionId Id) {
  uint32_t L;
  if (!FreeLanes.empty()) {
    L = FreeLanes.back();
    FreeLanes.pop_back();
  } else {
    if (NumLanes == LaneCap)
      growLanes(LaneCap ? LaneCap * 2 : 8);
    L = NumLanes++;
  }
  Live[L] = 1;
  ++NumLive;
  Session[L] = Id;
  Failed[L] = 0;
  CalcDone[L] = 0;
  FinishedL[L] = 0;
  PendingTs[L] = 0;
  RunTs[L] = 0;
  ErrMsg[L].clear();
  NumFed[L] = NumOutputs[L] = NumCalcRuns[L] = 0;
  Queue[L].clear();
  QueuePos[L] = 0;
  Touched[L].clear();
  Outputs[L].clear();
  assert(!InDirty[L] && "freed lanes leave the dirty worklist");
  return L;
}

unsigned BatchedMonitor::addLane(SessionId Id) {
  // A fresh lane is a freshly constructed Monitor: PendingTs = 0 with
  // the calculation not yet run, so the timestamp-0 section (constants
  // firing, delays arming) runs before the lane's first event even when
  // the session joins mid-stream.
  return allocLane(Id);
}

void BatchedMonitor::clearLaneRows(uint32_t Lane) {
  for (uint32_t Slot = 0; Slot != NumSlots; ++Slot) {
    size_t I = idx(Slot, Lane);
    Cur[I] = Value();
    Present[I] = 0;
  }
  for (size_t R = 0, E = Prog.lastSlots().size(); R != E; ++R) {
    LastVal[R * LaneCap + Lane] = Value();
    LastInit[R * LaneCap + Lane] = 0;
  }
  for (size_t R = 0, E = Prog.delays().size(); R != E; ++R) {
    NextTs[R * LaneCap + Lane] = 0;
    NextTsSet[R * LaneCap + Lane] = 0;
  }
}

bool BatchedMonitor::feed(unsigned Lane, StreamId Input, Time Ts, Value V) {
  assert(Lane < NumLanes && Live[Lane] && "feed() targets a live lane");
  if (Failed[Lane])
    return false;
  if (EngineFinished || FinishedL[Lane]) {
    failLane(Lane, "feed() after finish()");
    return false;
  }
  assert(Prog.spec().stream(Input).Kind == StreamKind::Input &&
         "feed() targets must be input streams");
  Queue[Lane].emplace_back(Input, Ts, std::move(V));
  if (!InDirty[Lane]) {
    InDirty[Lane] = 1;
    DirtyLanes.push_back(Lane);
  }
  return true;
}

std::optional<Time> BatchedMonitor::minNextDelay(uint32_t Lane) const {
  std::optional<Time> Min;
  for (size_t I = 0, E = Prog.delays().size(); I != E; ++I) {
    size_t Idx = I * LaneCap + Lane;
    if (NextTsSet[Idx] && (!Min || NextTs[Idx] < *Min))
      Min = NextTs[Idx];
  }
  return Min;
}

/// Consumes buffered records of \p Lane until the lane either drains its
/// queue (returns false) or needs a calculation run (returns true with
/// RunTs[Lane] set). Re-applies Monitor::feed's validation, deferred:
/// check order and messages are identical, including that a rejected
/// record's pending timestamp is never calculated (the lane fails before
/// its flush, exactly as a failed feed() leaves Monitor).
bool BatchedMonitor::prepareLane(uint32_t Lane) {
  auto &Q = Queue[Lane];
  for (;;) {
    if (QueuePos[Lane] == Q.size()) {
      Q.clear();
      QueuePos[Lane] = 0;
      return false;
    }
    PendingRecord &R = Q[QueuePos[Lane]];
    if (R.Ts < 0) {
      failLaneAt(Lane, R.Ts, R.Input, "timestamps must be non-negative");
      return false;
    }
    if (R.Ts < PendingTs[Lane] || (CalcDone[Lane] && R.Ts == PendingTs[Lane])) {
      failLaneAt(Lane, R.Ts, R.Input,
                 "input events must arrive in timestamp order");
      return false;
    }
    SlotId Slot = Prog.valueSlot(R.Input);
    if (R.Ts > PendingTs[Lane]) {
      // Monitor::flushBefore(R.Ts): first the pending timestamp's own
      // calculation, then every armed delay strictly before R.Ts — each
      // is one lockstep sweep; this lane re-enters here afterwards.
      if (!CalcDone[Lane]) {
        RunTs[Lane] = PendingTs[Lane];
        return true;
      }
      if (!Prog.delays().empty()) {
        if (std::optional<Time> Min = minNextDelay(Lane); Min && *Min < R.Ts) {
          RunTs[Lane] = *Min;
          return true;
        }
      }
      PendingTs[Lane] = R.Ts;
      CalcDone[Lane] = 0;
    } else if (Present[idx(Slot, Lane)]) {
      failLaneAt(Lane, R.Ts, R.Input,
                 "two events on one stream at the same timestamp");
      return false;
    }
    setLane(Slot, Lane, std::move(R.V));
    ++NumFed[Lane];
    ++QueuePos[Lane];
  }
}

void BatchedMonitor::sweep() {
  ++NumSweeps;
  const size_t Cap = LaneCap;
  for (uint32_t L : Active)
    ++NumCalcRuns[L];

  // --- Calculation section: Monitor::runCalc with the per-step switch
  // hoisted outside the lane loop. A lane that fails mid-sweep is
  // skipped by every following loop — the per-lane equivalent of
  // runCalc's early return.
  for (const ProgramStep &Step : Prog.steps()) {
    switch (Step.Op) {
    case Opcode::Skip:
      break; // inputs were buffered by prepareLane(); nil never fires
    case Opcode::Const:
      for (uint32_t L : Active) {
        if (AnyFailed && Failed[L])
          continue;
        if (RunTs[L] == 0)
          setLane(Step.Dst, L, Step.ConstVal);
      }
      break;
    case Opcode::Time: {
      const size_t ARow = static_cast<size_t>(Step.ArgSlot[0]) * Cap;
      for (uint32_t L : Active) {
        if (AnyFailed && Failed[L])
          continue;
        if (Present[ARow + L])
          setLane(Step.Dst, L, Value::integer(RunTs[L]));
      }
      break;
    }
    case Opcode::Last: {
      const size_t TRow = static_cast<size_t>(Step.ArgSlot[1]) * Cap;
      const size_t LRow = static_cast<size_t>(Step.Aux) * Cap;
      for (uint32_t L : Active) {
        if (AnyFailed && Failed[L])
          continue;
        if (Present[TRow + L] && LastInit[LRow + L])
          setLane(Step.Dst, L, LastVal[LRow + L]);
      }
      break;
    }
    case Opcode::Delay: {
      const size_t NRow = static_cast<size_t>(Step.Aux) * Cap;
      for (uint32_t L : Active) {
        if (AnyFailed && Failed[L])
          continue;
        if (NextTsSet[NRow + L] && NextTs[NRow + L] == RunTs[L])
          setLane(Step.Dst, L, Value::unit());
      }
      break;
    }
    case Opcode::LiftAll:
      for (uint32_t L : Active) {
        if (AnyFailed && Failed[L])
          continue;
        const Value *Args[3];
        bool AllPresent = true;
        for (unsigned I = 0; I != Step.NumArgs; ++I) {
          size_t AI = idx(Step.ArgSlot[I], L);
          if (!Present[AI]) {
            AllPresent = false;
            break;
          }
          Args[I] = &Cur[AI];
        }
        if (!AllPresent)
          continue;
        EvalError Err;
        Value Result = Step.Impl(Args, Step.InPlace, Err);
        if (Err.Failed) {
          failLaneAt(L, RunTs[L], Step.Id, Err.Message);
          continue;
        }
        setLane(Step.Dst, L, std::move(Result));
      }
      break;
    case Opcode::LiftMerge:
      // merge: the first stream's event wins (f_merge, §II).
      for (uint32_t L : Active) {
        if (AnyFailed && Failed[L])
          continue;
        for (unsigned I = 0; I != Step.NumArgs; ++I) {
          size_t AI = idx(Step.ArgSlot[I], L);
          if (Present[AI]) {
            setLane(Step.Dst, L, Cur[AI]);
            break;
          }
        }
      }
      break;
    case Opcode::LiftFirstRest:
      for (uint32_t L : Active) {
        if (AnyFailed && Failed[L])
          continue;
        size_t FI = idx(Step.ArgSlot[0], L);
        if (!Present[FI])
          continue;
        const Value *Args[3] = {nullptr, nullptr, nullptr};
        bool AnyRest = false;
        Args[0] = &Cur[FI];
        for (unsigned I = 1; I != Step.NumArgs; ++I) {
          size_t AI = idx(Step.ArgSlot[I], L);
          if (Present[AI]) {
            Args[I] = &Cur[AI];
            AnyRest = true;
          }
        }
        if (!AnyRest)
          continue;
        EvalError Err;
        Value Result = Step.Impl(Args, Step.InPlace, Err);
        if (Err.Failed) {
          failLaneAt(L, RunTs[L], Step.Id, Err.Message);
          continue;
        }
        setLane(Step.Dst, L, std::move(Result));
      }
      break;
    case Opcode::LiftFilter: {
      // filter(a, c): pass a's event iff c is currently true.
      const size_t ARow = static_cast<size_t>(Step.ArgSlot[0]) * Cap;
      const size_t CRow = static_cast<size_t>(Step.ArgSlot[1]) * Cap;
      for (uint32_t L : Active) {
        if (AnyFailed && Failed[L])
          continue;
        if (!Present[ARow + L] || !Present[CRow + L])
          continue;
        const Value &Cond = Cur[CRow + L];
        if (Cond.kind() != Value::Kind::Bool) {
          failLaneAt(L, RunTs[L], Step.Id, "filter condition is not a Bool");
          continue;
        }
        if (Cond.getBool())
          setLane(Step.Dst, L, Cur[ARow + L]);
      }
      break;
    }
    case Opcode::ConstTick: {
      // Collapsed held constant: fires at timestamp 0 and with every
      // trigger event, always carrying the same scalar.
      const size_t ARow = static_cast<size_t>(Step.ArgSlot[0]) * Cap;
      for (uint32_t L : Active) {
        if (AnyFailed && Failed[L])
          continue;
        if (RunTs[L] == 0 || Present[ARow + L])
          setLane(Step.Dst, L, Step.ConstVal);
      }
      break;
    }
    case Opcode::FusedLastLift: {
      // Consumer lift with a fused last(v, r) as first argument: fires
      // when r fires, the last slot is initialized, and the remaining
      // arguments are present — byte-identical to the unfused pair.
      const size_t TRow = static_cast<size_t>(Step.ArgSlot[0]) * Cap;
      const size_t LRow = static_cast<size_t>(Step.Aux) * Cap;
      for (uint32_t L : Active) {
        if (AnyFailed && Failed[L])
          continue;
        if (!Present[TRow + L] || !LastInit[LRow + L])
          continue;
        const Value *Args[3];
        Args[0] = &LastVal[LRow + L];
        bool AllPresent = true;
        for (unsigned I = 1; I != Step.NumArgs; ++I) {
          size_t AI = idx(Step.ArgSlot[I], L);
          if (!Present[AI]) {
            AllPresent = false;
            break;
          }
          Args[I] = &Cur[AI];
        }
        if (!AllPresent)
          continue;
        EvalError Err;
        Value Result = Step.Impl(Args, Step.InPlace, Err);
        if (Err.Failed) {
          failLaneAt(L, RunTs[L], Step.Id, Err.Message);
          continue;
        }
        setLane(Step.Dst, L, std::move(Result));
      }
      break;
    }
    case Opcode::FusedLiftLift:
      // Consumer lift with its single-consumer producer inlined. The
      // producer is evaluated whenever *its* arguments are present —
      // even if the consumer's rest is absent — so destructive updates
      // and error behavior match the unfused program exactly; the
      // temporary is simply discarded when the consumer cannot fire.
      for (uint32_t L : Active) {
        if (AnyFailed && Failed[L])
          continue;
        const Value *Inner[3];
        bool InnerPresent = true;
        for (unsigned I = 0; I != Step.FusedArity; ++I) {
          size_t AI = idx(Step.ArgSlot[I], L);
          if (!Present[AI]) {
            InnerPresent = false;
            break;
          }
          Inner[I] = &Cur[AI];
        }
        if (!InnerPresent)
          continue;
        EvalError Err;
        Value Tmp = Step.Impl2(Inner, Step.InPlace2, Err);
        if (Err.Failed) {
          failLaneAt(L, RunTs[L], Step.FusedId, Err.Message);
          continue;
        }
        const Value *Args[3];
        Args[0] = &Tmp;
        bool AllPresent = true;
        for (unsigned I = Step.FusedArity; I != Step.NumArgs; ++I) {
          size_t AI = idx(Step.ArgSlot[I], L);
          if (!Present[AI]) {
            AllPresent = false;
            break;
          }
          Args[1 + I - Step.FusedArity] = &Cur[AI];
        }
        if (!AllPresent)
          continue;
        EvalError Err2;
        Value Result = Step.Impl(Args, Step.InPlace, Err2);
        if (Err2.Failed) {
          failLaneAt(L, RunTs[L], Step.Id, Err2.Message);
          continue;
        }
        setLane(Step.Dst, L, std::move(Result));
      }
      break;
    }
  }

  // --- Emit outputs: per lane in definition order, so each lane's
  // output sequence is exactly its Monitor's. Values are deep-copied for
  // the same reason the fleet's output handler deep-copies: the
  // aggregate behind a slot is destructively updated at later
  // timestamps.
  for (uint32_t L : Active) {
    if (AnyFailed && Failed[L])
      continue;
    for (const OutputSlot &Out : Prog.outputs()) {
      size_t I = idx(Out.ValueSlot, L);
      if (Present[I]) {
        ++NumOutputs[L];
        if (CollectOutputs)
          Outputs[L].push_back({RunTs[L], Out.Id, Cur[I]});
      }
    }
  }

  // --- End of calculation: update *_last rows. ---
  for (size_t I = 0, E = Prog.lastSlots().size(); I != E; ++I) {
    const size_t VRow =
        static_cast<size_t>(Prog.lastSlots()[I].ValueSlot) * Cap;
    const size_t LRow = I * Cap;
    for (uint32_t L : Active) {
      if (AnyFailed && Failed[L])
        continue;
      if (Present[VRow + L]) {
        LastVal[LRow + L] = Cur[VRow + L];
        LastInit[LRow + L] = 1;
      }
    }
  }

  // --- Delay scheduling: an event of the reset stream or the delay
  // itself is a reset; with a delays-value event it re-arms the timer,
  // without one it cancels it. A lane failing at delay I skips delays
  // I+1.. via its Failed flag, like runCalc's return.
  for (size_t I = 0, E = Prog.delays().size(); I != E; ++I) {
    const DelaySlot &D = Prog.delays()[I];
    const size_t RRow = static_cast<size_t>(D.ResetSlot) * Cap;
    const size_t VRow = static_cast<size_t>(D.ValueSlot) * Cap;
    const size_t DRow = static_cast<size_t>(D.DelaysSlot) * Cap;
    const size_t NRow = I * Cap;
    for (uint32_t L : Active) {
      if (AnyFailed && Failed[L])
        continue;
      if (!Present[RRow + L] && !Present[VRow + L])
        continue;
      if (Present[DRow + L]) {
        int64_t Amount = Cur[DRow + L].getInt();
        if (Amount <= 0) {
          failLaneAt(L, RunTs[L], D.Id, "delay amounts must be positive");
          continue;
        }
        NextTs[NRow + L] = RunTs[L] + Amount;
        NextTsSet[NRow + L] = 1;
      } else {
        NextTsSet[NRow + L] = 0;
      }
    }
  }

  // --- Reset current-value slots for the lane's next timestamp, and
  // retire pending calculations. ---
  for (uint32_t L : Active) {
    if (AnyFailed && Failed[L])
      continue;
    for (SlotId Slot : Touched[L]) {
      size_t I = idx(Slot, L);
      Present[I] = 0;
      Cur[I] = Value(); // release aggregate handles promptly
    }
    Touched[L].clear();
    if (!CalcDone[L])
      CalcDone[L] = 1; // this sweep was the lane's pending calculation
  }
}

void BatchedMonitor::pump() {
  // Strip-mined: dirty lanes are processed in fixed-size tiles, each
  // tile swept to completion before the next begins. One maximal sweep
  // over every dirty lane would amortize dispatch best, but its per-step
  // row walk touches lanes * sizeof(Value) bytes per slot — past a few
  // hundred lanes the engine rows overflow L2 and every sweep pays DRAM
  // latency. A tile keeps the dispatch amortization (up to TileLanes
  // wide) while the tile's rows stay cache-resident across all of its
  // sweeps.
  for (size_t Pos = 0, E = DirtyLanes.size(); Pos < E;) {
    const size_t End = std::min(Pos + TileLanes, E);
    for (;;) {
      Active.clear();
      for (size_t I = Pos; I != End; ++I) {
        uint32_t L = DirtyLanes[I];
        if (Live[L] && !Failed[L] && !FinishedL[L] && prepareLane(L))
          Active.push_back(L);
      }
      if (Active.empty())
        break;
      sweep();
    }
    // Every lane of the tile drained (or failed/finished: their records
    // are dropped, as a failed Monitor drops subsequent feeds).
    for (size_t I = Pos; I != End; ++I) {
      uint32_t L = DirtyLanes[I];
      InDirty[L] = 0;
      Queue[L].clear();
      QueuePos[L] = 0;
    }
    Pos = End;
  }
  DirtyLanes.clear();
}

void BatchedMonitor::finishAll(std::optional<Time> Horizon) {
  pump();
  // Monitor::finish's drain bound.
  Time Bound = Horizon ? (*Horizon == std::numeric_limits<Time>::max()
                              ? *Horizon
                              : *Horizon + 1)
                       : std::numeric_limits<Time>::max();
  // Tiled like pump(), and legal for the same reason: lanes share no
  // state, so draining them tile by tile reorders only independent work.
  for (uint32_t Base = 0; Base < NumLanes; Base += TileLanes) {
    const uint32_t End =
        static_cast<uint32_t>(std::min<size_t>(Base + TileLanes, NumLanes));
    for (;;) {
      Active.clear();
      for (uint32_t L = Base; L != End; ++L) {
        if (!Live[L] || Failed[L] || FinishedL[L])
          continue;
        if (!CalcDone[L]) {
          RunTs[L] = PendingTs[L];
          Active.push_back(L);
          continue;
        }
        if (std::optional<Time> Min = minNextDelay(L); Min && *Min < Bound) {
          RunTs[L] = *Min;
          Active.push_back(L);
          continue;
        }
        FinishedL[L] = 1;
      }
      if (Active.empty())
        break;
      sweep();
    }
  }
  EngineFinished = true;
}

BatchedMonitor::LaneState BatchedMonitor::extractLane(unsigned Lane) {
  assert(Lane < NumLanes && Live[Lane] && "extractLane() targets a live lane");
  assert(laneIdle(Lane) == (QueuePos[Lane] == Queue[Lane].size()));
  LaneState S;
  S.Session = Session[Lane];
  S.PendingTs = PendingTs[Lane];
  S.CalcDone = CalcDone[Lane] != 0;
  S.Failed = Failed[Lane] != 0;
  S.Error = std::move(ErrMsg[Lane]);
  S.NumFed = NumFed[Lane];
  S.NumOutputs = NumOutputs[Lane];
  S.NumCalcRuns = NumCalcRuns[Lane];
  S.Cur.resize(NumSlots);
  S.Present.assign(NumSlots, 0);
  for (uint32_t Slot = 0; Slot != NumSlots; ++Slot) {
    size_t I = idx(Slot, Lane);
    S.Cur[Slot] = std::move(Cur[I]);
    Cur[I] = Value();
    S.Present[Slot] = Present[I];
    Present[I] = 0;
  }
  size_t Lasts = Prog.lastSlots().size();
  S.LastVal.resize(Lasts);
  S.LastInit.assign(Lasts, 0);
  for (size_t R = 0; R != Lasts; ++R) {
    size_t I = R * LaneCap + Lane;
    S.LastVal[R] = std::move(LastVal[I]);
    LastVal[I] = Value();
    S.LastInit[R] = LastInit[I];
    LastInit[I] = 0;
  }
  size_t Delays = Prog.delays().size();
  S.NextTs.assign(Delays, 0);
  S.NextTsSet.assign(Delays, 0);
  for (size_t R = 0; R != Delays; ++R) {
    size_t I = R * LaneCap + Lane;
    S.NextTs[R] = NextTs[I];
    NextTs[I] = 0;
    S.NextTsSet[R] = NextTsSet[I];
    NextTsSet[I] = 0;
  }
  S.Queue.assign(std::make_move_iterator(Queue[Lane].begin() + QueuePos[Lane]),
                 std::make_move_iterator(Queue[Lane].end()));
  S.Outputs = std::move(Outputs[Lane]);
  Queue[Lane].clear();
  QueuePos[Lane] = 0;
  Touched[Lane].clear();
  Outputs[Lane].clear();
  Live[Lane] = 0;
  --NumLive;
  FreeLanes.push_back(Lane);
  return S;
}

BatchedMonitor::LaneState BatchedMonitor::snapshotLane(unsigned Lane) const {
  assert(Lane < NumLanes && Live[Lane] &&
         "snapshotLane() targets a live lane");
  LaneState S;
  S.Session = Session[Lane];
  S.PendingTs = PendingTs[Lane];
  S.CalcDone = CalcDone[Lane] != 0;
  S.Failed = Failed[Lane] != 0;
  S.Error = ErrMsg[Lane];
  S.NumFed = NumFed[Lane];
  S.NumOutputs = NumOutputs[Lane];
  S.NumCalcRuns = NumCalcRuns[Lane];
  S.Cur.resize(NumSlots);
  S.Present.assign(NumSlots, 0);
  for (uint32_t Slot = 0; Slot != NumSlots; ++Slot) {
    size_t I = idx(Slot, Lane);
    S.Cur[Slot] = Cur[I]; // O(1) per slot: handles share structure
    S.Present[Slot] = Present[I];
  }
  size_t Lasts = Prog.lastSlots().size();
  S.LastVal.resize(Lasts);
  S.LastInit.assign(Lasts, 0);
  for (size_t R = 0; R != Lasts; ++R) {
    size_t I = R * LaneCap + Lane;
    S.LastVal[R] = LastVal[I];
    S.LastInit[R] = LastInit[I];
  }
  size_t Delays = Prog.delays().size();
  S.NextTs.assign(Delays, 0);
  S.NextTsSet.assign(Delays, 0);
  for (size_t R = 0; R != Delays; ++R) {
    size_t I = R * LaneCap + Lane;
    S.NextTs[R] = NextTs[I];
    S.NextTsSet[R] = NextTsSet[I];
  }
  S.Queue.assign(Queue[Lane].begin() + QueuePos[Lane], Queue[Lane].end());
  S.Outputs = Outputs[Lane];
  return S;
}

void BatchedMonitor::visitValues(
    const std::function<void(const Value &)> &Fn) const {
  for (uint32_t Lane = 0; Lane != NumLanes; ++Lane) {
    if (!Live[Lane])
      continue;
    for (uint32_t Slot = 0; Slot != NumSlots; ++Slot)
      Fn(Cur[idx(Slot, Lane)]);
    for (size_t R = 0, E = Prog.lastSlots().size(); R != E; ++R)
      Fn(LastVal[R * LaneCap + Lane]);
    for (size_t I = QueuePos[Lane], E = Queue[Lane].size(); I != E; ++I)
      Fn(Queue[Lane][I].V);
    for (const OutputEvent &E : Outputs[Lane])
      Fn(E.V);
  }
}

unsigned BatchedMonitor::insertLane(LaneState S) {
  uint32_t L = allocLane(S.Session);
  PendingTs[L] = S.PendingTs;
  CalcDone[L] = S.CalcDone;
  Failed[L] = S.Failed;
  if (S.Failed)
    AnyFailed = true;
  ErrMsg[L] = std::move(S.Error);
  NumFed[L] = S.NumFed;
  NumOutputs[L] = S.NumOutputs;
  NumCalcRuns[L] = S.NumCalcRuns;
  assert(S.Cur.size() == NumSlots && "lane state is for another program");
  for (uint32_t Slot = 0; Slot != NumSlots; ++Slot) {
    size_t I = idx(Slot, L);
    Cur[I] = std::move(S.Cur[Slot]);
    Present[I] = S.Present[Slot];
    // Rebuild the touched list from presence: reset order is
    // unobservable, membership is what matters.
    if (Present[I])
      Touched[L].push_back(Slot);
  }
  for (size_t R = 0, E = Prog.lastSlots().size(); R != E; ++R) {
    size_t I = R * LaneCap + L;
    LastVal[I] = std::move(S.LastVal[R]);
    LastInit[I] = S.LastInit[R];
  }
  for (size_t R = 0, E = Prog.delays().size(); R != E; ++R) {
    size_t I = R * LaneCap + L;
    NextTs[I] = S.NextTs[R];
    NextTsSet[I] = S.NextTsSet[R];
  }
  Queue[L] = std::move(S.Queue);
  QueuePos[L] = 0;
  if (!Queue[L].empty() && !InDirty[L]) {
    InDirty[L] = 1;
    DirtyLanes.push_back(L);
  }
  Outputs[L] = std::move(S.Outputs);
  return L;
}
