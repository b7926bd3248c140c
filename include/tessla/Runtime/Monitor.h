//===- tessla/Runtime/Monitor.h - Monitor execution engine -----*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a lowered Program: the calculation section runs the program
/// steps in translation order for one timestamp; the triggering section
/// (§III-B) drives it — once per timestamp with buffered input events,
/// plus once per firing delay in the gaps between input timestamps.
///
/// The engine is deliberately thin: every step carries its pre-resolved
/// opcode, argument slots and builtin function pointer, so the per-event
/// work is one flat dispatch per step over dense slot arrays.
///
/// Usage:
/// \code
///   Monitor M(Prog);
///   M.setOutputHandler([](Time T, StreamId Id, const Value &V) { ... });
///   M.feed(InputId, 3, Value::integer(7));   // time-ordered
///   M.feed(InputId, 5, Value::integer(9));
///   M.finish();
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_RUNTIME_MONITOR_H
#define TESSLA_RUNTIME_MONITOR_H

#include "tessla/Program/Program.h"

#include <functional>
#include <optional>

namespace tessla {

/// One output event (also used for recorded traces).
struct OutputEvent {
  Time Ts;
  StreamId Id;
  Value V;
};

struct EngineLaneState; // Runtime/ExecutionEngine.h

/// The monitor engine. Not thread-safe; one instance per trace run.
///
/// Migration: a Monitor may be handed off between threads (the fleet's
/// work stealing moves whole sessions this way) provided the transfer
/// synchronizes (the release/acquire hand-off happens-before the new
/// owner's first call) and the old owner retains nothing derived from
/// it — in particular no borrowed output-handler Values. All slot state
/// (current values, *_last slots, scheduled delays) is ordinary owned
/// data, so moving the object is the whole migration; there is no
/// thread-affine hidden state.
class Monitor {
public:
  using OutputHandler =
      std::function<void(Time, StreamId, const Value &)>;

  explicit Monitor(const Program &Prog);

  /// Called for every event on an output-marked stream; emission happens
  /// once per timestamp after the calculation section, in stream
  /// definition order. Storing the Value (a handle copy) is safe and
  /// O(1): a handler-held handle is a sharer, so later in-place-verdict
  /// updates path-copy around it instead of mutating through it.
  void setOutputHandler(OutputHandler Handler) {
    this->Handler = std::move(Handler);
  }

  /// Feeds one input event. Events must arrive in non-decreasing
  /// timestamp order; at most one event per stream and timestamp.
  /// \returns false if the monitor already failed or the event was
  /// rejected (the error message tells why).
  bool feed(StreamId Input, Time Ts, Value V);

  /// Signals end of input (t = infinity in §III-B): processes the pending
  /// timestamp and drains scheduled delays. \p Horizon bounds the drain
  /// (inclusive) — required for self-resetting periodic delays, which
  /// would otherwise fire forever.
  void finish(std::optional<Time> Horizon = std::nullopt);

  bool failed() const { return Err.Failed; }
  const std::string &errorMessage() const { return Err.Message; }

  /// Number of calculation-section executions so far (statistics).
  uint64_t calcRuns() const { return NumCalcRuns; }
  /// Number of emitted output events so far.
  uint64_t outputEvents() const { return NumOutputs; }
  /// Number of accepted input events so far. The fleet's steal heuristic
  /// uses this as the "hot session" signal.
  uint64_t inputEvents() const { return NumFed; }

  /// Moves the monitor's complete engine state into a migratable lane
  /// snapshot (the fleet's engine-agnostic migration contract,
  /// Runtime/ExecutionEngine.h). Fills only the fields the monitor owns
  /// — session attribution and recorded outputs are the surrounding
  /// engine's to fill. The monitor must not be used afterwards.
  void extractState(EngineLaneState &Out);

  /// Restores a snapshot produced by extractState() or snapshotState()
  /// over the same Program into this freshly
  /// constructed monitor, consuming the snapshot's engine fields.
  void restoreState(EngineLaneState &State);

  /// The non-destructive sibling of extractState(): copies the complete
  /// engine state into \p Out while the monitor stays live. Aggregate
  /// values are shared structurally (O(1) handle copies) — sound under
  /// the copy-on-write runtime representation, where a later destructive
  /// update on either side sees the sharing and path-copies instead.
  /// This is the primitive behind session forking.
  void snapshotState(EngineLaneState &Out) const;

  /// Visits every Value the monitor holds (current-value slots, then
  /// *_last slots) — the fleet's aggregate-memory accounting walk.
  void visitValues(const std::function<void(const Value &)> &Fn) const;

private:
  const Program &Prog;
  OutputHandler Handler;
  EvalError Err;

  // Every slot, laid out as EngineLaneState::Slots so a snapshot is two
  // vector copies: the current-timestamp value slots (the paper's
  // per-stream variables) indexed by the program's dense SlotId, whose
  // trailing entry is the never-present dead slot shared by nil streams;
  // then the *_last slots (indexed like Program::lastSlots()) from
  // LastBase; then one Int per delay, its *_nextTs (indexed like
  // Program::delays()) from TimerBase. Flags is parallel: presence,
  // last slot initialized, timer armed.
  const SlotPlan &Plan;
  std::vector<Value> Slots;
  std::vector<char> Flags;
  std::vector<SlotId> Touched;
  uint32_t LastBase = 0;
  uint32_t TimerBase = 0;

  Value &lastVal(size_t I) { return Slots[LastBase + I]; }
  char &lastInit(size_t I) { return Flags[LastBase + I]; }

  Time PendingTs = 0;
  bool CalcDoneForPending = false;
  bool Finished = false;

  uint64_t NumCalcRuns = 0;
  uint64_t NumOutputs = 0;
  uint64_t NumFed = 0;

  void setValue(SlotId Slot, Value V);
  void runCalc(Time Ts);
  /// The calculation section proper; false when a step failed.
  bool runSteps(Time Ts);
  /// After a failed calculation: moves every moved last value that no
  /// update consumed back into its last slot.
  void unwindMovedLast();
  /// Runs the pending timestamp's calculation and all delay firings
  /// strictly before \p T.
  void flushBefore(Time T);
  std::optional<Time> minNextDelay() const;
  void failAt(Time Ts, StreamId Id, const std::string &Message);
};

/// Runs \p Events (already time-ordered) through a fresh monitor over
/// \p Prog, collecting outputs. Convenience for tests and benchmarks.
std::vector<OutputEvent>
runMonitor(const Program &Prog,
           const std::vector<std::tuple<StreamId, Time, Value>> &Events,
           std::optional<Time> Horizon = std::nullopt,
           std::string *ErrorOut = nullptr);

} // namespace tessla

#endif // TESSLA_RUNTIME_MONITOR_H
