//===- tessla/Runtime/ExecutionEngine.h - Pluggable engines ----*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution-engine abstraction: one interface over the two ways a
/// shard (or a sequential tool) can run sessions of a Program —
///
///   * per-session  — one interpreter Monitor per lane (the reference
///                    engine; Runtime/Monitor.h),
///   * native       — sessions run compiled monitor code loaded from a
///                    shared object (CodeGen/NativeCompile.h; the
///                    factory is injected so the runtime library never
///                    links the code generator).
///
/// Both engines are *observationally identical* per session: same
/// outputs in the same per-session order, same failure points and
/// messages as a lone Monitor over the same records. The differential
/// corpus (tests/Integration/EngineDifferentialTest.cpp) enforces this
/// against the sequential interpreter reference.
///
/// Both engines are eager: feed() validates and applies a record before
/// it returns, so a lane holds no unapplied input between calls.
///
/// ## Lanes and the migration contract
///
/// A lane is one session's seat inside an engine. Lane indices are
/// engine-local and stable until extractLane() frees them. Engines that
/// report supportsMigration() implement the fleet's work-stealing
/// hand-off: extractLane() moves a lane's complete engine state into an
/// EngineLaneState snapshot and insertLane() revives it in a migratable
/// engine over the same Program, on this or another shard. As with
/// Monitor hand-off, the transfer must synchronize (release/acquire
/// happens-before the new owner's first use) and the old owner retains
/// nothing derived from the lane.
///
/// Engines are not thread-safe; one instance per shard/thread.
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_RUNTIME_EXECUTIONENGINE_H
#define TESSLA_RUNTIME_EXECUTIONENGINE_H

#include "tessla/Runtime/Monitor.h"
#include "tessla/Runtime/TraceIO.h"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace tessla {

/// A whole lane's engine state, extracted for migration. The snapshot is
/// engine-agnostic: it carries exactly the state a lone Monitor holds
/// between feeds (slot values and presence, last slots, armed delay
/// timers, the pending-timestamp cursor, counters), plus the session
/// attribution and recorded outputs. Movable across threads under the
/// usual synchronized hand-off contract.
struct EngineLaneState {
  SessionId Session = 0;
  Time PendingTs = 0;
  bool CalcDone = false;
  bool Failed = false;
  std::string Error;
  uint64_t NumFed = 0;
  uint64_t NumOutputs = 0;
  uint64_t NumCalcRuns = 0;
  /// Every slot of the lane in one vector, so a snapshot allocates
  /// twice however many tables the program has: the value slots
  /// [NumValueSlots = numValueSlots()+1], then the *_last slots
  /// [NumLastSlots = lastSlots()], then one Int per delay holding its
  /// armed timestamp [delays()].
  std::vector<Value> Slots;
  /// One flag per entry of Slots: presence, last slot initialized, timer
  /// armed.
  std::vector<char> Flags;
  uint32_t NumValueSlots = 0;
  uint32_t NumLastSlots = 0;
  std::vector<OutputEvent> Outputs;
};

/// The shard execution engine interface.
class ShardEngine {
public:
  virtual ~ShardEngine() = default;

  /// Adds a fresh lane for \p Session (identical to constructing a new
  /// Monitor). Returns the lane index, stable until extractLane().
  virtual unsigned addLane(SessionId Session) = 0;

  /// Feeds one input record into \p Lane, with Monitor::feed's
  /// validation. \returns false if the lane already failed or the
  /// engine finished.
  virtual bool feed(unsigned Lane, StreamId Input, Time Ts, Value V) = 0;

  /// End of input for every lane (Monitor::finish semantics, shared
  /// \p Horizon).
  virtual void finishAll(std::optional<Time> Horizon = std::nullopt) = 0;

  /// Whether extractLane()/insertLane() are implemented. The fleet only
  /// steals work from/into migratable engines.
  virtual bool supportsMigration() const { return false; }

  /// Extracts \p Lane for migration and frees its index for reuse.
  /// Only lanes of migratable engines may be extracted.
  virtual EngineLaneState extractLane(unsigned Lane);
  /// Inserts a migrated lane; returns its new lane index.
  virtual unsigned insertLane(EngineLaneState State);

  /// The non-destructive sibling of extractLane(): copies \p Lane's
  /// complete state into a snapshot while the lane stays live. Aggregate
  /// values are shared structurally (O(1) handle copies, sound under the
  /// copy-on-write runtime representation) — this is the fleet's session
  /// fork primitive. Only lanes of migratable engines may be
  /// snapshotted.
  virtual EngineLaneState snapshotLane(unsigned Lane) const;

  /// Visits every runtime Value the engine holds across all live lanes
  /// (slot state and recorded outputs) — the fleet's
  /// aggregate-memory accounting walk. Engines whose state lives outside
  /// the Value representation (native) keep the no-op default.
  virtual void visitValues(const std::function<void(const Value &)> &) const {
  }

  // --- Per-lane observers (valid for live lanes). ---
  virtual SessionId laneSession(unsigned Lane) const = 0;
  virtual bool laneFailed(unsigned Lane) const = 0;
  virtual const std::string &laneError(unsigned Lane) const = 0;
  /// Accepted input records (the fleet's steal heuristic).
  virtual uint64_t laneInputEvents(unsigned Lane) const = 0;
  virtual uint64_t laneOutputEvents(unsigned Lane) const = 0;
  /// Moves out the lane's recorded outputs (emission order).
  virtual std::vector<OutputEvent> takeLaneOutputs(unsigned Lane) = 0;

  /// Short engine name for stats/diagnostics ("per-session", "native").
  virtual const char *name() const = 0;
};

/// Creates a shard engine over \p Prog. The fleet instantiates one per
/// shard; sequential tools use a single instance. \p CollectOutputs
/// mirrors FleetOptions::CollectOutputs: when false, outputs are only
/// counted, never recorded.
using EngineFactory = std::function<std::unique_ptr<ShardEngine>(
    const Program &Prog, bool CollectOutputs)>;

/// One interpreter Monitor per lane — the reference engine. Migratable.
std::unique_ptr<ShardEngine> makePerSessionEngine(const Program &Prog,
                                                  bool CollectOutputs = true);

/// Sequential convenience: replays \p Batch through one lane of
/// \p Engine (sessions are ignored; the caller picked the engine), then
/// finishes it — the ShardEngine flavour of runMonitor(). Returns the
/// lane's outputs; \p ErrorOut receives the failure message or "".
std::vector<OutputEvent>
runEngineSingle(ShardEngine &Engine, const EventBatch &Batch,
                std::optional<Time> Horizon = std::nullopt,
                std::string *ErrorOut = nullptr);

} // namespace tessla

#endif // TESSLA_RUNTIME_EXECUTIONENGINE_H
