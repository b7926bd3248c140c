//===- tests/Runtime/FleetRaceRegressionTest.cpp ----------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// Regression pins for two ordering races fixed in the shard worker
/// loop, so the fixes are guarded by deterministic assertions rather
/// than only by TSan luck:
///
///  1. *Shutdown with in-flight forwarded records.* The worker exit
///     check used to snapshot its migration inbox before loading the
///     drained-workers count; a peer could forward records for a stolen
///     session in between, and the worker exited on the stale
///     empty-inbox read, silently dropping the forwarded events. The
///     fix loads the count first, making an empty-inbox observation
///     final. Pinned here by racing finish() against active stealing
///     and asserting no record (and no output) is ever lost.
///
///  2. *Cross-producer lowest-seq hand-off.* The lowest-sequence batch
///     merge popped after a single scan, so a lower-seq batch becoming
///     visible mid-scan (the earlier half of a cross-producer session
///     hand-off) could be processed after a higher-seq one, feeding a
///     session's later records first — which fails the session's
///     monitor with a timestamp-order error. The fix re-scans until the
///     selection is stable. Pinned here by hammering externally
///     synchronized A-flush-then-B hand-offs at BatchSize 1 (every
///     record its own sequence number) and asserting order-clean runs.
///
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/MonitorFleet.h"
#include "tessla/Runtime/TraceGen.h"

#include "../TestSpecs.h"

#include <gtest/gtest.h>

#include <map>

using namespace tessla;
using namespace tessla::testspecs;

namespace {

std::string renderLine(const Spec &S, SessionId Session,
                       const OutputEvent &E) {
  return "s" + std::to_string(Session) + "| " + formatEvent(S, E) + "\n";
}

std::string sequentialReference(
    const Program &Plan,
    const std::map<SessionId, std::vector<TraceEvent>> &Traces) {
  std::string Out;
  for (const auto &[Session, Events] : Traces) {
    std::string Error;
    auto Outputs = runMonitor(Plan, Events, std::nullopt, &Error);
    EXPECT_EQ(Error, "") << "session " << Session;
    for (const OutputEvent &E : Outputs)
      Out += renderLine(Plan.spec(), Session, E);
  }
  return Out;
}

/// Session ids that all hash-pin to shard 0 under \p Shards shards, so
/// the other shards are idle and steal (then the home shard forwards).
std::vector<SessionId> pinnedSessions(const Program &Plan, unsigned Shards,
                                      size_t Count) {
  FleetOptions Opts;
  Opts.Shards = Shards;
  MonitorFleet Probe(Plan, Opts);
  std::vector<SessionId> Ids;
  for (SessionId Id = 0; Ids.size() < Count && Id < 100000; ++Id)
    if (Probe.shardOf(Id) == 0)
      Ids.push_back(Id);
  EXPECT_EQ(Ids.size(), Count);
  Probe.finish();
  return Ids;
}

} // namespace

// Race 1: finish() while stolen sessions still have records being
// forwarded home-shard -> thief. Every record fed must be processed and
// every output emitted, under both execution engines. The feed loop
// hands records over and calls finish() immediately, so the drain race
// window (peers announcing completion while forwards are in flight) is
// hit on essentially every iteration; before the fix this dropped
// forwarded records, which the totalEvents() and byte-identity
// assertions catch deterministically.
TEST(FleetRaceRegressionTest, NoForwardedRecordLostAtShutdown) {
  Spec S = seenSet();
  StreamId X = *S.lookup("x");
  Program Plan = compileOrDie(S, true);
  std::vector<SessionId> Sessions = pinnedSessions(Plan, 4, 8);

  std::map<SessionId, std::vector<TraceEvent>> Traces;
  size_t TotalRecords = 0;
  for (size_t I = 0; I != Sessions.size(); ++I) {
    Traces[Sessions[I]] = tracegen::randomInts(X, 40, 30, 1000 + I);
    TotalRecords += Traces[Sessions[I]].size();
  }
  std::string Reference = sequentialReference(Plan, Traces);
  ASSERT_FALSE(Reference.empty()) << "vacuous comparison";

  uint64_t Steals = 0;
  for (unsigned Round = 0; Round != 30; ++Round) {
    FleetOptions Opts;
    Opts.Shards = 4;
    Opts.BatchSize = 2;     // many small batches: forwards stay in flight
    Opts.QueueCapacity = 4;
    Opts.StealBacklog = 1;  // hair trigger: steal on any backlog
    MonitorFleet Fleet(Plan, Opts);
    {
      ProducerHandle P = Fleet.producer();
      for (const auto &[Session, Events] : Traces)
        for (const auto &[Id, Ts, V] : Events)
          ASSERT_TRUE(P.feed(Session, Id, Ts, V));
    } // handle closes; finish() races the in-flight forwards
    Fleet.finish();
    ASSERT_FALSE(Fleet.failed())
        << (Fleet.errors().empty() ? std::string()
                                   : Fleet.errors().front().Message);
    EXPECT_EQ(Fleet.stats().totalEvents(), TotalRecords)
        << "round " << Round << ": records were dropped";
    std::string Out;
    for (const SessionOutputEvent &E : Fleet.takeOutputs())
      Out += renderLine(Plan.spec(), E.Session, E.Event);
    EXPECT_EQ(Out, Reference) << "round " << Round;
    Steals += Fleet.stats().totalSessionsStolen();
  }
  EXPECT_GT(Steals, 0u)
      << "no session was ever stolen; the regression is not exercised";
}

// Race 2: externally synchronized cross-producer session hand-off.
// Producer A feeds the first half of each session's trace and closes
// (flush happens-before B's first feed); producer B continues the same
// sessions. With BatchSize 1 every record is its own globally sequenced
// batch, so any unstable lowest-seq selection feeds some session a
// later record first — its monitor then fails with a timestamp-order
// error, which (with byte-identity) is the deterministic observable.
TEST(FleetRaceRegressionTest, CrossProducerHandOffKeepsSessionOrder) {
  Spec S = seenSet();
  StreamId X = *S.lookup("x");
  Program Plan = compileOrDie(S, true);

  std::map<SessionId, std::vector<TraceEvent>> Traces;
  for (SessionId Session = 0; Session != 12; ++Session)
    Traces[Session * 31 + 5] =
        tracegen::randomInts(X, 30, 25, 2000 + Session);
  std::string Reference = sequentialReference(Plan, Traces);
  ASSERT_FALSE(Reference.empty()) << "vacuous comparison";

  for (unsigned Round = 0; Round != 20; ++Round) {
    FleetOptions Opts;
    Opts.Shards = 1 + Round % 4;
    Opts.BatchSize = 1; // one record per sequenced batch
    Opts.QueueCapacity = 4;
    MonitorFleet Fleet(Plan, Opts);
    {
      ProducerHandle A = Fleet.producer();
      for (const auto &[Session, Events] : Traces)
        for (size_t I = 0; I != Events.size() / 2; ++I) {
          const auto &[Id, Ts, V] = Events[I];
          ASSERT_TRUE(A.feed(Session, Id, Ts, V));
        }
      A.close(); // happens-before B's feeds (same thread)
      ProducerHandle B = Fleet.producer();
      for (const auto &[Session, Events] : Traces)
        for (size_t I = Events.size() / 2; I != Events.size(); ++I) {
          const auto &[Id, Ts, V] = Events[I];
          ASSERT_TRUE(B.feed(Session, Id, Ts, V));
        }
    }
    Fleet.finish();
    // An unstable merge manifests as a failed session (out-of-order
    // feed), so byte-identity plus failure-freedom pins the fix.
    ASSERT_FALSE(Fleet.failed())
        << "round " << Round << ": "
        << (Fleet.errors().empty() ? std::string()
                                   : Fleet.errors().front().Message);
    std::string Out;
    for (const SessionOutputEvent &E : Fleet.takeOutputs())
      Out += renderLine(Plan.spec(), E.Session, E.Event);
    EXPECT_EQ(Out, Reference) << "round " << Round;
  }
}
