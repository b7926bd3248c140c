//===- tests/Integration/CheckpointDifferentialTest.cpp ---------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// The checkpoint/restore headline property: run-to-T + suspend +
/// serialize (`.tcp`) + load + restore into a fleet of a *different*
/// shard count + run-to-end is byte-identical to an uninterrupted run —
/// proven differentially over a randomized corpus (delay, queue and map
/// builtins; -O0 and -O1) under the migration-hostile fleet shape
/// (every session pinned to one home shard, tiny rings, hair-trigger
/// stealing), so lanes are stolen both before the suspend and after the
/// restore. The corpus size and seed are env-overridable
/// (TESSLA_CORPUS_SPECS / TESSLA_CORPUS_SEED).
///
/// CI runs this suite under ASan/UBSan and TSan: the suspend drain, the
/// serialize of live engine state and the restore adoption handshake
/// are all checked against the engines' actual memory behavior.
///
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/Checkpoint.h"
#include "tessla/Runtime/MonitorFleet.h"

#include "../RandomSpecGen.h"
#include "../TestSpecs.h"

#include <gtest/gtest.h>

#include <map>

using namespace tessla;
using namespace tessla::testspecs;
using namespace tessla::testrandom;

namespace {

std::string renderLine(const Spec &S, SessionId Session,
                       const OutputEvent &E) {
  return "s" + std::to_string(Session) + "| " + formatEvent(S, E) + "\n";
}

/// Ground truth: every session through its own sequential Monitor.
std::string sequentialReference(const Program &Plan,
                                const std::vector<CorpusRecord> &Records) {
  std::map<SessionId, std::vector<TraceEvent>> PerSession;
  for (const CorpusRecord &R : Records)
    PerSession[R.Session].emplace_back(*Plan.spec().lookup(R.Input), R.Ts,
                                       R.V);
  std::string Out;
  for (const auto &[Session, Events] : PerSession) {
    std::string Error;
    auto Outputs = runMonitor(Plan, Events, std::nullopt, &Error);
    EXPECT_EQ(Error, "") << "session " << Session;
    for (const OutputEvent &E : Outputs)
      Out += renderLine(Plan.spec(), Session, E);
  }
  return Out;
}

/// Migration-hostile shape (same as EngineDifferentialTest): sessions
/// pin to shard 0, idle peers steal, tiny batches and rings.
FleetOptions hostileOptions(unsigned Shards) {
  FleetOptions Opts;
  Opts.Shards = Shards;
  Opts.BatchSize = 4;
  Opts.QueueCapacity = 4;
  Opts.StealBacklog = 1;
  Opts.Mode = FleetMode::PerSession;
  return Opts;
}

/// Session ids that all hash-pin to shard 0 of a 4-shard fleet.
std::vector<SessionId> pinnedSessions(const Program &Plan, size_t Count) {
  MonitorFleet Probe(Plan, hostileOptions(4));
  std::vector<SessionId> Ids;
  for (SessionId Id = 0; Ids.size() < Count && Id < 100000; ++Id)
    if (Probe.shardOf(Id) == 0)
      Ids.push_back(Id);
  EXPECT_EQ(Ids.size(), Count);
  Probe.finish();
  return Ids;
}

/// Interleaves per-session traces into one arrival order: round-robin
/// with a seeded random pick, per-session order preserved. Any prefix of
/// the result is itself a valid arrival order, which is what makes the
/// mid-stream cut below well-formed.
std::vector<CorpusRecord>
interleave(const Spec &S, const std::vector<SessionId> &Sessions,
           const std::vector<std::vector<TraceEvent>> &Traces,
           uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::vector<size_t> Next(Traces.size(), 0);
  std::vector<CorpusRecord> Out;
  size_t Remaining = 0;
  for (const auto &T : Traces)
    Remaining += T.size();
  Out.reserve(Remaining);
  while (Remaining != 0) {
    size_t Pick = Rng() % Traces.size();
    if (Next[Pick] == Traces[Pick].size())
      continue;
    const auto &[Id, Ts, V] = Traces[Pick][Next[Pick]++];
    Out.push_back({Sessions[Pick], S.stream(Id).Name, Ts, V});
    --Remaining;
  }
  return Out;
}

/// Feeds \p Records into \p Fleet through one handle.
void feedAll(MonitorFleet &Fleet, const Program &Plan,
             const std::vector<CorpusRecord> &Records) {
  ProducerHandle P = Fleet.producer();
  for (const CorpusRecord &R : Records)
    EXPECT_TRUE(
        P.feed(R.Session, *Plan.spec().lookup(R.Input), R.Ts, R.V));
  P.close();
}

std::string takeRendered(MonitorFleet &Fleet, const Spec &S) {
  std::string Out;
  for (const SessionOutputEvent &E : Fleet.takeOutputs())
    Out += renderLine(S, E.Session, E.Event);
  return Out;
}

/// The interrupted run: feed the first \p SplitAt records into a
/// 4-shard hostile fleet, suspend, serialize, load, restore into a
/// 2-shard hostile fleet, feed the rest, finish. \returns the rendered
/// full trace, or nullopt (with a test failure recorded) on any stage
/// error.
std::optional<std::string>
migratedRun(const Program &Plan, const std::vector<CorpusRecord> &Records,
            size_t SplitAt, uint64_t *StealsOut) {
  std::vector<CorpusRecord> Head(Records.begin(),
                                 Records.begin() + SplitAt);
  std::vector<CorpusRecord> Tail(Records.begin() + SplitAt,
                                 Records.end());

  MonitorFleet FleetA(Plan, hostileOptions(4));
  feedAll(FleetA, Plan, Head);
  std::string Err;
  FleetCheckpoint C;
  C.ProgramChecksum = programChecksum(Plan);
  C.SourceShards = 4;
  C.Lanes = FleetA.suspend(&Err);
  if (!Err.empty()) {
    ADD_FAILURE() << "suspend failed: " << Err;
    return std::nullopt;
  }
  FleetStats StatsA = FleetA.stats();

  // Across the byte boundary: the restored fleet sees only the bytes.
  std::vector<uint8_t> Bytes = serializeCheckpoint(C);
  DiagnosticEngine Diags;
  auto Loaded = loadCheckpoint(Bytes, Plan, Diags);
  if (!Loaded) {
    ADD_FAILURE() << "checkpoint did not load: " << Diags.str();
    return std::nullopt;
  }

  MonitorFleet FleetB(Plan, hostileOptions(2));
  if (!FleetB.restore(std::move(Loaded->Lanes))) {
    ADD_FAILURE() << "restore rejected";
    FleetB.finish();
    return std::nullopt;
  }
  feedAll(FleetB, Plan, Tail);
  FleetB.finish();
  EXPECT_FALSE(FleetB.failed())
      << (FleetB.errors().empty() ? std::string()
                                  : FleetB.errors().front().Message);
  if (StealsOut)
    *StealsOut +=
        StatsA.totalSessionsStolen() + FleetB.stats().totalSessionsStolen();
  return takeRendered(FleetB, Plan.spec());
}

} // namespace

// The acceptance property: >= 30 random specs (queue/map ops always on,
// delay streams on every third seed) x -O0/-O1, each cut at a
// mid-stream point, checkpointed out of a 4-shard fleet and resumed in
// a 2-shard fleet, byte-identical to the sequential reference. Guards
// vacuity: outputs nonempty, suspended lanes nonempty, steals happened
// on the hostile shape.
TEST(CheckpointDifferentialTest, CorpusByteIdenticalAcrossMigration) {
  const uint64_t Seed0 = corpusSeed();
  const size_t NumSpecs = corpusSpecs(30);
  uint64_t Steals = 0;
  size_t OutputBytes = 0;
  for (uint64_t Seed = Seed0; Seed != Seed0 + NumSpecs; ++Seed) {
    RandomSpecOptions Opts;
    Opts.WithQueueOps = true;
    Opts.WithDelay = Seed % 3 == 0;
    Spec S = randomSpec(Seed, Opts);

    std::vector<std::vector<TraceEvent>> Traces;
    for (unsigned Session = 0; Session != 5; ++Session)
      Traces.push_back(randomSpecTrace(S, 60, Seed * 10007 + Session));
    Program Probe = compileOrDie(S, true);
    std::vector<SessionId> Sessions = pinnedSessions(Probe, Traces.size());
    std::vector<CorpusRecord> Records =
        interleave(S, Sessions, Traces, Seed * 31 + 7);

    // Cut at a seed-dependent point strictly inside the trace, so the
    // corpus sweeps early, middle and late checkpoints.
    size_t SplitAt = 1 + (Seed * 2654435761u) % (Records.size() - 1);

    for (unsigned OptLevel : {0u, 1u}) {
      Program Plan = compileOrDie(S, /*Optimize=*/true, OptLevel);
      std::string Reference = sequentialReference(Plan, Records);
      auto Migrated = migratedRun(Plan, Records, SplitAt, &Steals);
      if (!Migrated)
        return;
      if (*Migrated != Reference) {
        ADD_FAILURE()
            << "checkpointed run diverged from the sequential reference "
            << "(seed " << Seed << ", -O" << OptLevel << ", split at "
            << SplitAt << "/" << Records.size() << ")\n"
            << S.str();
        return; // one diverging seed beats 30 raw failures
      }
      OutputBytes += Reference.size();
    }
  }
  EXPECT_GT(OutputBytes, 0u) << "vacuous comparison";
  EXPECT_GT(Steals, 0u)
      << "no lane was ever migrated; the migration axis is vacuous";
}

// The empty edge: checkpoint a fleet that never saw a record, restore,
// run the whole trace after the restore. Exercises zero-lane
// checkpoints end to end.
TEST(CheckpointDifferentialTest, EmptyCheckpointRestoresCleanly) {
  Spec S = randomSpec(1, RandomSpecOptions());
  Program Plan = compileOrDie(S, true, 1);

  MonitorFleet FleetA(Plan, hostileOptions(4));
  std::string Err;
  FleetCheckpoint C;
  C.ProgramChecksum = programChecksum(Plan);
  C.SourceShards = 4;
  C.Lanes = FleetA.suspend(&Err);
  ASSERT_EQ(Err, "");
  EXPECT_TRUE(C.Lanes.empty());

  std::vector<uint8_t> Bytes = serializeCheckpoint(C);
  DiagnosticEngine Diags;
  auto Loaded = loadCheckpoint(Bytes, Plan, Diags);
  ASSERT_TRUE(Loaded) << Diags.str();

  auto Trace = randomSpecTrace(S, 40, 99);
  std::vector<CorpusRecord> Records;
  for (const auto &[Id, Ts, V] : Trace)
    Records.push_back({7, S.stream(Id).Name, Ts, V});

  MonitorFleet FleetB(Plan, hostileOptions(2));
  ASSERT_TRUE(FleetB.restore(std::move(Loaded->Lanes)));
  feedAll(FleetB, Plan, Records);
  FleetB.finish();
  ASSERT_FALSE(FleetB.failed());
  EXPECT_EQ(takeRendered(FleetB, Plan.spec()),
            sequentialReference(Plan, Records));
}
