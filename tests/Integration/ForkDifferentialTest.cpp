//===- tests/Integration/ForkDifferentialTest.cpp ---------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// The session-fork headline property: forking a live session at a
/// mid-stream point and feeding the identical tail to both lanes is
/// byte-identical to two independent sessions fed the full trace — the
/// forked lane carries the head's recorded outputs and the O(1)
/// structure-shared aggregate state, and the copy-on-write
/// representation keeps the two lanes from observing each other's later
/// updates. Proven differentially over a randomized corpus (queue and
/// map builtins, delay streams on every third seed; both mutability
/// modes; -O0 and -O1) on the per-session engine under the
/// migration-hostile fleet shape, so forked lanes are also stolen
/// across shards mid-run. The corpus size and seed are env-overridable
/// (TESSLA_CORPUS_SPECS / TESSLA_CORPUS_SEED).
///
/// The native tier is the deliberate odd one out: compiled lanes are
/// not migratable, so forkSession must refuse — checked here so the
/// error contract is pinned alongside the property it protects.
///
//===----------------------------------------------------------------------===//

#include "tessla/CodeGen/NativeCompile.h"
#include "tessla/Runtime/MonitorFleet.h"

#include "../RandomSpecGen.h"
#include "../TestSpecs.h"

#include <gtest/gtest.h>

#include <map>

#if defined(__SANITIZE_THREAD__)
#define TESSLA_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TESSLA_TSAN 1
#endif
#endif
#ifndef TESSLA_TSAN
#define TESSLA_TSAN 0
#endif

using namespace tessla;
using namespace tessla::testspecs;
using namespace tessla::testrandom;

namespace {

/// One corpus compile configuration: mutability mode x opt level.
struct Config {
  bool Optimize;
  unsigned OptLevel;
};

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
FleetOptions hostileOptions(FleetMode Mode) {
  FleetOptions Opts;
  Opts.Shards = 4;
  Opts.BatchSize = 4;
  Opts.QueueCapacity = 4;
  Opts.StealBacklog = 1;
  Opts.Mode = Mode;
  return Opts;
}

/// Session ids that all hash-pin to shard 0 of a 4-shard fleet.
std::vector<SessionId> pinnedSessions(const Program &Plan, size_t Count) {
  MonitorFleet Probe(Plan, hostileOptions(FleetMode::PerSession));
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
/// the result is itself a valid arrival order, which makes the fork cut
/// below well-formed.
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

/// The forked run: feed the first \p SplitAt records, close the
/// producer, fork \p Src into \p Dst, then feed the tail — with every
/// tail record of \p Src duplicated to \p Dst. \returns the rendered
/// outputs, or nullopt (with a test failure recorded) on any stage
/// error.
std::optional<std::string>
forkedRun(const Program &Plan, const std::vector<CorpusRecord> &Records,
          size_t SplitAt, SessionId Src, SessionId Dst,
          uint64_t *StealsOut) {
  MonitorFleet Fleet(Plan, hostileOptions(FleetMode::PerSession));
  {
    ProducerHandle P = Fleet.producer();
    for (size_t I = 0; I != SplitAt; ++I) {
      const CorpusRecord &R = Records[I];
      EXPECT_TRUE(
          P.feed(R.Session, *Plan.spec().lookup(R.Input), R.Ts, R.V));
    }
    P.close();
  }
  std::string Err;
  if (!Fleet.forkSession(Src, Dst, &Err)) {
    ADD_FAILURE() << "fork failed: " << Err;
    Fleet.finish();
    return std::nullopt;
  }
  {
    ProducerHandle P = Fleet.producer();
    for (size_t I = SplitAt; I != Records.size(); ++I) {
      const CorpusRecord &R = Records[I];
      StreamId Id = *Plan.spec().lookup(R.Input);
      EXPECT_TRUE(P.feed(R.Session, Id, R.Ts, R.V));
      if (R.Session == Src) {
        EXPECT_TRUE(P.feed(Dst, Id, R.Ts, R.V));
      }
    }
    P.close();
  }
  Fleet.finish();
  EXPECT_FALSE(Fleet.failed())
      << (Fleet.errors().empty() ? std::string()
                                 : Fleet.errors().front().Message);
  if (StealsOut)
    *StealsOut += Fleet.stats().totalSessionsStolen();
  std::string Out;
  for (const SessionOutputEvent &E : Fleet.takeOutputs())
    Out += renderLine(Plan.spec(), E.Session, E.Event);
  return Out;
}

} // namespace

// The acceptance property: random specs x {baseline, optimized} x
// -O0/-O1 on the per-session engine, each forked at a mid-stream point;
// the forked run must be byte-identical to the sequential reference in
// which the fork destination is an independent session fed the source's
// full trace. Guards vacuity: outputs nonempty, steals happened on the
// hostile shape.
TEST(ForkDifferentialTest, ForkEqualsReplayAcrossEnginesAndOptLevels) {
  const uint64_t Seed0 = corpusSeed();
  const size_t NumSpecs = corpusSpecs(12);
  uint64_t Steals = 0;
  size_t OutputBytes = 0;
  for (uint64_t Seed = Seed0; Seed != Seed0 + NumSpecs; ++Seed) {
    RandomSpecOptions Opts;
    Opts.WithQueueOps = true;
    Opts.WithDelay = Seed % 3 == 0;
    Spec S = randomSpec(Seed, Opts);

    std::vector<std::vector<TraceEvent>> Traces;
    for (unsigned Session = 0; Session != 2; ++Session)
      Traces.push_back(randomSpecTrace(S, 60, Seed * 10007 + Session));
    Program Probe = compileOrDie(S, true);
    // Three pinned ids: two live sessions plus the fork destination.
    std::vector<SessionId> Ids = pinnedSessions(Probe, 3);
    std::vector<SessionId> Sessions(Ids.begin(), Ids.begin() + 2);
    const SessionId Src = Ids[0], Dst = Ids[2];
    std::vector<CorpusRecord> Records =
        interleave(S, Sessions, Traces, Seed * 31 + 7);

    // Cut at a seed-dependent point strictly inside the trace, so the
    // corpus sweeps early, middle and late forks.
    size_t SplitAt = 1 + (Seed * 2654435761u) % (Records.size() - 1);

    // The reference trace set: both live sessions in full, plus the
    // fork destination as an independent replay of the source.
    std::vector<CorpusRecord> WithDst = Records;
    for (const CorpusRecord &R : Records)
      if (R.Session == Src)
        WithDst.push_back({Dst, R.Input, R.Ts, R.V});

    for (Config Cfg : {Config{Seed % 2 == 0, 0}, Config{Seed % 2 == 0, 1}}) {
      Program Plan = compileOrDie(S, Cfg.Optimize, Cfg.OptLevel);
      std::string Reference = sequentialReference(Plan, WithDst);
      auto Forked = forkedRun(Plan, Records, SplitAt, Src, Dst, &Steals);
      if (!Forked)
        return;
      if (*Forked != Reference) {
        ADD_FAILURE() << "forked run diverged from the replay reference "
                      << "(seed " << Seed << ", "
                      << (Cfg.Optimize ? "optimized" : "baseline") << ", -O"
                      << Cfg.OptLevel << ", split at " << SplitAt << "/"
                      << Records.size() << ")\n"
                      << S.str();
        return; // one diverging seed beats the whole sweep
      }
      OutputBytes += Reference.size();
    }
  }
  EXPECT_GT(OutputBytes, 0u) << "vacuous comparison";
  EXPECT_GT(Steals, 0u)
      << "no lane was ever migrated; the migration axis is vacuous";
}

// The native tier refuses to fork: compiled lanes are not migratable,
// so the error contract — not a hang, not a crash — is the property.
TEST(ForkDifferentialTest, NativeFleetRefusesFork) {
#if TESSLA_TSAN
  GTEST_SKIP() << "native tier skipped under TSan (uninstrumented dlopen)";
#else
  Program Plan = compileOrDie(seenSet(), true, 1);
  std::string NativeErr;
  std::shared_ptr<NativeMonitorLibrary> Lib =
      compileNative(Plan, NativeCompileOptions(), NativeErr);
  if (!Lib)
    GTEST_SKIP() << "native tier unavailable: " << NativeErr;

  FleetOptions Opts = hostileOptions(FleetMode::Native);
  Opts.NativeFactory = makeNativeEngineFactory(Lib);
  MonitorFleet Fleet(Plan, Opts);
  ASSERT_EQ(Fleet.mode(), FleetMode::Native);
  StreamId X = *Plan.spec().lookup("x");
  {
    ProducerHandle P = Fleet.producer();
    EXPECT_TRUE(P.feed(1, X, 1, Value::integer(3)));
    P.close();
  }
  std::string Err;
  EXPECT_FALSE(Fleet.forkSession(1, 2, &Err));
  EXPECT_NE(Err.find("native"), std::string::npos) << Err;
  Fleet.finish();
  EXPECT_FALSE(Fleet.failed());
#endif
}
