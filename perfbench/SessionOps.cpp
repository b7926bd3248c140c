//===- perfbench/SessionOps.cpp - session-ops workload --------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Session operations on an in-process FleetClient (2 shards): four Seen
/// Set sessions holding 1e4 elements each are snapshotted live, forked
/// 64 times each, and then the sources and the forks are fed in
/// per-session chunks (so Auto picks the per-session engine), each fork
/// its own divergent input. This uses the aggregate layer the opposite
/// way to fig9-aggregates: every source shares its state with its forks,
/// so updates on either side must path-copy rather than mutate.
///
/// Every round starts from the same checkpoint of the preloaded
/// sessions, restored into a fresh client, so every round does the same
/// work and is checked against the same references: fresh-Monitor
/// replays of each session's full input (preload, then its chunk or, for
/// a fork, its divergent input). The optimized rounds also restore their
/// last live snapshot into another fresh client, feed it the sources'
/// chunks and check it too. Rounds alternate optimized and baseline
/// programs.
///
/// Every round runs on one CPU (ScopedCpuPin), its clients' threads
/// included: forks and snapshots hand work to a shard thread and wait
/// for the reply, and across CPUs that handoff waits for an idle virtual
/// CPU to wake, which follows the host's load rather than the program's
/// (the fork median moved 3x with unrelated load on the other CPUs).
///
/// The forks come before any feeding, so a fork copies the lane's state
/// handles but no recorded outputs. Feeding is asynchronous (records
/// queue in the shard rings), so the feed phase ends at a sentinel fork:
/// forkSession first waits until every queued record reached its lane,
/// which makes it the drain barrier.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>

namespace perfbench {
namespace {

constexpr unsigned BaseSessions = 4;
constexpr unsigned Shards = 2;
constexpr int64_t PreloadElements = 10000;
constexpr size_t ChunkPerSession = 2000;
/// 256 forks per round keep the round's 99th percentile off its maximum.
constexpr unsigned ForksPerSession = 64;
constexpr size_t DivergentPerFork = 64;
/// Distinct divergent inputs per source; fork J replays input J modulo
/// this, so the references need only this many replays per source.
constexpr unsigned DivergentInputs = 16;
/// Ten keep the round's 90th percentile off its slowest snapshot.
constexpr unsigned SnapshotsPerRound = 10;
/// 4 optimized rounds x 256 forks: at least 1000 fork samples per run.
constexpr unsigned MinRoundPairs = 4;
constexpr SessionId ForkBase = 1000;
constexpr SessionId Sentinel = 900000, Warmup = 900001;

FleetOptions fleetOptions() {
  FleetOptions FO;
  FO.Shards = Shards;
  return FO;
}

SessionId forkId(unsigned Src, unsigned J) {
  return ForkBase + Src * ForksPerSession + J;
}

/// randomInts shifted to start after timestamp \p After.
std::vector<TraceEvent> tail(StreamId X, size_t N, Time After,
                             uint64_t Seed) {
  std::vector<TraceEvent> T =
      tracegen::randomInts(X, N, 2 * PreloadElements, Seed);
  for (auto &[Id, Ts, V] : T)
    Ts += After;
  return T;
}

struct Inputs {
  std::vector<std::vector<TraceEvent>> Preload, Chunk;
  /// The sources' chunks, then every fork's divergent input.
  std::vector<EventRecord> ChunkRecords, FeedRecords;
  std::vector<uint8_t> StartOpt, StartBase; // preloaded checkpoints
  SessionDigests RestoreRef, FinishRef;
};

struct Samples {
  unsigned Pairs = 0;
  std::vector<double> SetupS, CompileS;
  std::vector<double> OptRate, BaseRate, RestoreMs;
  RoundSamples ForkUs, SnapshotMs;
  std::vector<double> DrainMs;
  std::vector<FleetCounters> Counters;
  std::vector<double> *FeedNs = nullptr, *PostForkNs = nullptr;
  std::vector<uint8_t> LastSnapshot;
};

class Runner {
public:
  Runner(Report &R, const Inputs &In) : R(R), In(In) {}

  /// One optimized and one baseline round, alternating which goes first.
  void roundPair(Samples &S, Tracer &T) {
    for (int K = 0; K != 2; ++K)
      round((K == 0) == (S.Pairs % 2 == 0), S, T);
    ++S.Pairs;
  }

private:
  /// Feeds \p Records through one producer, timing feeds to sources into
  /// \p FeedNs and to forks into \p PostForkNs. Returns the seconds.
  double feedAll(FleetClient &C, const std::vector<EventRecord> &Records,
                 std::vector<double> *FeedNs, std::vector<double> *PostForkNs) {
    std::string Err;
    auto A = Clock::now();
    std::unique_ptr<ClientProducer> P = C.producer(&Err);
    if (!R.check(P != nullptr, "producer: " + Err))
      return 0;
    uint64_t Refused = 0;
    for (const EventRecord &E : Records) {
      CallTimer Timer(E.Session >= ForkBase ? PostForkNs : FeedNs);
      Refused += !P->feed(E.Session, E.Input, E.Ts, E.V);
    }
    R.Attempted += Records.size();
    if (Refused)
      R.failure("records refused: " + P->error(), Refused);
    R.check(P->close(), "producer close: " + P->error());
    return secondsBetween(A, Clock::now());
  }

  void round(bool Optimized, Samples &S, Tracer &T) {
    SpanScope RS(T, Optimized ? "session.round_opt" : "session.round_base");
    ScopedCpuPin Pin; // the clients' threads start pinned too
    // Set-up: compile and construct a fresh client, every round.
    std::unique_ptr<Program> P;
    std::unique_ptr<FleetClient> C;
    {
      SpanScope DS(T, "session.deploy", RS.id());
      auto A = Clock::now();
      P = std::make_unique<Program>(
          compileOrDie(workloads::seenSet(), Optimized));
      S.CompileS.push_back(secondsBetween(A, Clock::now()));
      C = makeInProcessClient(*P, fleetOptions());
      S.SetupS.push_back(secondsBetween(A, Clock::now()));
    }
    std::string Err;
    if (!R.check(C->restore(Optimized ? In.StartOpt : In.StartBase, &Err)
                     .has_value(),
                 "restore of the preloaded sessions: " + Err))
      return;

    if (Optimized) {
      S.SnapshotMs.newRound();
      S.ForkUs.newRound();
      for (unsigned K = 0; K != SnapshotsPerRound; ++K) {
        SpanScope SS(T, "checkpoint.snapshot", RS.id());
        auto A = Clock::now();
        std::optional<std::vector<uint8_t>> Bytes = C->snapshot(&Err);
        S.SnapshotMs.add(secondsBetween(A, Clock::now()) * 1e3);
        if (!R.check(Bytes.has_value(), "snapshot: " + Err))
          return;
        if (K > 0 && *Bytes != S.LastSnapshot)
          R.mismatch("repeated live snapshots differ");
        S.LastSnapshot = std::move(*Bytes);
      }
    }
    // The workers are fresh (a new client, and an in-process snapshot
    // resumes on new threads); one unmeasured fork warms them up before
    // forks are timed.
    R.check(C->forkSession(0, Warmup, &Err), "warm-up fork: " + Err);
    for (unsigned Src = 0; Src != BaseSessions; ++Src)
      for (unsigned J = 0; J != ForksPerSession; ++J) {
        SpanScope FS(T, "fork.session", RS.id());
        auto A = Clock::now();
        bool Ok = C->forkSession(Src, forkId(Src, J), &Err);
        if (Optimized)
          S.ForkUs.add(
              std::chrono::duration<double, std::micro>(Clock::now() - A)
                  .count());
        R.check(Ok, "fork: " + Err);
      }
    {
      SpanScope FS(T, "session.feed", RS.id());
      double FeedS = feedAll(*C, In.FeedRecords, Optimized ? S.FeedNs : nullptr,
                             Optimized ? S.PostForkNs : nullptr);
      auto A = Clock::now();
      R.check(C->forkSession(0, Sentinel, &Err), "sentinel fork: " + Err);
      FeedS += secondsBetween(A, Clock::now());
      (Optimized ? S.OptRate : S.BaseRate)
          .push_back(static_cast<double>(In.FeedRecords.size()) / FeedS);
    }

    if (Optimized) {
      std::unique_ptr<FleetClient> D = makeInProcessClient(*P, fleetOptions());
      {
        SpanScope SS(T, "checkpoint.restore", RS.id());
        auto A = Clock::now();
        std::optional<uint64_t> N = D->restore(S.LastSnapshot, &Err);
        S.RestoreMs.push_back(secondsBetween(A, Clock::now()) * 1e3);
        if (!R.check(N.has_value(), "restore: " + Err))
          return;
      }
      feedAll(*D, In.ChunkRecords, nullptr, nullptr);
      if (std::optional<FleetFinish> F =
              finishChecked(R, *D, "restored client"))
        compareDigests(R, "restored snapshot vs fresh-Monitor replay",
                       In.RestoreRef, digestsOf(F->Outputs));
    }
    auto A = Clock::now();
    if (std::optional<FleetFinish> F = finishChecked(R, *C, "session round")) {
      if (Optimized)
        S.DrainMs.push_back(secondsBetween(A, Clock::now()) * 1e3);
      compareDigests(R,
                     std::string(Optimized ? "optimized" : "baseline") +
                         " sessions and forks vs fresh-Monitor replay",
                     In.FinishRef, digestsOf(F->Outputs));
      if (Optimized)
        if (std::optional<std::string> Text = C->statsText())
          S.Counters.push_back(parseFleetStats(*Text));
    }
  }

  Report &R;
  const Inputs &In;
};

/// A checkpoint of the base sessions after their preload (workload
/// preparation, outside every timing). Taken from a fleet that records
/// no outputs, so the restored sessions start with an empty output
/// history and a fork copies only what the round itself recorded.
std::vector<uint8_t> preloadCheckpoint(const Program &P, const Inputs &In,
                                       Report &R) {
  FleetOptions FO = fleetOptions();
  FO.CollectOutputs = false;
  std::unique_ptr<FleetClient> C = makeInProcessClient(P, FO);
  std::string Err;
  {
    std::unique_ptr<ClientProducer> Prod = C->producer(&Err);
    for (SessionId S = 0; S != BaseSessions; ++S)
      for (const auto &[Id, Ts, V] : In.Preload[S])
        Prod->feed(S, Id, Ts, V);
    R.check(Prod->close(), "preload: " + Prod->error());
  }
  std::optional<std::vector<uint8_t>> Bytes = C->snapshot(&Err);
  if (!Bytes) {
    std::fprintf(stderr, "perfbench: preload snapshot failed: %s\n",
                 Err.c_str());
    std::exit(1);
  }
  C->finish();
  return *Bytes;
}

Inputs makeInputs(StreamId X, const Program &Opt, const Program &Base,
                  uint64_t Seed, Report &R) {
  Inputs In;
  std::vector<EventRecord> ForkRecords;
  for (unsigned S = 0; S != BaseSessions; ++S) {
    // A shuffled run of distinct ints: exactly PreloadElements elements.
    std::vector<int64_t> Elems(PreloadElements);
    std::iota(Elems.begin(), Elems.end(), 0);
    std::mt19937_64 Rng(traceSeed(9000 + S, Seed));
    std::shuffle(Elems.begin(), Elems.end(), Rng);
    std::vector<TraceEvent> Pre;
    for (int64_t I = 0; I != PreloadElements; ++I)
      Pre.emplace_back(X, I + 1, Value::integer(Elems[I]));
    In.Preload.push_back(std::move(Pre));
    In.Chunk.push_back(tail(X, ChunkPerSession, PreloadElements,
                            traceSeed(9100 + S, Seed)));
    for (const auto &[Id, Ts, V] : In.Chunk.back())
      In.ChunkRecords.push_back({S, Id, Ts, V});

    // The preload's last timestamp is still pending in the checkpoint, so
    // its output is recorded after the restore.
    const Time After = PreloadElements - 1;
    std::vector<TraceEvent> Full = In.Preload[S];
    Full.insert(Full.end(), In.Chunk[S].begin(), In.Chunk[S].end());
    In.RestoreRef[S] = In.FinishRef[S] = replayDigest(Opt, Full, R, After);
    if (S == 0)
      In.FinishRef[Warmup] = replayDigest(Opt, In.Preload[S], R, After);
    for (unsigned K = 0; K != DivergentInputs; ++K) {
      std::vector<TraceEvent> Div =
          tail(X, DivergentPerFork, PreloadElements,
               traceSeed(9200 + S * DivergentInputs + K, Seed));
      std::vector<TraceEvent> ForkFull = In.Preload[S];
      ForkFull.insert(ForkFull.end(), Div.begin(), Div.end());
      uint64_t D = replayDigest(Opt, ForkFull, R, After);
      for (unsigned J = K; J < ForksPerSession; J += DivergentInputs) {
        for (const auto &[Id, Ts, V] : Div)
          ForkRecords.push_back({forkId(S, J), Id, Ts, V});
        In.FinishRef[forkId(S, J)] = D;
      }
    }
  }
  In.FeedRecords = In.ChunkRecords;
  In.FeedRecords.insert(In.FeedRecords.end(), ForkRecords.begin(),
                        ForkRecords.end());
  // The sentinel forks session 0 after the feed and gets no input.
  In.FinishRef[Sentinel] = In.FinishRef[0];
  In.StartOpt = preloadCheckpoint(Opt, In, R);
  In.StartBase = preloadCheckpoint(Base, In, R);
  return In;
}

} // namespace

void runSessionOps(const Options &O, Report &R) {
  Spec S = workloads::seenSet();
  auto Opt = std::make_unique<Program>(compileOrDie(S, true));
  auto Base = std::make_unique<Program>(compileOrDie(S, false));
  Inputs In = makeInputs(*S.lookup("x"), *Opt, *Base, O.Seed, R);
  R.Meta.push_back({"client_threads", "1"});
  R.Meta.push_back({"shards", std::to_string(Shards)});
  R.Meta.push_back({"sessions", std::to_string(BaseSessions)});
  R.Meta.push_back(
      {"forks_per_round", std::to_string(BaseSessions * ForksPerSession)});

  Runner Run(R, In);
  Tracer Off(false);
  if (!O.Trace) {
    Samples Smp;
    auto Deadline = deadlineAfter(O.Seconds);
    while (Smp.Pairs < MinRoundPairs || Clock::now() < Deadline)
      Run.roundPair(Smp, Off);
    // The rounds of a pair run back to back; their ratio cancels host
    // speed drift.
    std::vector<double> Ratios;
    for (size_t P = 0; P < Smp.OptRate.size() && P < Smp.BaseRate.size(); ++P)
      Ratios.push_back(Smp.OptRate[P] / Smp.BaseRate[P]);
    R.Meta.push_back({"round_pairs", std::to_string(Smp.Pairs)});
    R.metric("setup_s", median(Smp.SetupS), "s");
    R.metric("events_per_s", median(Smp.OptRate), "1/s");
    R.metric("base_events_per_s", median(Smp.BaseRate), "1/s");
    R.metric("speedup_opt_vs_base", median(Ratios), "x");
    R.metric("fork_us_p50", Smp.ForkUs.pooled(0.5), "us");
    R.metric("snapshot_ms_p50", Smp.SnapshotMs.pooled(0.5), "ms");
    R.metric("snapshot_ms_p90", Smp.SnapshotMs.perRound(0.9), "ms");
    R.metric("restore_ms_p50", quantile(Smp.RestoreMs, 0.5), "ms");
    R.metric("peak_rss_mb", peakRssMb(), "MB");
    return;
  }

  // Traced and untraced round pairs alternate, so the overhead estimate
  // sees the same host conditions on both sides.
  declareLayerMetrics(R);
  Tracer T(true);
  std::vector<double> FeedNs, PostForkNs;
  Samples Untraced, Traced;
  Traced.FeedNs = &FeedNs;
  Traced.PostForkNs = &PostForkNs;
  auto Deadline = deadlineAfter(O.Seconds * 0.8);
  while (Traced.Pairs < 2 || Clock::now() < Deadline) {
    Run.roundPair(Untraced, Off);
    Run.roundPair(Traced, T);
  }
  reportTraceOverhead(R, median(Untraced.CompileS) * 1e3,
                      median(Untraced.OptRate), median(Traced.OptRate));
  setMetric(R, "fleet.feed_ns_p50", quantile(FeedNs, 0.5));
  setMetric(R, "fleet.feed_ns_p99", quantile(FeedNs, 0.99));
  setMetric(R, "session.post_fork_feed_ns_p50", quantile(PostForkNs, 0.5));
  setMetric(R, "fleet.drain_ms", median(Traced.DrainMs));
  reportFleetCounters(R, Traced.Counters, Traced.Counters);
  setMetric(R, "fork.latency_us_p99", Untraced.ForkUs.perRound(0.99));
  std::vector<std::vector<TraceEvent>> Sessions;
  for (unsigned S = 0; S != BaseSessions; ++S) {
    Sessions.push_back(In.Preload[S]);
    Sessions.back().insert(Sessions.back().end(), In.Chunk[S].begin(),
                           In.Chunk[S].end());
  }
  std::vector<ReplayInput> Replays;
  for (const std::vector<TraceEvent> &Trace : Sessions)
    Replays.push_back({Opt.get(), Base.get(), &Trace});
  reportMonitorProbe(R, Replays);
  reportCountProbe(R, Replays);
  reportWireProbe(R, In.FeedRecords);
  reportCheckpointProbe(R, Traced.LastSnapshot, *Opt);

  std::string Path = O.WorkDir + "/spans-session-ops.jsonl";
  if (!T.write(Path))
    std::fprintf(stderr, "perfbench: could not write %s\n", Path.c_str());
}

} // namespace perfbench
