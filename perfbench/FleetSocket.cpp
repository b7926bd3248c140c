//===- perfbench/FleetSocket.cpp - fleet-socket-interleaved workload ------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Live multi-session service traffic: a FleetServer on a Unix socket
/// (2 shards) runs the Table I DBAccessConstraint db-log spec for 64
/// sessions, fed by one producer connection that interleaves the
/// sessions one record at a time. At run length 1 the Auto engine keeps
/// the shards batched, so this loads the wire format, fleet fan-in and
/// the batched engine, and bypasses the single-session path that
/// fig9-aggregates measures. One client thread with two connections
/// (control + producer), two connection threads and two shard threads
/// fit the four cores this was sized for.
///
/// A cycle is three rounds, each a fresh deployment (compile, server,
/// handshake): an optimized and a baseline throughput round (ingest →
/// finish(), alternating which goes first), and an operations round that
/// ingests the same records, forks every session eight times, takes live
/// snapshots and restores the last one into a fresh in-process client.
/// The operations go through the server's own FleetClient (the host-side
/// surface), so they price the fleet's control path rather than socket
/// wake-ups. Every finish is checked, session by session, against
/// fresh-Monitor replays.
///
/// The operations round, its deployment included, runs on one CPU
/// (ScopedCpuPin): a fork or snapshot hands work to a shard thread and
/// waits for the reply, and across CPUs that handoff waits for an idle
/// virtual CPU to wake, which on a shared host swung the fork median and
/// the snapshot tail by a quarter from run to run. Set-up is timed there
/// for the same reason. The throughput rounds keep every CPU.
///
/// 512 forks per round keep the round's 99th percentile below the few
/// forks after ingest that take milliseconds (probably growth of the
/// batched engine's lane storage), whose cost swings with the host and
/// would otherwise make the tail unsteady. Ten snapshots per round keep
/// the round's 90th percentile off its slowest snapshot.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "tessla/Runtime/FleetServer.h"

#include <cstdio>
#include <thread>
#include <unistd.h>

namespace perfbench {
namespace {

constexpr unsigned Sessions = 64;
constexpr unsigned Shards = 2;
constexpr size_t EventsPerSession = 2000;
constexpr unsigned ForksPerSession = 8;
constexpr unsigned SnapshotsPerRound = 10;
constexpr unsigned MinCycles = 3;
constexpr SessionId ForkBase = 100000;
constexpr SessionId Sentinel = 1000000;

FleetOptions fleetOptions() {
  FleetOptions FO;
  FO.Shards = Shards;
  return FO;
}

/// A FleetServer serving one Unix socket from its own thread, plus a
/// connected client (the Hello handshake done). The destructor shuts the
/// server down and joins its thread.
class SocketService {
public:
  SocketService(const Program &P, const std::string &Path)
      : Server(P, fleetOptions()), Path(Path) {
    std::string Err;
    L = listenUnixSocket(Path, &Err);
    if (!L)
      die("listen on " + Path + ": " + Err);
    Serve = std::thread([this] { Server.serve(*L); });
    Client = makeUnixSocketClient(Path, &Err);
    if (!Client)
      die("connect: " + Err);
  }
  ~SocketService() {
    std::string Err;
    if (!Client->shutdownServer(&Err))
      Server.requestShutdown();
    Serve.join();
    Client.reset();
    ::unlink(Path.c_str());
  }
  SocketService(const SocketService &) = delete;
  SocketService &operator=(const SocketService &) = delete;

  /// The connected remote client.
  FleetClient &client() { return *Client; }
  /// The server's in-process session surface.
  FleetClient &hostClient() { return Server.client(); }

private:
  [[noreturn]] void die(const std::string &Msg) {
    std::fprintf(stderr, "perfbench: fleet socket set-up failed: %s\n",
                 Msg.c_str());
    std::exit(1);
  }

  FleetServer Server;
  std::string Path;
  std::unique_ptr<Listener> L;
  std::thread Serve;
  std::unique_ptr<FleetClient> Client;
};

struct Inputs {
  std::vector<std::vector<TraceEvent>> Full;
  std::vector<EventRecord> Records;
  SessionDigests Ref, OpsRef;
};

/// Per-round observations.
struct Samples {
  unsigned Cycles = 0;
  std::vector<double> SetupS, CompileS;
  std::vector<double> OptRate, BaseRate, RestoreMs;
  std::vector<double> DrainMs, BusyFrames;
  RoundSamples ForkUs, SnapshotMs;
  std::vector<FleetCounters> Counters, OpsCounters;
  std::vector<double> *FeedNs = nullptr; // traced optimized rounds only
  std::vector<uint8_t> LastSnapshot;
};

class Runner {
public:
  Runner(const Options &O, Report &R, const Inputs &In)
      : O(O), R(R), In(In) {}

  /// One cycle: optimized and baseline throughput rounds (alternating
  /// which goes first), then an operations round.
  void cycle(Samples &S, Tracer &T) {
    SpanScope CS(T, "cycle");
    for (int K = 0; K != 2; ++K)
      throughputRound((K == 0) == (S.Cycles % 2 == 0), S, T, CS.id());
    opsRound(S, T, CS.id());
    ++S.Cycles;
  }

private:
  /// One deployment: compile \p Optimized's program, start a server and
  /// connect (timed as set-up if \p TimeSetup). The program must outlive
  /// the service.
  std::unique_ptr<SocketService> deploy(bool Optimized,
                                        std::unique_ptr<Program> &P,
                                        Samples &S, Tracer &T, uint32_t Parent,
                                        bool TimeSetup) {
    SpanScope DS(T, "fleet.deploy", Parent);
    auto A = Clock::now();
    P = std::make_unique<Program>(
        compileOrDie(workloads::dbAccessConstraint(), Optimized));
    S.CompileS.push_back(secondsBetween(A, Clock::now()));
    auto Svc = std::make_unique<SocketService>(
        *P, O.WorkDir + "/fleet-" + std::to_string(::getpid()) + "-" +
                std::to_string(NextSocket++) + ".sock");
    if (TimeSetup)
      S.SetupS.push_back(secondsBetween(A, Clock::now()));
    ++R.Attempted; // the handshake
    return Svc;
  }

  void feedAll(ClientProducer &P, const std::vector<EventRecord> &Records,
               std::vector<double> *FeedNs) {
    uint64_t Refused = 0;
    for (const EventRecord &E : Records) {
      CallTimer Timer(FeedNs);
      Refused += !P.feed(E.Session, E.Input, E.Ts, E.V);
    }
    R.Attempted += Records.size();
    if (Refused)
      R.failure("records refused: " + P.error(), Refused);
  }

  void throughputRound(bool Optimized, Samples &S, Tracer &T,
                       uint32_t Parent) {
    SpanScope RS(T, Optimized ? "fleet.round_opt" : "fleet.round_base",
                 Parent);
    std::unique_ptr<Program> Prog;
    std::unique_ptr<SocketService> Svc =
        deploy(Optimized, Prog, S, T, RS.id(), false);
    std::string Err;
    std::unique_ptr<ClientProducer> P = Svc->client().producer(&Err);
    if (!R.check(P != nullptr, "producer: " + Err))
      return;
    auto T0 = Clock::now();
    {
      SpanScope FS(T, "fleet.ingest", RS.id());
      feedAll(*P, In.Records, Optimized ? S.FeedNs : nullptr);
    }
    auto TLast = Clock::now();
    R.check(P->close(), "producer close: " + P->error());
    double Busy = static_cast<double>(P->busySignals());
    P.reset();
    std::optional<FleetFinish> F;
    {
      SpanScope FS(T, "fleet.finish", RS.id());
      F = finishChecked(R, Svc->client(), "throughput round");
    }
    auto TEnd = Clock::now();
    if (!F)
      return;
    compareDigests(R, "fleet over the socket vs fresh-Monitor replay",
                   In.Ref, digestsOf(F->Outputs));
    double Rate =
        static_cast<double>(In.Records.size()) / secondsBetween(T0, TEnd);
    (Optimized ? S.OptRate : S.BaseRate).push_back(Rate);
    if (Optimized) {
      S.DrainMs.push_back(secondsBetween(TLast, TEnd) * 1e3);
      S.BusyFrames.push_back(Busy);
      if (std::optional<std::string> Text = Svc->client().statsText())
        S.Counters.push_back(parseFleetStats(*Text));
    }
  }

  void opsRound(Samples &S, Tracer &T, uint32_t Parent) {
    SpanScope RS(T, "fleet.round_ops", Parent);
    ScopedCpuPin Pin; // the server's threads start pinned too
    std::unique_ptr<Program> Prog;
    std::unique_ptr<SocketService> Svc =
        deploy(true, Prog, S, T, RS.id(), true);
    FleetClient &Host = Svc->hostClient();
    std::string Err;
    {
      std::unique_ptr<ClientProducer> P = Svc->client().producer(&Err);
      if (!R.check(P != nullptr, "producer: " + Err))
        return;
      feedAll(*P, In.Records, nullptr);
      R.check(P->close(), "producer close: " + P->error());
    }
    // Drain barrier: fork waits until every record reached its lane, so
    // the measured operations below do not pay for ingest backlog.
    R.check(Host.forkSession(0, Sentinel, &Err), "sentinel fork: " + Err);
    S.ForkUs.newRound();
    S.SnapshotMs.newRound();

    for (SessionId Src = 0; Src != Sessions; ++Src)
      for (unsigned J = 0; J != ForksPerSession; ++J) {
        SpanScope FS(T, "fork.session", RS.id());
        auto A = Clock::now();
        bool Ok = Host.forkSession(Src, ForkBase + Src * ForksPerSession + J,
                                   &Err);
        S.ForkUs.add(
            std::chrono::duration<double, std::micro>(Clock::now() - A)
                .count());
        R.check(Ok, "fork: " + Err);
      }
    for (unsigned K = 0; K != SnapshotsPerRound; ++K) {
      SpanScope SS(T, "checkpoint.snapshot", RS.id());
      auto A = Clock::now();
      std::optional<std::vector<uint8_t>> Bytes = Host.snapshot(&Err);
      S.SnapshotMs.add(secondsBetween(A, Clock::now()) * 1e3);
      if (!R.check(Bytes.has_value(), "snapshot: " + Err))
        return;
      if (K > 0 && *Bytes != S.LastSnapshot)
        R.mismatch("repeated live snapshots differ");
      S.LastSnapshot = std::move(*Bytes);
      // The first snapshot's counters include the forks' shared state.
      if (K == 0)
        if (std::optional<std::string> Text = Host.statsText())
          S.OpsCounters.push_back(parseFleetStats(*Text));
    }
    {
      std::unique_ptr<FleetClient> D =
          makeInProcessClient(*Prog, fleetOptions());
      SpanScope SS(T, "checkpoint.restore", RS.id());
      auto A = Clock::now();
      std::optional<uint64_t> N = D->restore(S.LastSnapshot, &Err);
      S.RestoreMs.push_back(secondsBetween(A, Clock::now()) * 1e3);
      if (R.check(N.has_value(), "restore: " + Err))
        if (std::optional<FleetFinish> F =
                finishChecked(R, *D, "restored fleet"))
          compareDigests(R, "restored snapshot vs fresh-Monitor replay",
                         In.OpsRef, digestsOf(F->Outputs));
    }
    if (std::optional<FleetFinish> F =
            finishChecked(R, Svc->client(), "operations round"))
      compareDigests(R, "forked fleet vs fresh-Monitor replay", In.OpsRef,
                     digestsOf(F->Outputs));
  }

  const Options &O;
  Report &R;
  const Inputs &In;
  unsigned NextSocket = 0;
};

/// Session-attributed records in the order one time-interleaved
/// producer feeds them: every session advances one record per sweep.
std::vector<EventRecord>
interleave(const std::vector<std::vector<TraceEvent>> &Sessions) {
  std::vector<EventRecord> Out;
  size_t MaxLen = 0;
  for (const auto &T : Sessions)
    MaxLen = std::max(MaxLen, T.size());
  for (size_t I = 0; I != MaxLen; ++I)
    for (SessionId S = 0; S != Sessions.size(); ++S)
      if (I < Sessions[S].size()) {
        const auto &[Id, Ts, V] = Sessions[S][I];
        Out.push_back({S, Id, Ts, V});
      }
  return Out;
}

Inputs makeInputs(const Spec &S, const Program &Opt, uint64_t Seed,
                  Report &R) {
  Inputs In;
  for (unsigned I = 0; I != Sessions; ++I) {
    tracegen::DbLogConfig Config;
    Config.Count = EventsPerSession;
    Config.Seed = traceSeed(7000 + I, Seed);
    In.Full.push_back(tracegen::dbLog(*S.lookup("ins"), *S.lookup("del"),
                                      *S.lookup("acc"), Config));
    In.Ref[I] = replayDigest(Opt, In.Full[I], R);
  }
  In.Records = interleave(In.Full);
  // A fork carries its source's recorded outputs and gets no further
  // input, so it finishes exactly like its source.
  In.OpsRef = In.Ref;
  In.OpsRef[Sentinel] = In.Ref.at(0);
  for (SessionId Src = 0; Src != Sessions; ++Src)
    for (unsigned J = 0; J != ForksPerSession; ++J)
      In.OpsRef[ForkBase + Src * ForksPerSession + J] = In.Ref.at(Src);
  return In;
}

} // namespace

void runFleetSocket(const Options &O, Report &R) {
  Spec S = workloads::dbAccessConstraint();
  auto Opt = std::make_unique<Program>(compileOrDie(S, true));
  auto Base = std::make_unique<Program>(compileOrDie(S, false));
  Inputs In = makeInputs(S, *Opt, O.Seed, R);
  R.Meta.push_back({"client_threads", "1"});
  R.Meta.push_back({"connections", "2"});
  R.Meta.push_back({"shards", std::to_string(Shards)});
  R.Meta.push_back({"sessions", std::to_string(Sessions)});
  R.Meta.push_back({"events_per_round", std::to_string(In.Records.size())});

  Runner Run(O, R, In);
  Tracer Off(false);
  if (!O.Trace) {
    Samples Smp;
    auto Deadline = deadlineAfter(O.Seconds);
    while (Smp.Cycles < MinCycles || Clock::now() < Deadline)
      Run.cycle(Smp, Off);
    // The two throughput rounds of a cycle run back to back; their ratio
    // cancels host speed drift.
    std::vector<double> Ratios;
    for (size_t C = 0; C < Smp.OptRate.size() && C < Smp.BaseRate.size(); ++C)
      Ratios.push_back(Smp.OptRate[C] / Smp.BaseRate[C]);
    R.Meta.push_back({"cycles", std::to_string(Smp.Cycles)});
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

  // Traced and untraced cycles alternate, so the overhead estimate sees
  // the same host conditions on both sides.
  declareLayerMetrics(R);
  Tracer T(true);
  std::vector<double> FeedNs;
  Samples Untraced, Traced;
  Traced.FeedNs = &FeedNs;
  auto Deadline = deadlineAfter(O.Seconds * 0.8);
  while (Traced.Cycles < 2 || Clock::now() < Deadline) {
    Run.cycle(Untraced, Off);
    Run.cycle(Traced, T);
  }
  reportTraceOverhead(R, median(Untraced.CompileS) * 1e3,
                      median(Untraced.OptRate), median(Traced.OptRate));
  setMetric(R, "fleet.feed_ns_p50", quantile(FeedNs, 0.5));
  setMetric(R, "fleet.feed_ns_p99", quantile(FeedNs, 0.99));
  setMetric(R, "fleet.drain_ms", median(Traced.DrainMs));
  setMetric(R, "fleet.busy_frames", median(Traced.BusyFrames));
  reportFleetCounters(R, Traced.Counters, Traced.OpsCounters);
  setMetric(R, "fork.latency_us_p99", Untraced.ForkUs.perRound(0.99));
  std::vector<ReplayInput> Replays;
  for (const std::vector<TraceEvent> &Trace : In.Full)
    Replays.push_back({Opt.get(), Base.get(), &Trace});
  reportMonitorProbe(R, Replays);
  reportCountProbe(R, Replays);
  reportWireProbe(R, In.Records);
  reportCheckpointProbe(R, Traced.LastSnapshot, *Opt);

  std::string Path = O.WorkDir + "/spans-fleet-socket-interleaved.jsonl";
  if (!T.write(Path))
    std::fprintf(stderr, "perfbench: could not write %s\n", Path.c_str());
}

} // namespace perfbench
