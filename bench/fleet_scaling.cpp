//===- bench/fleet_scaling.cpp ----------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// Fleet scaling: many independent monitor sessions (the ROADMAP's
/// "heavy traffic from millions of users" axis, scaled down) over the
/// Seen Set and db-log workloads, swept across worker shard counts and
/// ingest producer-thread counts. Sessions start hash-pinned but may be
/// work-stolen, so the ideal curve is linear until the hardware runs
/// out of cores — the printed hardware concurrency bounds the
/// achievable speedup (on a 1-core container all shard and producer
/// counts collapse to the same throughput).
///
/// Knobs: --shards and --producers take comma-separated sweep lists,
/// --sessions the session count; --transport=inproc|socket|both adds
/// the ingestion-carrier axis: inproc feeds ProducerHandles directly,
/// socket routes every record through the wire format and a Unix-domain
/// socket into a FleetServer in the same process (server setup and the
/// Hello handshake stay outside the timed region), so the row pair
/// prices the serialization + syscall overhead of the service path
/// against the shared-memory fan-in; --native adds the compiled tier as
/// a second mode axis, printing native vs per-session rows at every
/// configuration (the native row's speedup column is relative to the
/// per-session row at the same shard/producer count). Every native
/// shard runs the dlopen()ed monitor, built once per workload outside
/// the timed region. Native lanes cannot migrate, so its rows measure
/// the compiled tier under pinned sessions (steals are inert).
/// TESSLA_BENCH_SCALE scales events per session, TESSLA_BENCH_SESSIONS
/// overrides the session count (default 64), TESSLA_BENCH_REPS the
/// median repetition count.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "tessla/Runtime/FleetClient.h"
#include "tessla/Runtime/FleetServer.h"
#include "tessla/Runtime/MonitorFleet.h"

#include <cstring>
#include <thread>
#include <unistd.h>

using namespace tessla;
using namespace tessla::bench;

namespace {

unsigned sessionCount() {
  if (const char *Env = std::getenv("TESSLA_BENCH_SESSIONS"))
    return std::max(1, std::atoi(Env));
  return 64;
}

std::vector<unsigned> parseList(const char *Text) {
  std::vector<unsigned> Out;
  for (const char *P = Text; *P;) {
    char *End = nullptr;
    long N = std::strtol(P, &End, 10);
    if (End == P)
      break;
    Out.push_back(static_cast<unsigned>(std::max(1l, N)));
    P = (*End == ',') ? End + 1 : End;
  }
  if (Out.empty())
    Out.push_back(1);
  return Out;
}

/// Per-session traces for one workload.
struct FleetWorkload {
  const char *Label;
  Spec S;
  std::vector<std::vector<TraceEvent>> SessionTraces;
  size_t TotalEvents = 0;
};

FleetWorkload seenSetWorkload(unsigned Sessions, size_t EventsPerSession) {
  FleetWorkload W{"seen set", workloads::seenSet(), {}, 0};
  StreamId X = *W.S.lookup("x");
  for (unsigned I = 0; I != Sessions; ++I) {
    W.SessionTraces.push_back(
        tracegen::randomInts(X, EventsPerSession, 400, 9000 + I));
    W.TotalEvents += W.SessionTraces.back().size();
  }
  return W;
}

FleetWorkload dbLogWorkload(unsigned Sessions, size_t EventsPerSession) {
  FleetWorkload W{"db-log", workloads::dbAccessConstraint(), {}, 0};
  for (unsigned I = 0; I != Sessions; ++I) {
    tracegen::DbLogConfig Config;
    Config.Count = EventsPerSession;
    Config.Seed = 7000 + I;
    W.SessionTraces.push_back(tracegen::dbLog(*W.S.lookup("ins"),
                                              *W.S.lookup("del"),
                                              *W.S.lookup("acc"), Config));
    W.TotalEvents += W.SessionTraces.back().size();
  }
  return W;
}

/// One timed fleet run: \p Producers ingest threads, each feeding its
/// modulo-partition of the sessions round-robin in chunks of \p Chunk
/// events per session (per-session order preserved), then finish.
/// Chunk=1 is fully time-interleaved arrival — every session advances
/// one event per round, the shape of live traffic from concurrent
/// sessions; larger chunks model replay from per-session buffers and
/// hand each session a run of consecutive events.
double timeFleet(const FleetWorkload &W, const Program &Plan,
                 unsigned Shards, unsigned Producers, FleetMode Mode,
                 size_t Chunk, uint64_t &OutputsOut,
                 const EngineFactory &Native = {}) {
  FleetOptions Opts;
  Opts.Shards = Shards;
  Opts.MaxProducers = std::max(16u, Producers);
  Opts.CollectOutputs = false; // throughput only; counters still run
  Opts.Mode = Mode;
  Opts.NativeFactory = Native;
  MonitorFleet Fleet(Plan, Opts);

  auto Start = std::chrono::steady_clock::now();
  size_t MaxLen = 0;
  for (const auto &Trace : W.SessionTraces)
    MaxLen = std::max(MaxLen, Trace.size());
  auto Ingest = [&](unsigned P) {
    ProducerHandle Handle = Fleet.producer();
    for (size_t Base = 0; Base < MaxLen; Base += Chunk) {
      for (SessionId Session = P; Session < W.SessionTraces.size();
           Session += Producers) {
        const auto &Trace = W.SessionTraces[Session];
        size_t End = std::min(Base + Chunk, Trace.size());
        for (size_t I = Base; I < End; ++I) {
          const auto &[Id, Ts, V] = Trace[I];
          Handle.feed(Session, Id, Ts, V);
        }
      }
    }
  };
  if (Producers == 1) {
    Ingest(0);
  } else {
    std::vector<std::thread> Threads;
    Threads.reserve(Producers);
    for (unsigned P = 0; P != Producers; ++P)
      Threads.emplace_back(Ingest, P);
    for (std::thread &T : Threads)
      T.join();
  }
  Fleet.finish();
  auto EndTime = std::chrono::steady_clock::now();
  if (Fleet.failed()) {
    std::fprintf(stderr, "fleet benchmark failed: %s\n",
                 Fleet.errors().front().Message.c_str());
    std::exit(1);
  }
  OutputsOut = Fleet.stats().totalOutputs();
  if (std::getenv("TESSLA_BENCH_STATS"))
    std::fprintf(stderr, "%s", Fleet.stats().str().c_str());
  return std::chrono::duration<double>(EndTime - Start).count();
}

/// The same timed run over the service path: a FleetServer in this
/// process behind a Unix-domain socket, every record crossing the wire
/// format. Server construction, listening and the Hello handshake stay
/// outside the timed region; the clock covers ingest (each producer
/// thread dials its own connection inside the timed region, as a real
/// client burst would) plus finish.
double timeFleetSocket(const FleetWorkload &W, const Program &Plan,
                       unsigned Shards, unsigned Producers, FleetMode Mode,
                       size_t Chunk, uint64_t &OutputsOut,
                       const EngineFactory &Native = {}) {
  FleetOptions Opts;
  Opts.Shards = Shards;
  Opts.MaxProducers = std::max(16u, Producers);
  Opts.CollectOutputs = false;
  Opts.Mode = Mode;
  Opts.NativeFactory = Native;
  FleetServer Server(Plan, Opts);

  static unsigned Run = 0;
  std::string Path = "/tmp/tessla_fleet_bench_" +
                     std::to_string(::getpid()) + "_" +
                     std::to_string(Run++) + ".sock";
  std::string Err;
  auto L = listenUnixSocket(Path, &Err);
  if (!L) {
    std::fprintf(stderr, "bench listen failed: %s\n", Err.c_str());
    std::exit(1);
  }
  std::thread Serve([&] { Server.serve(*L); });
  auto Client = makeUnixSocketClient(Path, &Err);
  if (!Client) {
    std::fprintf(stderr, "bench connect failed: %s\n", Err.c_str());
    std::exit(1);
  }

  auto Start = std::chrono::steady_clock::now();
  size_t MaxLen = 0;
  for (const auto &Trace : W.SessionTraces)
    MaxLen = std::max(MaxLen, Trace.size());
  auto Ingest = [&](unsigned P) {
    std::string PErr;
    auto Handle = Client->producer(&PErr);
    if (!Handle) {
      std::fprintf(stderr, "bench producer failed: %s\n", PErr.c_str());
      std::exit(1);
    }
    for (size_t Base = 0; Base < MaxLen; Base += Chunk) {
      for (SessionId Session = P; Session < W.SessionTraces.size();
           Session += Producers) {
        const auto &Trace = W.SessionTraces[Session];
        size_t End = std::min(Base + Chunk, Trace.size());
        for (size_t I = Base; I < End; ++I) {
          const auto &[Id, Ts, V] = Trace[I];
          Handle->feed(Session, Id, Ts, V);
        }
      }
    }
    if (!Handle->close()) {
      std::fprintf(stderr, "bench producer close failed: %s\n",
                   Handle->error().c_str());
      std::exit(1);
    }
  };
  if (Producers == 1) {
    Ingest(0);
  } else {
    std::vector<std::thread> Threads;
    Threads.reserve(Producers);
    for (unsigned P = 0; P != Producers; ++P)
      Threads.emplace_back(Ingest, P);
    for (std::thread &T : Threads)
      T.join();
  }
  auto Finish = Client->finish(&Err);
  auto EndTime = std::chrono::steady_clock::now();
  if (!Finish) {
    std::fprintf(stderr, "bench finish failed: %s\n", Err.c_str());
    std::exit(1);
  }
  OutputsOut = Finish->TotalOutputs;
  Client->shutdownServer();
  Serve.join();
  return std::chrono::duration<double>(EndTime - Start).count();
}

double medianFleet(const FleetWorkload &W, const Program &Plan,
                   unsigned Shards, unsigned Producers, FleetMode Mode,
                   size_t Chunk, unsigned Reps, bool OverSocket,
                   uint64_t &OutputsOut, const EngineFactory &Native = {}) {
  std::vector<double> Times;
  uint64_t FirstOutputs = 0;
  for (unsigned I = 0; I != Reps; ++I) {
    uint64_t Outputs = 0;
    Times.push_back(OverSocket
                        ? timeFleetSocket(W, Plan, Shards, Producers, Mode,
                                          Chunk, Outputs, Native)
                        : timeFleet(W, Plan, Shards, Producers, Mode,
                                    Chunk, Outputs, Native));
    if (I == 0)
      FirstOutputs = Outputs;
    else if (Outputs != FirstOutputs) {
      std::fprintf(stderr, "non-deterministic fleet output count!\n");
      std::exit(1);
    }
  }
  std::sort(Times.begin(), Times.end());
  OutputsOut = FirstOutputs;
  return Times[Times.size() / 2];
}

} // namespace

int main(int argc, char **argv) {
  unsigned Reps = repetitions();
  unsigned Sessions = sessionCount();
  std::vector<unsigned> ShardCounts = {1, 2, 4, 8};
  std::vector<unsigned> ProducerCounts = {1};
  size_t Chunk = 64;
  bool Native = false;
  // Ingestion carriers to sweep: false = in-process ProducerHandle,
  // true = wire frames over a Unix-domain socket into a FleetServer.
  std::vector<bool> Carriers = {false};

  auto ParseTransport = [&](const char *Text) {
    if (std::strcmp(Text, "inproc") == 0)
      Carriers = {false};
    else if (std::strcmp(Text, "socket") == 0)
      Carriers = {true};
    else if (std::strcmp(Text, "both") == 0)
      Carriers = {false, true};
    else
      return false;
    return true;
  };

  bool Usage = false;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--shards") == 0 && I + 1 < argc)
      ShardCounts = parseList(argv[++I]);
    else if (std::strcmp(argv[I], "--producers") == 0 && I + 1 < argc)
      ProducerCounts = parseList(argv[++I]);
    else if (std::strcmp(argv[I], "--sessions") == 0 && I + 1 < argc)
      Sessions = std::max(1, std::atoi(argv[++I]));
    else if (std::strcmp(argv[I], "--native") == 0)
      Native = true;
    else if (std::strcmp(argv[I], "--chunk") == 0 && I + 1 < argc)
      Chunk = static_cast<size_t>(std::max(1, std::atoi(argv[++I])));
    else if (std::strncmp(argv[I], "--transport=", 12) == 0)
      Usage = !ParseTransport(argv[I] + 12);
    else if (std::strcmp(argv[I], "--transport") == 0 && I + 1 < argc)
      Usage = !ParseTransport(argv[++I]);
    else
      Usage = true;
    if (Usage) {
      std::fprintf(stderr,
                   "usage: %s [--shards 1,2,4,8] [--producers 1,2] "
                   "[--sessions N] [--chunk N] "
                   "[--transport=inproc|socket|both] [--native]\n",
                   argv[0]);
      return 2;
    }
  }
  // Per-session first so each native row can report its speedup over
  // the per-session run at the same configuration.
  std::vector<FleetMode> Modes = {FleetMode::PerSession};
  if (Native)
    Modes.push_back(FleetMode::Native);

  std::printf("Fleet scaling — multi-session throughput vs shard and "
              "producer count (median of %u runs)\n",
              Reps);
  std::printf("hardware concurrency: %u; sessions: %u; ingest chunk: "
              "%zu\n\n",
              std::thread::hardware_concurrency(), Sessions, Chunk);

  FleetWorkload Workloads[] = {
      seenSetWorkload(Sessions, scaled(5000)),
      dbLogWorkload(Sessions, scaled(5000)),
  };

  std::printf("%-10s %-9s %-9s %8s %10s %10s %10s %12s %9s\n", "workload",
              "mode", "transport", "shards", "producers", "events",
              "time [s]", "Mev/s", "speedup");
  for (FleetWorkload &W : Workloads) {
    // Optimized monitors; the opt-vs-baseline axis is fig9/fig10.
    DiagnosticEngine Diags;
    std::optional<Program> PlanOpt =
        compileSpec(W.S, CompileOptions(), Diags);
    if (!PlanOpt) {
      std::fprintf(stderr, "compile failed:\n%s", Diags.str().c_str());
      return 1;
    }
    Program &Plan = *PlanOpt;
    EngineFactory NativeFactory;
    if (Native) {
      std::string Error;
      NativeFactory =
          makeNativeEngineFactory(Plan, NativeCompileOptions(), Error);
      if (!NativeFactory) {
        std::fprintf(stderr, "native tier unavailable: %s\n",
                     Error.c_str());
        return 1;
      }
    }
    double Base = 0;
    for (unsigned Producers : ProducerCounts) {
      for (unsigned Shards : ShardCounts) {
        // Output counts must agree across every mode AND carrier at the
        // same configuration — the socket rows replay the identical
        // workload through the wire format.
        uint64_t ConfigOutputs = 0;
        bool HaveConfigOutputs = false;
        for (bool OverSocket : Carriers) {
          double PerSessionSeconds = 0;
          for (FleetMode Mode : Modes) {
            uint64_t Outputs = 0;
            double Seconds =
                medianFleet(W, Plan, Shards, Producers, Mode, Chunk,
                            Reps, OverSocket, Outputs, NativeFactory);
            double Speedup;
            if (Mode == FleetMode::PerSession) {
              if (Base == 0)
                Base = Seconds;
              PerSessionSeconds = Seconds;
              Speedup = Base / Seconds; // vs first per-session config
            } else {
              // vs per-session at the same shard/producer/carrier.
              Speedup = PerSessionSeconds / Seconds;
            }
            if (!HaveConfigOutputs) {
              ConfigOutputs = Outputs;
              HaveConfigOutputs = true;
            } else if (Outputs != ConfigOutputs) {
              std::fprintf(stderr,
                           "%s/%s output count diverged at the same "
                           "configuration!\n",
                           Mode == FleetMode::Native ? "native" : "per-sess",
                           OverSocket ? "socket" : "inproc");
              return 1;
            }
            std::printf(
                "%-10s %-9s %-9s %8u %10u %10zu %10.4f %12.3f %8.2fx\n",
                W.Label, Mode == FleetMode::Native ? "native" : "per-sess",
                OverSocket ? "socket" : "inproc", Shards, Producers,
                W.TotalEvents, Seconds,
                static_cast<double>(W.TotalEvents) / Seconds / 1e6,
                Speedup);
            std::fflush(stdout);
          }
        }
      }
    }
  }
  std::printf("\nsessions start shard-pinned and may be work-stolen; "
              "scaling is bounded by min(shards + producers, cores)\n");
  return 0;
}
