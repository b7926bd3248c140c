//===- perfbench/Fig9.cpp - fig9-aggregates workload ----------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's headline (Fig. 9): single-session Monitors over the Seen
/// Set, Map Window and Queue Window specs at structure sizes 10, 200 and
/// 10,000, each run optimized and baseline. Almost all time goes to the
/// value layer and the interpreter; nothing runs through the fleet, the
/// wire or the checkpoint format in the timed feed loop.
///
/// Every round runs every cell both ways (alternating which goes first)
/// on a fresh Monitor, so per-cell medians over rounds absorb noise. The
/// optimized run of each large cell also prices the single-session
/// primitives behind forking and checkpointing on the paper's largest
/// structures, outside the feed timing: Monitor::snapshotState (fork),
/// snapshotState + serializeCheckpoint (snapshot), and loadCheckpoint +
/// restoreState into a fresh Monitor (restore), whose finish() must
/// emit exactly what the original's does.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cstdio>
#include <memory>

namespace perfbench {
namespace {

constexpr size_t EventsPerCell = 40000;
constexpr unsigned ForksPerCell = 50;
constexpr unsigned SnapshotsPerCell = 5;
constexpr unsigned RestoresPerCell = 3;
constexpr unsigned MinRounds = 3;
constexpr unsigned CompilesPerRound = 3;

struct Cell {
  std::string Name;
  bool Large = false;
  int64_t Size = 0;
  StreamId Input = 0;
  std::vector<TraceEvent> Events;
  std::unique_ptr<Program> Opt, Base;
  uint64_t ProgramCk = 0;
  std::optional<uint64_t> Reference; // digest of the first run
  std::vector<uint8_t> LastSnapshot;
};

struct Samples {
  unsigned Rounds = 0;
  /// [cell][round] timed seconds of the optimized and baseline runs.
  std::vector<std::vector<double>> OptSeconds, BaseSeconds;
  std::vector<double> SetupS, RestoreMs;
  RoundSamples ForkUs, SnapshotMs;
  std::vector<double> *FeedNs = nullptr, *BaseFeedNs = nullptr;
};

/// Set-up: builds (parse + type-check) and compiles all nine cells' specs
/// both ways, creating the cells on first use. Every round redeploys
/// this way, so set-up is sampled across the whole run.
void compileCells(std::vector<Cell> &Cells) {
  size_t I = 0;
  for (int64_t Size : {10, 200, 10000}) {
    Spec Specs[] = {workloads::seenSet(), workloads::mapWindow(Size),
                    workloads::queueWindow(Size)};
    const char *Names[] = {"seen-set", "map-window", "queue-window"};
    for (int K = 0; K != 3; ++K, ++I) {
      if (Cells.size() == I) {
        Cells.emplace_back();
        Cells[I].Name = std::string(Names[K]) + "/" + std::to_string(Size);
        Cells[I].Large = Size == 10000;
        Cells[I].Size = Size;
        Cells[I].Input = *Specs[K].lookup("x");
      }
      Cells[I].Opt = std::make_unique<Program>(compileOrDie(Specs[K], true));
      Cells[I].Base =
          std::make_unique<Program>(compileOrDie(Specs[K], false));
    }
  }
}

/// Trace generation (not set-up): the bench/fig9_synthetic inputs at a
/// per-cell length that fits several rounds into one run. Seen Set draws
/// from twice the structure size so the toggled set hovers near it.
void generateInputs(std::vector<Cell> &Cells, uint64_t Seed) {
  for (Cell &C : Cells) {
    if (C.Name.rfind("seen-set", 0) == 0)
      C.Events = tracegen::randomInts(C.Input, EventsPerCell, 2 * C.Size,
                                      traceSeed(101, Seed));
    else if (C.Name.rfind("map-window", 0) == 0)
      C.Events = tracegen::randomInts(C.Input, EventsPerCell, 1 << 20,
                                      traceSeed(102, Seed));
    else
      C.Events = tracegen::randomInts(C.Input, EventsPerCell, 1 << 20,
                                      traceSeed(103, Seed));
    C.ProgramCk = programChecksum(*C.Opt);
  }
}

/// One run of one cell on a fresh Monitor; returns the timed seconds
/// (feed loop + finish). With \p Ops (optimized large cells) the fork,
/// snapshot and restore primitives are priced between the two.
double runCell(Cell &C, bool Optimized, bool Ops, Samples &S, Tracer &T,
               uint32_t Parent, Report &R) {
  const Program &P = Optimized ? *C.Opt : *C.Base;
  SpanScope Span(T, Optimized ? "monitor.run_opt" : "monitor.run_base",
                 Parent);
  std::vector<OutputEvent> Out;
  Out.reserve(C.Events.size() + 16);
  Monitor M(P);
  M.setOutputHandler([&Out](Time Ts, StreamId Id, const Value &V) {
    Out.push_back({Ts, Id, V});
  });
  std::vector<double> *FeedNs = Optimized ? S.FeedNs : S.BaseFeedNs;

  auto T0 = Clock::now();
  for (const auto &[Id, Ts, V] : C.Events) {
    CallTimer Timer(FeedNs);
    M.feed(Id, Ts, V);
  }
  auto T1 = Clock::now();

  std::unique_ptr<Monitor> Restored;
  std::vector<OutputEvent> RestoredOut;
  if (Ops) {
    {
      std::vector<EngineLaneState> Forks(ForksPerCell);
      for (EngineLaneState &F : Forks) {
        SpanScope FS(T, "fork.snapshot_state", Span.id());
        auto A = Clock::now();
        M.snapshotState(F);
        S.ForkUs.add(
            std::chrono::duration<double, std::micro>(Clock::now() - A)
                .count());
      }
      R.Attempted += ForksPerCell;
    } // forks die here, before finish() updates the shared state
    for (unsigned K = 0; K != SnapshotsPerCell; ++K) {
      SpanScope SS(T, "checkpoint.snapshot", Span.id());
      auto A = Clock::now();
      FleetCheckpoint CP;
      CP.ProgramChecksum = C.ProgramCk;
      CP.SourceShards = 1;
      CP.Lanes.emplace_back();
      M.snapshotState(CP.Lanes.back());
      std::vector<uint8_t> Bytes = serializeCheckpoint(CP);
      S.SnapshotMs.add(secondsBetween(A, Clock::now()) * 1e3);
      ++R.Attempted;
      if (K > 0 && Bytes != C.LastSnapshot)
        R.mismatch(C.Name + ": repeated snapshots differ");
      C.LastSnapshot = std::move(Bytes);
    }
    for (unsigned K = 0; K != RestoresPerCell; ++K) {
      Restored.reset();
      SpanScope RS(T, "checkpoint.restore", Span.id());
      auto A = Clock::now();
      DiagnosticEngine Diags;
      std::optional<FleetCheckpoint> CP =
          loadCheckpoint(C.LastSnapshot, P, Diags);
      bool Loaded = CP && CP->Lanes.size() == 1;
      if (Loaded) {
        Restored = std::make_unique<Monitor>(P);
        Restored->restoreState(CP->Lanes.front());
      }
      S.RestoreMs.push_back(secondsBetween(A, Clock::now()) * 1e3);
      R.check(Loaded, C.Name + ": restore: " + Diags.str());
    }
  }

  size_t BeforeFinish = Out.size();
  auto T2 = Clock::now();
  M.finish();
  auto T3 = Clock::now();
  R.Attempted += C.Events.size();
  if (M.failed())
    R.failure(C.Name + ": " + M.errorMessage());

  uint64_t D = digestOf(Out);
  if (!C.Reference)
    C.Reference = D;
  else if (*C.Reference != D)
    R.mismatch(C.Name + (Optimized ? " optimized" : " baseline") +
               " output digest differs from the first run");
  if (Restored) {
    Restored->setOutputHandler(
        [&RestoredOut](Time Ts, StreamId Id, const Value &V) {
          RestoredOut.push_back({Ts, Id, V});
        });
    Restored->finish();
    std::vector<OutputEvent> Tail(Out.begin() + BeforeFinish, Out.end());
    if (Restored->failed() || digestOf(RestoredOut) != digestOf(Tail))
      R.mismatch(C.Name + ": restored monitor's finish() differs");
  }
  return secondsBetween(T0, T1) + secondsBetween(T2, T3);
}

/// One round: redeploy (compile every cell), then run every cell both
/// ways, alternating between rounds which goes first.
void runRound(std::vector<Cell> &Cells, Samples &S, Tracer &T, Report &R) {
  SpanScope RS(T, "round");
  S.ForkUs.newRound();
  S.SnapshotMs.newRound();
  // One deployment compiles in about a millisecond; timing it a few
  // times per round gives the set-up median enough samples.
  for (unsigned K = 0; K != CompilesPerRound; ++K) {
    SpanScope CS(T, "compiler.compile", RS.id());
    auto A = Clock::now();
    compileCells(Cells);
    S.SetupS.push_back(secondsBetween(A, Clock::now()));
  }
  S.OptSeconds.resize(Cells.size());
  S.BaseSeconds.resize(Cells.size());
  for (size_t I = 0; I != Cells.size(); ++I)
    for (int K = 0; K != 2; ++K) {
      bool Optimized = (K == 0) == (S.Rounds % 2 == 0);
      double Secs = runCell(Cells[I], Optimized, Optimized && Cells[I].Large,
                            S, T, RS.id(), R);
      (Optimized ? S.OptSeconds : S.BaseSeconds)[I].push_back(Secs);
    }
  ++S.Rounds;
}

/// Events per second of one cell in its fastest round. This workload is
/// single-threaded, so the fastest round is bounded by the machine's own
/// speed; host interference only ever slows rounds down, which makes the
/// best round far steadier across runs than the median one.
double bestRate(const Cell &C, const std::vector<double> &Seconds) {
  return static_cast<double>(C.Events.size()) /
         *std::min_element(Seconds.begin(), Seconds.end());
}

double optEventsPerSecond(const std::vector<Cell> &Cells, const Samples &S) {
  std::vector<double> Rates;
  for (size_t I = 0; I != Cells.size(); ++I)
    Rates.push_back(bestRate(Cells[I], S.OptSeconds[I]));
  return geomean(Rates);
}

} // namespace

void runFig9(const Options &O, Report &R) {
  std::vector<Cell> Cells;
  compileCells(Cells);
  generateInputs(Cells, O.Seed);
  R.Meta.push_back({"threads", "1"});
  R.Meta.push_back({"events_per_cell", std::to_string(EventsPerCell)});

  Tracer Off(false);
  if (!O.Trace) {
    Samples S;
    auto Deadline = deadlineAfter(O.Seconds);
    while (S.Rounds < MinRounds || Clock::now() < Deadline)
      runRound(Cells, S, Off, R);
    std::vector<double> BaseRates, Speedups;
    for (size_t I = 0; I != Cells.size(); ++I) {
      BaseRates.push_back(bestRate(Cells[I], S.BaseSeconds[I]));
      // Opt and base of one round run back to back, so their ratio
      // cancels host speed drift; the median over rounds is reported.
      std::vector<double> Ratios;
      for (unsigned Rd = 0; Rd != S.Rounds; ++Rd)
        Ratios.push_back(S.BaseSeconds[I][Rd] / S.OptSeconds[I][Rd]);
      Speedups.push_back(median(Ratios));
      std::printf("cell %-20s best opt %8.4f s  base %8.4f s  speedup "
                  "%.3fx\n",
                  Cells[I].Name.c_str(),
                  *std::min_element(S.OptSeconds[I].begin(),
                                    S.OptSeconds[I].end()),
                  *std::min_element(S.BaseSeconds[I].begin(),
                                    S.BaseSeconds[I].end()),
                  Speedups.back());
    }
    R.Meta.push_back({"rounds", std::to_string(S.Rounds)});
    R.metric("setup_s", median(S.SetupS), "s");
    R.metric("events_per_s", optEventsPerSecond(Cells, S), "1/s");
    R.metric("base_events_per_s", geomean(BaseRates), "1/s");
    R.metric("speedup_opt_vs_base", geomean(Speedups), "x");
    R.metric("fork_us_p50", S.ForkUs.pooled(0.5), "us");
    R.metric("snapshot_ms_p50", S.SnapshotMs.pooled(0.5), "ms");
    R.metric("snapshot_ms_p90", S.SnapshotMs.perRound(0.9), "ms");
    R.metric("restore_ms_p50", quantile(S.RestoreMs, 0.5), "ms");
    R.metric("peak_rss_mb", peakRssMb(), "MB");
    return;
  }

  // Traced and untraced rounds alternate, so the overhead estimate sees
  // the same host conditions on both sides.
  declareLayerMetrics(R);
  Tracer T(true);
  std::vector<double> FeedNs, BaseFeedNs;
  Samples Untraced, Traced;
  Traced.FeedNs = &FeedNs;
  Traced.BaseFeedNs = &BaseFeedNs;
  auto Deadline = deadlineAfter(O.Seconds * 0.8);
  while (Traced.Rounds < 2 || Clock::now() < Deadline) {
    runRound(Cells, Untraced, Off, R);
    runRound(Cells, Traced, T, R);
  }
  reportTraceOverhead(R, median(Untraced.SetupS) * 1e3,
                      optEventsPerSecond(Cells, Untraced),
                      optEventsPerSecond(Cells, Traced));
  setMetric(R, "monitor.feed_ns_p50", quantile(FeedNs, 0.5));
  setMetric(R, "monitor.feed_ns_p99", quantile(FeedNs, 0.99));
  setMetric(R, "monitor.base_feed_ns_p50", quantile(BaseFeedNs, 0.5));
  setMetric(R, "fork.latency_us_p99", Untraced.ForkUs.perRound(0.99));
  std::vector<ReplayInput> Replays;
  std::vector<EventRecord> Records;
  for (const Cell &C : Cells) {
    Replays.push_back({C.Opt.get(), C.Base.get(), &C.Events});
    for (const auto &[Id, Ts, V] : C.Events)
      Records.push_back({0, Id, Ts, V});
  }
  reportCountProbe(R, Replays);
  reportWireProbe(R, Records);
  // The Seen Set at 10,000 elements: the paper's largest structure.
  for (const Cell &C : Cells)
    if (C.Large && C.Name.rfind("seen-set", 0) == 0)
      reportCheckpointProbe(R, C.LastSnapshot, *C.Opt);

  std::string Path = O.WorkDir + "/spans-fig9-aggregates.jsonl";
  if (!T.write(Path))
    std::fprintf(stderr, "perfbench: could not write %s\n", Path.c_str());
}

} // namespace perfbench
