//===- perfbench/Common.cpp - Shared benchmark machinery ------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <pthread.h>
#include <sstream>
#include <sys/resource.h>

namespace perfbench {

void Report::mismatch(const std::string &What) {
  Correct = false;
  Problems.push_back("mismatch: " + What);
}

void Report::failure(const std::string &What, uint64_t N) {
  Failed += N;
  Problems.push_back("failed: " + What);
}

// --- Output digests -------------------------------------------------------

void Digest::addU64(uint64_t V) {
  for (int I = 0; I != 8; ++I) {
    H ^= (V >> (8 * I)) & 0xff;
    H *= 1099511628211ull;
  }
}

void Digest::addOutput(Time Ts, StreamId Stream, const Value &V) {
  addU64(static_cast<uint64_t>(Ts));
  addU64(Stream);
  for (unsigned char C : V.str()) {
    H ^= C;
    H *= 1099511628211ull;
  }
  addU64(0xff); // terminator: "1","2" differs from "12"
}

uint64_t digestOf(const std::vector<OutputEvent> &Outputs) {
  Digest D;
  for (const OutputEvent &E : Outputs)
    D.addOutput(E.Ts, E.Id, E.V);
  return D.value();
}

SessionDigests digestsOf(const std::vector<SessionOutputEvent> &Outputs) {
  std::map<SessionId, Digest> Ds;
  for (const SessionOutputEvent &E : Outputs)
    Ds[E.Session].addOutput(E.Event.Ts, E.Event.Id, E.Event.V);
  SessionDigests Out;
  for (const auto &[S, D] : Ds)
    Out[S] = D.value();
  return Out;
}

std::optional<FleetFinish> finishChecked(Report &R, FleetClient &C,
                                         const std::string &What) {
  std::string Err;
  std::optional<FleetFinish> F = C.finish(&Err);
  if (!R.check(F.has_value(), What + " finish: " + Err))
    return std::nullopt;
  if (F->FailedSessions)
    R.failure(What + ": sessions failed", F->FailedSessions);
  return F;
}

void compareDigests(Report &R, const std::string &What,
                    const SessionDigests &Expected,
                    const SessionDigests &Actual) {
  // A session without outputs does not appear in a fleet's output trace.
  const uint64_t Empty = Digest().value();
  for (const auto &[S, D] : Expected) {
    auto It = Actual.find(S);
    if ((It == Actual.end() ? Empty : It->second) != D) {
      R.mismatch(What + ": session " + std::to_string(S) +
                 (It == Actual.end() ? " missing" : " differs"));
      return;
    }
  }
  for (const auto &[S, D] : Actual)
    if (!Expected.count(S)) {
      R.mismatch(What + ": unexpected session " + std::to_string(S));
      return;
    }
}

// --- Statistics -----------------------------------------------------------

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double RoundSamples::pooled(double Q) const {
  std::vector<double> All;
  for (const std::vector<double> &R : Rounds)
    All.insert(All.end(), R.begin(), R.end());
  return quantile(std::move(All), Q);
}

double RoundSamples::perRound(double Q) const {
  std::vector<double> PerRound;
  for (const std::vector<double> &R : Rounds)
    if (!R.empty())
      PerRound.push_back(quantile(R, Q));
  return median(std::move(PerRound));
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

ScopedCpuPin::ScopedCpuPin() {
  pthread_t Self = pthread_self();
  if (pthread_getaffinity_np(Self, sizeof Saved, &Saved) != 0)
    return;
  for (int C = CPU_SETSIZE - 1; C >= 0; --C)
    if (CPU_ISSET(C, &Saved)) {
      cpu_set_t One;
      CPU_ZERO(&One);
      CPU_SET(C, &One);
      Pinned = pthread_setaffinity_np(Self, sizeof One, &One) == 0;
      return;
    }
}

ScopedCpuPin::~ScopedCpuPin() {
  if (Pinned)
    pthread_setaffinity_np(pthread_self(), sizeof Saved, &Saved);
}

// --- Tracing --------------------------------------------------------------

Tracer::Tracer(bool On) : On(On), Epoch(Clock::now()) {
  if (On)
    Spans.reserve(1 << 16);
}

uint32_t Tracer::begin(const char *Name, uint32_t Parent) {
  if (!On)
    return NoSpan;
  int64_t Now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - Epoch)
                    .count();
  Spans.push_back({Name, Now, -1, Parent});
  return static_cast<uint32_t>(Spans.size() - 1);
}

void Tracer::end(uint32_t Id) {
  if (!On || Id == NoSpan)
    return;
  Spans[Id].EndNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - Epoch)
                        .count();
}

bool Tracer::write(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\": %zu, \"parent\": %lld, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                 I,
                 S.Parent == NoSpan ? -1LL
                                    : static_cast<long long>(S.Parent),
                 S.Name, static_cast<long long>(S.StartNs),
                 static_cast<long long>(S.EndNs));
  }
  return std::fclose(F) == 0;
}

double CallTimer::clockOverheadNs() {
  static const double Overhead = [] {
    constexpr int N = 100000;
    auto Start = Clock::now();
    for (int I = 0; I != N; ++I)
      (void)Clock::now();
    return std::chrono::duration<double, std::nano>(Clock::now() - Start)
               .count() /
           N;
  }();
  return Overhead;
}

// --- Counting allocator ---------------------------------------------------

// Every operator new of the benchmark binary (libraries included) goes
// through countedAlloc (see the replacements at the end of this file).
// Counting is off except inside countProbe, which runs single-threaded, so
// the untimed path pays one relaxed load per allocation.
namespace {
std::atomic<bool> Counting{false};
std::atomic<uint64_t> CountedAllocs{0};
std::atomic<uint64_t> CountedBytes{0};

void *countedAlloc(std::size_t Size) {
  if (Counting.load(std::memory_order_relaxed)) {
    CountedAllocs.fetch_add(1, std::memory_order_relaxed);
    CountedBytes.fetch_add(Size, std::memory_order_relaxed);
  }
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *countedAlignedAlloc(std::size_t Size, std::align_val_t Align) {
  if (Counting.load(std::memory_order_relaxed)) {
    CountedAllocs.fetch_add(1, std::memory_order_relaxed);
    CountedBytes.fetch_add(Size, std::memory_order_relaxed);
  }
  std::size_t A = static_cast<std::size_t>(Align);
  if (void *P = std::aligned_alloc(A, (Size + A - 1) / A * A))
    return P;
  throw std::bad_alloc();
}

struct AllocCounts {
  uint64_t Count = 0;
  uint64_t Bytes = 0;
};

void startAllocCounting() {
  CountedAllocs.store(0, std::memory_order_relaxed);
  CountedBytes.store(0, std::memory_order_relaxed);
  Counting.store(true, std::memory_order_relaxed);
}

AllocCounts stopAllocCounting() {
  Counting.store(false, std::memory_order_relaxed);
  return {CountedAllocs.load(std::memory_order_relaxed),
          CountedBytes.load(std::memory_order_relaxed)};
}
} // namespace

// --- Compilation ----------------------------------------------------------

Program compileOrDie(const Spec &S, bool Optimize) {
  CompileOptions Opts;
  Opts.Optimize = Optimize;
  DiagnosticEngine Diags;
  std::optional<Program> P = compileSpec(S, Opts, Diags);
  if (!P) {
    std::fprintf(stderr, "perfbench: compile failed:\n%s",
                 Diags.str().c_str());
    std::exit(1);
  }
  return std::move(*P);
}

// --- Fresh-Monitor replays ------------------------------------------------

ReplayResult replay(const Program &P, const std::vector<TraceEvent> &Events,
                    std::vector<double> *FeedNs) {
  ReplayResult R;
  R.Outputs.reserve(Events.size() + 16);
  Monitor M(P);
  M.setOutputHandler([&R](Time Ts, StreamId Id, const Value &V) {
    R.Outputs.push_back({Ts, Id, V});
  });
  for (const auto &[Id, Ts, V] : Events) {
    CallTimer T(FeedNs);
    if (!M.feed(Id, Ts, V))
      break;
  }
  M.finish();
  R.Failed = M.failed();
  R.Error = M.errorMessage();
  return R;
}

uint64_t replayDigest(const Program &P,
                      const std::vector<TraceEvent> &Events, Report &R,
                      Time After) {
  ReplayResult Res = replay(P, Events);
  R.check(!Res.Failed, "reference replay: " + Res.Error);
  Digest D;
  for (const OutputEvent &E : Res.Outputs)
    if (E.Ts > After)
      D.addOutput(E.Ts, E.Id, E.V);
  return D.value();
}

namespace {

struct CountProbe {
  uint64_t Allocs = 0;
  uint64_t AllocBytes = 0;
  uint64_t IdentityChanges = 0;
  bool operator==(const CountProbe &O) const {
    return Allocs == O.Allocs && AllocBytes == O.AllocBytes &&
           IdentityChanges == O.IdentityChanges;
  }
};

CountProbe countProbe(const Program &P, const std::vector<TraceEvent> &Events) {
  CountProbe C;
  // Allocations: feed + finish only; output recording is reserved.
  {
    std::vector<OutputEvent> Out;
    Out.reserve(Events.size() + 16);
    Monitor M(P);
    M.setOutputHandler([&Out](Time Ts, StreamId Id, const Value &V) {
      Out.push_back({Ts, Id, V});
    });
    startAllocCounting();
    for (const auto &[Id, Ts, V] : Events)
      M.feed(Id, Ts, V);
    M.finish();
    AllocCounts A = stopAllocCounting();
    C.Allocs = A.Count;
    C.AllocBytes = A.Bytes;
  }
  // Identity changes: a separate pass, since the walk itself allocates.
  Monitor M(P);
  M.setOutputHandler([](Time, StreamId, const Value &) {});
  std::vector<const void *> Before, After;
  auto Snap = [&M](std::vector<const void *> &Ids) {
    Ids.clear();
    M.visitValues(
        [&Ids](const Value &V) { Ids.push_back(V.aggregateIdentity()); });
  };
  Snap(Before);
  for (const auto &[Id, Ts, V] : Events) {
    M.feed(Id, Ts, V);
    Snap(After);
    for (size_t I = 0; I != std::min(Before.size(), After.size()); ++I)
      if (Before[I] && After[I] && Before[I] != After[I])
        ++C.IdentityChanges;
    std::swap(Before, After);
  }
  return C;
}

bool sameRecords(const EventBatch &A, const EventBatch &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I) {
    const EventRecord &X = A.Records[I], &Y = B.Records[I];
    if (X.Session != Y.Session || X.Input != Y.Input || X.Ts != Y.Ts ||
        X.V != Y.V)
      return false;
  }
  return true;
}

constexpr int ProbePasses = 5;

} // namespace

// --- Per-layer metrics (traced runs) -------------------------------------

void declareLayerMetrics(Report &R) {
  static const std::pair<const char *, const char *> Layers[] = {
      {"compiler.compile_ms", "ms"},
      {"monitor.feed_ns_p50", "ns"},
      {"monitor.feed_ns_p99", "ns"},
      {"monitor.base_feed_ns_p50", "ns"},
      {"value.identity_changes_per_event", "count"},
      {"alloc.per_event", "count"},
      {"alloc.bytes_per_event", "B"},
      {"alloc.base_per_event", "count"},
      {"fleet.feed_ns_p50", "ns"},
      {"fleet.feed_ns_p99", "ns"},
      {"fleet.backpressure_stalls", "count"},
      {"fleet.busy_frames", "count"},
      {"fleet.queue_high_water", "count"},
      {"fleet.steals", "count"},
      {"fleet.shard_skew", "ratio"},
      {"fleet.batched_shards", "count"},
      {"fleet.drain_ms", "ms"},
      {"wire.encode_ns_per_event", "ns"},
      {"wire.decode_ns_per_event", "ns"},
      {"wire.bytes_per_event", "B"},
      {"session.post_fork_feed_ns_p50", "ns"},
      {"fork.latency_us_p99", "us"},
      {"fork.aggregate_bytes", "B"},
      {"fork.nodes_shared", "count"},
      {"fork.nodes_unique", "count"},
      {"checkpoint.bytes", "B"},
      {"checkpoint.serialize_ms", "ms"},
      {"checkpoint.load_ms", "ms"},
      {"trace.events_per_s", "1/s"},
      {"trace.untraced_events_per_s", "1/s"},
      {"trace.overhead_pct", "%"},
      {"trace.counts_repeat", "count"},
  };
  for (const auto &[Name, Unit] : Layers)
    R.metric(Name, 0, Unit);
}

void setMetric(Report &R, const std::string &Name, double Value) {
  for (Report::Metric &M : R.Metrics)
    if (M.Name == Name) {
      M.Value = Value;
      return;
    }
  std::fprintf(stderr, "perfbench: undeclared metric %s\n", Name.c_str());
  std::exit(1);
}

void reportTraceOverhead(Report &R, double CompileMs, double UntracedRate,
                         double TracedRate) {
  setMetric(R, "compiler.compile_ms", CompileMs);
  setMetric(R, "trace.events_per_s", TracedRate);
  setMetric(R, "trace.untraced_events_per_s", UntracedRate);
  setMetric(R, "trace.overhead_pct", (UntracedRate / TracedRate - 1) * 100);
}

void reportMonitorProbe(Report &R, const std::vector<ReplayInput> &Inputs) {
  std::vector<double> Opt, Base;
  for (const ReplayInput &In : Inputs) {
    replay(*In.Opt, *In.Events, &Opt);
    replay(*In.Base, *In.Events, &Base);
  }
  setMetric(R, "monitor.feed_ns_p50", quantile(Opt, 0.5));
  setMetric(R, "monitor.feed_ns_p99", quantile(Opt, 0.99));
  setMetric(R, "monitor.base_feed_ns_p50", quantile(Base, 0.5));
}

void reportCountProbe(Report &R, const std::vector<ReplayInput> &Inputs) {
  CountProbe Opt[2], Base[2];
  uint64_t Events = 0;
  for (int Pass = 0; Pass != 2; ++Pass)
    for (const ReplayInput &In : Inputs) {
      CountProbe O = countProbe(*In.Opt, *In.Events);
      CountProbe B = countProbe(*In.Base, *In.Events);
      Opt[Pass].Allocs += O.Allocs;
      Opt[Pass].AllocBytes += O.AllocBytes;
      Opt[Pass].IdentityChanges += O.IdentityChanges;
      Base[Pass].Allocs += B.Allocs;
      Base[Pass].AllocBytes += B.AllocBytes;
      Base[Pass].IdentityChanges += B.IdentityChanges;
      Events += Pass == 0 ? In.Events->size() : 0;
    }
  double N = static_cast<double>(std::max<uint64_t>(1, Events));
  setMetric(R, "alloc.per_event", Opt[0].Allocs / N);
  setMetric(R, "alloc.bytes_per_event", Opt[0].AllocBytes / N);
  setMetric(R, "alloc.base_per_event", Base[0].Allocs / N);
  setMetric(R, "value.identity_changes_per_event", Opt[0].IdentityChanges / N);
  setMetric(R, "trace.counts_repeat", Opt[0] == Opt[1] && Base[0] == Base[1]);
}

void reportWireProbe(Report &R, const std::vector<EventRecord> &Records) {
  const size_t BatchSize = FleetOptions().BatchSize;
  std::vector<EventBatch> Batches;
  for (size_t I = 0; I < Records.size(); I += BatchSize) {
    EventBatch B;
    B.Records.assign(Records.begin() + I,
                     Records.begin() +
                         std::min(Records.size(), I + BatchSize));
    Batches.push_back(std::move(B));
  }
  std::vector<double> Enc, Dec;
  size_t Bytes = 0;
  bool RoundTrips = true;
  for (int Pass = 0; Pass != ProbePasses; ++Pass) {
    std::vector<std::vector<uint8_t>> Encoded(Batches.size());
    auto T0 = Clock::now();
    for (size_t I = 0; I != Batches.size(); ++I)
      Encoded[I] = encodeEventBatch(Batches[I]);
    auto T1 = Clock::now();
    std::vector<std::optional<EventBatch>> Decoded(Batches.size());
    std::string Err;
    for (size_t I = 0; I != Batches.size(); ++I)
      Decoded[I] = decodeEventBatch(Encoded[I].data(), Encoded[I].size(),
                                    Err);
    auto T2 = Clock::now();
    Enc.push_back(secondsBetween(T0, T1));
    Dec.push_back(secondsBetween(T1, T2));
    Bytes = 0;
    for (size_t I = 0; I != Batches.size(); ++I) {
      Bytes += Encoded[I].size();
      RoundTrips = RoundTrips && Decoded[I] &&
                   sameRecords(*Decoded[I], Batches[I]);
    }
  }
  if (!RoundTrips)
    R.mismatch("wire: decodeEventBatch does not round-trip the records");
  double N = static_cast<double>(std::max<size_t>(1, Records.size()));
  setMetric(R, "wire.encode_ns_per_event", median(Enc) * 1e9 / N);
  setMetric(R, "wire.decode_ns_per_event", median(Dec) * 1e9 / N);
  setMetric(R, "wire.bytes_per_event", static_cast<double>(Bytes) / N);
}

void reportCheckpointProbe(Report &R, const std::vector<uint8_t> &Bytes,
                           const Program &P) {
  std::vector<double> Ser, Load;
  for (int Pass = 0; Pass != ProbePasses; ++Pass) {
    DiagnosticEngine Diags;
    auto T0 = Clock::now();
    std::optional<FleetCheckpoint> C = loadCheckpoint(Bytes, P, Diags);
    auto T1 = Clock::now();
    if (!C) {
      R.mismatch("checkpoint: loadCheckpoint rejected a snapshot: " +
                 Diags.str());
      return;
    }
    std::vector<uint8_t> Again = serializeCheckpoint(*C);
    auto T2 = Clock::now();
    if (Again != Bytes) {
      R.mismatch("checkpoint: re-serialization changed the bytes");
      return;
    }
    Load.push_back(secondsBetween(T0, T1));
    Ser.push_back(secondsBetween(T1, T2));
  }
  setMetric(R, "checkpoint.bytes", static_cast<double>(Bytes.size()));
  setMetric(R, "checkpoint.serialize_ms", median(Ser) * 1e3);
  setMetric(R, "checkpoint.load_ms", median(Load) * 1e3);
}

FleetCounters parseFleetStats(const std::string &Text) {
  FleetCounters C;
  std::vector<double> Events;
  std::istringstream Lines(Text);
  std::string Line;
  while (std::getline(Lines, Line)) {
    if (Line.find("engine=") == std::string::npos)
      continue;
    std::map<std::string, std::string> KV;
    std::istringstream Words(Line);
    std::string W;
    while (Words >> W) {
      size_t Eq = W.find('=');
      if (Eq != std::string::npos)
        KV[W.substr(0, Eq)] = W.substr(Eq + 1);
    }
    auto U = [&KV](const char *K) -> uint64_t {
      auto It = KV.find(K);
      return It == KV.end() ? 0
                            : std::strtoull(It->second.c_str(), nullptr, 10);
    };
    C.BackpressureStalls += U("backpressure-stalls");
    C.QueueHighWater = std::max(C.QueueHighWater, U("queue-high-water"));
    C.Steals += U("stolen-in");
    C.BatchedShards += KV["engine"] == "batched";
    C.AggregateBytes += U("agg-bytes");
    C.NodesShared += U("agg-nodes-shared");
    C.NodesUnique += U("agg-nodes-unique");
    Events.push_back(static_cast<double>(U("events")));
  }
  double Sum = 0, Max = 0;
  for (double E : Events) {
    Sum += E;
    Max = std::max(Max, E);
  }
  if (Sum > 0)
    C.ShardSkew = Max / (Sum / static_cast<double>(Events.size()));
  return C;
}

void reportFleetCounters(Report &R, const std::vector<FleetCounters> &Traffic,
                         const std::vector<FleetCounters> &Forks) {
  auto MedianOf = [](const std::vector<FleetCounters> &Cs, auto Field) {
    std::vector<double> V;
    for (const FleetCounters &C : Cs)
      V.push_back(static_cast<double>(C.*Field));
    return median(std::move(V));
  };
  setMetric(R, "fleet.backpressure_stalls",
            MedianOf(Traffic, &FleetCounters::BackpressureStalls));
  setMetric(R, "fleet.queue_high_water",
            MedianOf(Traffic, &FleetCounters::QueueHighWater));
  setMetric(R, "fleet.steals", MedianOf(Traffic, &FleetCounters::Steals));
  setMetric(R, "fleet.shard_skew",
            MedianOf(Traffic, &FleetCounters::ShardSkew));
  setMetric(R, "fleet.batched_shards",
            MedianOf(Traffic, &FleetCounters::BatchedShards));
  setMetric(R, "fork.aggregate_bytes",
            MedianOf(Forks, &FleetCounters::AggregateBytes));
  setMetric(R, "fork.nodes_shared",
            MedianOf(Forks, &FleetCounters::NodesShared));
  setMetric(R, "fork.nodes_unique",
            MedianOf(Forks, &FleetCounters::NodesUnique));
}

} // namespace perfbench

// The counting allocator's replacements of the global operators.
void *operator new(std::size_t Size) { return perfbench::countedAlloc(Size); }
void *operator new[](std::size_t Size) {
  return perfbench::countedAlloc(Size);
}
void *operator new(std::size_t Size, std::align_val_t Align) {
  return perfbench::countedAlignedAlloc(Size, Align);
}
void *operator new[](std::size_t Size, std::align_val_t Align) {
  return perfbench::countedAlignedAlloc(Size, Align);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
