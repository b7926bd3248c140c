//===- perfbench/Common.h - Shared benchmark machinery ----------*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads share: options and seeds, the run report
/// (correctness, attempted/failed operations, named metrics), output
/// digests, quantiles, the in-memory span tracer, per-call latency
/// samples, the counting allocator, and the layer probes every workload
/// runs on its own inputs when traced (fresh-Monitor replays, wire
/// encode/decode, checkpoint serialize/load, fleet counters).
///
/// Everything here drives the monitor libraries through their public
/// API only; no tracing lives in the libraries themselves.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "tessla/Compiler/Compiler.h"
#include "tessla/Eval/Workloads.h"
#include "tessla/Runtime/Checkpoint.h"
#include "tessla/Runtime/FleetClient.h"
#include "tessla/Runtime/Monitor.h"
#include "tessla/Runtime/TraceGen.h"
#include "tessla/Runtime/Wire.h"

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <sched.h>
#include <string>
#include <vector>

namespace perfbench {

using namespace tessla;

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

inline Clock::time_point deadlineAfter(double Seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(Seconds));
}

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  /// Directory for the Unix socket and the span file.
  std::string WorkDir = ".";
};

/// Trace seed for one generator. Run seed 0 reproduces the historical
/// seeds of the bench/ binaries (101/102/103, 7000+i, 9000+i); other run
/// seeds shift every generator by a stride larger than any session
/// count, so no two generators of one run share a seed.
inline uint64_t traceSeed(uint64_t Base, uint64_t RunSeed) {
  return Base + RunSeed * 1000003ull;
}

/// The result of one run: correctness, the operation tally behind the
/// result line's attempted/failed fields, and the named metrics.
struct Report {
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };

  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Problems;
  std::vector<Metric> Metrics;
  /// Facts about the run printed on the meta line (thread counts, sizes).
  std::vector<std::pair<std::string, std::string>> Meta;

  void metric(const std::string &Name, double Value,
              const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  /// An output digest or round-trip check failed: the run is incorrect.
  void mismatch(const std::string &What);
  /// \p N operations failed or were refused (counted and reported).
  void failure(const std::string &What, uint64_t N = 1);
  /// Checks \p Ok; on false records a failed operation.
  bool check(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok)
      failure(What);
    return Ok;
  }
};

// --- Output digests -------------------------------------------------------

/// FNV-1a-64 over (ts, stream, Value::str()) of one session's outputs in
/// emission order. The session id enters where per-session digests are
/// compared (SessionDigests is keyed by it).
class Digest {
public:
  void addU64(uint64_t V);
  void addOutput(Time Ts, StreamId Stream, const Value &V);
  uint64_t value() const { return H; }

private:
  uint64_t H = 1469598103934665603ull;
};

using SessionDigests = std::map<SessionId, uint64_t>;

uint64_t digestOf(const std::vector<OutputEvent> &Outputs);
SessionDigests digestsOf(const std::vector<SessionOutputEvent> &Outputs);

/// FleetClient::finish(), counting the call and any failed session.
std::optional<FleetFinish> finishChecked(Report &R, FleetClient &C,
                                         const std::string &What);

/// Compares fleet output digests against the expected ones, session by
/// session; any missing, extra or different session is a mismatch.
void compareDigests(Report &R, const std::string &What,
                    const SessionDigests &Expected,
                    const SessionDigests &Actual);

// --- Statistics -----------------------------------------------------------

/// Linear-interpolation quantile (\p Q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}
double geomean(const std::vector<double> &V);

/// Latency samples grouped by round. The median is pooled over the run;
/// a tail percentile is taken within each round and the median over the
/// rounds reported, so one disturbed round cannot move it.
class RoundSamples {
public:
  void newRound() { Rounds.emplace_back(); }
  void add(double V) { Rounds.back().push_back(V); }
  double pooled(double Q) const;
  double perRound(double Q) const;

private:
  std::vector<std::vector<double>> Rounds;
};

/// Peak resident set size of this process, in MiB.
double peakRssMb();

/// Restricts the calling thread to one of the CPUs it may run on (the
/// highest-numbered) for the object's lifetime; threads it starts
/// meanwhile inherit the restriction and keep it. A thread handoff then
/// is a context switch on that CPU, with no wake-up of an idle virtual
/// CPU, whose latency follows the host rather than the program. A no-op
/// where the affinity cannot be read or set.
class ScopedCpuPin {
public:
  ScopedCpuPin();
  ~ScopedCpuPin();
  ScopedCpuPin(const ScopedCpuPin &) = delete;
  ScopedCpuPin &operator=(const ScopedCpuPin &) = delete;

private:
  cpu_set_t Saved;
  bool Pinned = false;
};

// --- Tracing --------------------------------------------------------------

/// In-memory spans recorded around calls into the libraries, written
/// once at the end of the run. A disabled tracer records nothing.
class Tracer {
public:
  static constexpr uint32_t NoSpan = ~0u;

  explicit Tracer(bool On);

  uint32_t begin(const char *Name, uint32_t Parent = NoSpan);
  void end(uint32_t Id);
  /// One JSON object per line: name, start/end (ns since the tracer was
  /// made), span id and parent id.
  bool write(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    int64_t StartNs;
    int64_t EndNs;
    uint32_t Parent;
  };
  bool On;
  Clock::time_point Epoch;
  std::vector<Span> Spans;
};

/// RAII span.
class SpanScope {
public:
  SpanScope(Tracer &T, const char *Name, uint32_t Parent = Tracer::NoSpan)
      : T(T), Id(T.begin(Name, Parent)) {}
  ~SpanScope() { T.end(Id); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
  uint32_t id() const { return Id; }

private:
  Tracer &T;
  uint32_t Id;
};

/// Per-call latencies in ns. With a null sink nothing is timed, so the
/// untraced path pays one branch per call.
class CallTimer {
public:
  explicit CallTimer(std::vector<double> *Sink)
      : Sink(Sink), Start(Sink ? Clock::now() : Clock::time_point()) {}
  ~CallTimer() {
    if (Sink)
      Sink->push_back(
          std::chrono::duration<double, std::nano>(Clock::now() - Start)
              .count() -
          clockOverheadNs());
  }
  CallTimer(const CallTimer &) = delete;
  CallTimer &operator=(const CallTimer &) = delete;

  /// Mean cost of one steady_clock read pair, measured once; subtracted
  /// from every sample so per-call figures price the call, not the clock.
  static double clockOverheadNs();

private:
  std::vector<double> *Sink;
  Clock::time_point Start;
};

// --- Compilation ----------------------------------------------------------

/// compileSpec or exit: the specs are compiled in, so failure is a bug.
Program compileOrDie(const Spec &S, bool Optimize);

// --- Fresh-Monitor replays ------------------------------------------------

struct ReplayResult {
  std::vector<OutputEvent> Outputs;
  bool Failed = false;
  std::string Error;
};

/// Runs \p Events through a fresh Monitor, recording outputs into a
/// vector reserved up front (so recording allocates nothing per event).
/// With \p FeedNs, every Monitor::feed is timed into it.
ReplayResult replay(const Program &P, const std::vector<TraceEvent> &Events,
                    std::vector<double> *FeedNs = nullptr);

/// Digest of a fresh-Monitor replay (the reference every workload's
/// outputs are checked against), over the outputs after timestamp
/// \p After.
uint64_t replayDigest(const Program &P,
                      const std::vector<TraceEvent> &Events, Report &R,
                      Time After = std::numeric_limits<Time>::min());

// --- Per-layer metrics (traced runs) -------------------------------------

/// Records every per-layer metric, zero-valued, so each traced run prints
/// the full set; the reporters below and the workloads then overwrite the
/// layers a workload exercises.
void declareLayerMetrics(Report &R);
void setMetric(Report &R, const std::string &Name, double Value);

/// compiler.compile_ms and the trace.* overhead metrics.
void reportTraceOverhead(Report &R, double CompileMs, double UntracedRate,
                         double TracedRate);

/// One single-session input replayed through fresh Monitors of both
/// programs.
struct ReplayInput {
  const Program *Opt;
  const Program *Base;
  const std::vector<TraceEvent> *Events;
};

/// monitor.*: every Monitor::feed of fresh-Monitor replays, timed.
void reportMonitorProbe(Report &R, const std::vector<ReplayInput> &Inputs);

/// alloc.*, value.identity_changes_per_event and trace.counts_repeat,
/// from two counting passes over fresh-Monitor replays: allocations
/// during feed/finish (the counting operator new), and aggregate slots
/// whose Value::aggregateIdentity() changed across one feed (via
/// Monitor::visitValues). Single-threaded, so the counts must repeat.
void reportCountProbe(Report &R, const std::vector<ReplayInput> &Inputs);

/// wire.*: encodeEventBatch/decodeEventBatch over \p Records in the
/// fleet's BatchSize batches (median of several passes); a decode that
/// does not round-trip is a mismatch.
void reportWireProbe(Report &R, const std::vector<EventRecord> &Records);

/// checkpoint.*: loadCheckpoint + serializeCheckpoint of one checkpoint
/// (median of several passes); re-serializing must reproduce the bytes.
void reportCheckpointProbe(Report &R, const std::vector<uint8_t> &Bytes,
                           const Program &P);

/// The ShardStats counters a fleet prints through statsText() (the
/// append-only key=value rendering), summed or maxed over shards.
struct FleetCounters {
  uint64_t BackpressureStalls = 0;
  uint64_t QueueHighWater = 0;
  uint64_t Steals = 0;
  uint64_t BatchedShards = 0;
  uint64_t AggregateBytes = 0;
  uint64_t NodesShared = 0;
  uint64_t NodesUnique = 0;
  double ShardSkew = 0; ///< max/mean events processed
};
FleetCounters parseFleetStats(const std::string &Text);

/// fleet.* counters from \p Traffic and fork.* from \p Forks (medians
/// over the traced rounds).
void reportFleetCounters(Report &R, const std::vector<FleetCounters> &Traffic,
                         const std::vector<FleetCounters> &Forks);

// --- The workloads (one file each) -----------------------------------------

void runFig9(const Options &O, Report &R);
void runFleetSocket(const Options &O, Report &R);
void runSessionOps(const Options &O, Report &R);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
