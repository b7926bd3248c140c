//===- Runtime/MonitorFleet.cpp ---------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/MonitorFleet.h"

#include "tessla/Support/Format.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>

using namespace tessla;

namespace {

/// splitmix64 finalizer — sequential session ids must not all land on
/// shard (id % N).
uint64_t mixHash(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

} // namespace

namespace tessla {

/// Bounded single-producer single-consumer ring of EventBatches — one
/// per (producer, shard) pair. The producer is the handle's thread, the
/// consumer the shard's worker. Slot contents are published by the
/// release store to Tail and reclaimed by the release store to Head.
/// Only the producer blocks (backpressure, C++20 atomic wait on Head);
/// the consumer polls many rings and sleeps on the shard-level work
/// signal instead, so pop is non-blocking here.
class SpscBatchRing {
public:
  explicit SpscBatchRing(size_t Capacity)
      : Cap(std::max<size_t>(Capacity, 1)), Slots(Cap) {}

  /// Producer: blocks while the ring is full. Every entry into the full
  /// state counts one backpressure stall.
  void push(EventBatch B) {
    size_t T = Tail.load(std::memory_order_relaxed);
    size_t H = Head.load(std::memory_order_acquire);
    if (T - H == Cap)
      ++Stalls;
    while (T - H == Cap) {
      Head.wait(H, std::memory_order_acquire);
      H = Head.load(std::memory_order_acquire);
    }
    Slots[T % Cap] = std::move(B);
    Tail.store(T + 1, std::memory_order_release);
    HighWater = std::max<uint64_t>(HighWater, T + 1 - H);
  }

  /// Producer: whether a push would complete without blocking. Exact
  /// from the producer's side — the consumer only ever *frees* slots, so
  /// a true result cannot be invalidated before the producer's own next
  /// push.
  bool canPush() const {
    size_t T = Tail.load(std::memory_order_relaxed);
    size_t H = Head.load(std::memory_order_acquire);
    return T - H != Cap;
  }

  /// Consumer: the head batch's merge sequence, or nullopt when empty.
  /// Safe to read without popping — the producer cannot overwrite the
  /// slot until Head advances past it.
  std::optional<uint64_t> peekSeq() const {
    size_t H = Head.load(std::memory_order_relaxed);
    size_t T = Tail.load(std::memory_order_acquire);
    if (T == H)
      return std::nullopt;
    return Slots[H % Cap].Seq;
  }

  /// Consumer: false when empty.
  bool tryPop(EventBatch &Out) {
    size_t H = Head.load(std::memory_order_relaxed);
    size_t T = Tail.load(std::memory_order_acquire);
    if (T == H)
      return false;
    Out = std::move(Slots[H % Cap]);
    Head.store(H + 1, std::memory_order_release);
    Head.notify_one();
    return true;
  }

  /// Producer-side high-water mark (batches in flight after a push);
  /// read after the producers quiesced and the worker joined.
  uint64_t highWater() const { return HighWater; }

  /// Producer-side count of pushes that entered the full state; read
  /// under the same quiescence contract as highWater().
  uint64_t stalls() const { return Stalls; }

private:
  const size_t Cap;
  std::vector<EventBatch> Slots;
  std::atomic<size_t> Head{0};
  std::atomic<size_t> Tail{0};
  uint64_t HighWater = 0;
  uint64_t Stalls = 0;
};

/// One producer's fan-in: a private ring into every shard plus the
/// handle-thread-owned pending buffers. Lanes are registered under
/// AdminMu and published through LaneCount; workers never lock.
struct MonitorFleet::ProducerLane {
  std::vector<std::unique_ptr<SpscBatchRing>> Rings; // [shard]
  std::vector<EventBatch> Pending;                   // [shard]
  bool Closed = false; // written under AdminMu / owner thread
};

/// One worker shard: the consumer of every producer's ring for this
/// shard index, plus the sessions currently executing here. Members
/// below `Thread` are touched only by the worker until it joins; the
/// join is the synchronization point for the final reads.
struct MonitorFleet::Shard {
  explicit Shard(unsigned Idx) : Index(Idx) {}

  /// A session's final verdict, filled when the worker retires it at
  /// run() exit — errors()/takeOutputs() read one engine-agnostic
  /// representation.
  struct SessionState {
    std::unique_ptr<std::vector<OutputEvent>> Outputs;
    bool Failed = false;
    std::string Error;
  };

  /// Where a session lives inside this shard's engine.
  struct LaneRef {
    unsigned Lane = 0;
    bool StolenIn = false;
  };

  /// One migration-inbox message: a whole-lane hand-off (Lane set) or
  /// records forwarded by a stolen session's home shard. Restored marks
  /// a checkpoint-restored lane (MonitorFleet::restore): it lands on its
  /// *home* shard, so it is not pinned like a stolen one and does not
  /// count as a steal.
  struct InboxMsg {
    SessionId Session = 0;
    EventBatch Records;
    std::unique_ptr<EngineLaneState> Lane;
    bool Restored = false;
    /// Fork adoption: Lane is a fork snapshot to adopt as Session — not
    /// pinned, not a steal; acknowledge through MonitorFleet::ForkOutcome.
    bool Forked = false;
    /// Fork request: snapshot live session Session into new session
    /// ForkDst (MonitorFleet::forkSession). Relayed to the thief when
    /// Session was stolen.
    bool ForkReq = false;
    SessionId ForkDst = 0;
  };

  const unsigned Index;

  // Cross-thread coordination. WorkSignal is bumped on every push
  // destined for this shard (ring or inbox) and at finish; the worker
  // sleeps on it when idle. QueueDepth approximates the backlog
  // (records in rings + inbox) and drives the steal heuristic.
  // StealRequest holds an idle peer's shard index (-1 = none).
  std::atomic<uint64_t> WorkSignal{0};
  std::atomic<int64_t> QueueDepth{0};
  std::atomic<int> StealRequest{-1};

  std::mutex InboxMu;
  std::deque<InboxMsg> Inbox;

  std::thread Thread;

  // Worker-owned state (ordered map => deterministic iteration).
  std::map<SessionId, SessionState> Sessions; // retired at run() exit
  std::vector<EngineLaneState> Suspended;     // filled when suspending
  std::map<SessionId, unsigned> ForwardTo; // stolen session -> thief
  std::map<unsigned, EventBatch> ForwardBuf;
  // The shard's execution engine and its session -> lane map. Created
  // by the worker thread at run() start; at run() exit the lanes are
  // retired into Sessions so reporting is engine-agnostic. LaneOf is
  // unordered on purpose: the map is hit once per record, and the only
  // iterations are donation (tie-breaks are timing-dependent anyway)
  // and retirement, which re-orders through the Sessions map.
  std::unique_ptr<ShardEngine> Engine;
  std::unordered_map<SessionId, LaneRef> LaneOf;
  ShardStats Stats;

  void run(MonitorFleet &F);
  void routeRecord(EventRecord &R);
  void processBatch(MonitorFleet &F, EventBatch &B);
  void flushForwards(MonitorFleet &F);
  bool drainInbox(MonitorFleet &F);
  void maybeDonate(MonitorFleet &F);
  void postStealRequests(MonitorFleet &F);
  void handleForkRequest(MonitorFleet &F, InboxMsg &Msg);
  void adoptFork(MonitorFleet &F, SessionId Dst, EngineLaneState Lane);
  void accumulateAggregateStats();
};

void MonitorFleet::Shard::routeRecord(EventRecord &R) {
  auto Fw = ForwardTo.find(R.Session);
  if (Fw != ForwardTo.end()) {
    // Stolen session: relay to its thief. This shard is the session's
    // home and its single forwarder, so relative record order survives.
    ForwardBuf[Fw->second].Records.push_back(std::move(R));
    ++Stats.RecordsForwarded;
    return;
  }
  auto [It, New] = LaneOf.try_emplace(R.Session, LaneRef{});
  if (New)
    It->second.Lane = Engine->addLane(R.Session);
  ++Stats.EventsProcessed;
  if (!Engine->laneFailed(It->second.Lane))
    Engine->feed(It->second.Lane, R.Input, R.Ts, std::move(R.V));
}

void MonitorFleet::Shard::processBatch(MonitorFleet &F, EventBatch &B) {
  ++Stats.BatchesDrained;
  for (EventRecord &R : B.Records)
    routeRecord(R);
  flushForwards(F);
  QueueDepth.fetch_sub(static_cast<int64_t>(B.Records.size()),
                       std::memory_order_relaxed);
}

void MonitorFleet::Shard::flushForwards(MonitorFleet &F) {
  for (auto &[Target, FB] : ForwardBuf) {
    if (FB.Records.empty())
      continue;
    Shard &T = *F.Workers[Target];
    T.QueueDepth.fetch_add(static_cast<int64_t>(FB.Records.size()),
                           std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> G(T.InboxMu);
      T.Inbox.push_back({0, std::move(FB), nullptr});
    }
    F.bumpSignal(T.Index);
    FB = EventBatch();
  }
}

bool MonitorFleet::Shard::drainInbox(MonitorFleet &F) {
  bool Progress = false;
  for (;;) {
    InboxMsg Msg;
    {
      std::lock_guard<std::mutex> G(InboxMu);
      if (Inbox.empty())
        break;
      Msg = std::move(Inbox.front());
      Inbox.pop_front();
    }
    Progress = true;
    if (Msg.ForkReq) {
      handleForkRequest(F, Msg);
    } else if (Msg.Lane && Msg.Forked) {
      adoptFork(F, Msg.Session, std::move(*Msg.Lane));
    } else if (Msg.Lane) {
      // Whole-lane hand-off. The FIFO inbox guarantees it precedes any
      // records the home shard forwards afterwards. Checkpoint-restored
      // lanes arrive on their home shard: not pinned, not a steal; the
      // adoption count releases the restore() caller.
      assert(!LaneOf.count(Msg.Session) &&
             "restore/steal of a session already live on this shard");
      if (!Msg.Restored)
        ++Stats.SessionsStolenIn;
      LaneOf[Msg.Session] = {Engine->insertLane(std::move(*Msg.Lane)),
                             /*StolenIn=*/!Msg.Restored};
      if (Msg.Restored) {
        F.RestoresAdopted.fetch_add(1, std::memory_order_release);
        F.RestoresAdopted.notify_all();
      }
    } else {
      for (EventRecord &R : Msg.Records.Records)
        routeRecord(R);
      QueueDepth.fetch_sub(static_cast<int64_t>(Msg.Records.Records.size()),
                           std::memory_order_relaxed);
    }
  }
  return Progress;
}

void MonitorFleet::Shard::maybeDonate(MonitorFleet &F) {
  if (!F.Opts.WorkStealing || F.Workers.size() < 2)
    return;
  if (!Engine->supportsMigration())
    return; // native lanes stay put
  if (F.Finishing.load(std::memory_order_relaxed))
    return;
  int Thief = StealRequest.load(std::memory_order_relaxed);
  if (Thief < 0 || Thief == static_cast<int>(Index))
    return;
  int64_t MyDepth = QueueDepth.load(std::memory_order_relaxed);
  if (MyDepth < static_cast<int64_t>(F.Opts.StealBacklog))
    return;
  Shard &T = *F.Workers[Thief];
  // Don't ping-pong load onto a peer that is itself backed up.
  if (T.QueueDepth.load(std::memory_order_relaxed) * 2 > MyDepth)
    return;
  // Donate the hottest home-owned session: past volume is the best
  // available predictor of future volume under skew.
  auto Best = LaneOf.end();
  uint64_t BestEvents = 0;
  for (auto It = LaneOf.begin(); It != LaneOf.end(); ++It) {
    const LaneRef &LR = It->second;
    if (LR.StolenIn || Engine->laneFailed(LR.Lane))
      continue;
    uint64_t E = Engine->laneInputEvents(LR.Lane);
    if (Best == LaneOf.end() || E > BestEvents) {
      Best = It;
      BestEvents = E;
    }
  }
  if (Best == LaneOf.end())
    return;
  SessionId Id = Best->first;
  auto Lane = std::make_unique<EngineLaneState>(
      Engine->extractLane(Best->second.Lane));
  LaneOf.erase(Best);
  ForwardTo[Id] = static_cast<unsigned>(Thief);
  ++Stats.SessionsStolenOut;
  {
    std::lock_guard<std::mutex> G(T.InboxMu);
    T.Inbox.push_back({Id, EventBatch(), std::move(Lane)});
  }
  F.bumpSignal(T.Index);
  StealRequest.store(-1, std::memory_order_relaxed);
}

void MonitorFleet::Shard::postStealRequests(MonitorFleet &F) {
  if (!Engine->supportsMigration())
    return; // a native shard cannot insert donated lanes
  // Standing requests: posted while idle regardless of current peer
  // depth, so a load spike that arrives after this worker went to sleep
  // still finds the request and wakes it with a donation.
  for (auto &W : F.Workers) {
    if (W->Index == Index)
      continue;
    int Expected = -1;
    W->StealRequest.compare_exchange_strong(Expected,
                                            static_cast<int>(Index),
                                            std::memory_order_relaxed);
  }
}

/// Executes a fork request on the shard that currently runs the source
/// session. The snapshot is taken between records and shares all
/// aggregate state structurally — the fork itself never copies a node.
void MonitorFleet::Shard::handleForkRequest(MonitorFleet &F, InboxMsg &Msg) {
  auto Fw = ForwardTo.find(Msg.Session);
  if (Fw != ForwardTo.end()) {
    // The source was stolen: relay the request to its thief through the
    // same FIFO channel forwarded records use, so the fork point stays
    // ordered against records this shard already relayed.
    Shard &T = *F.Workers[Fw->second];
    {
      std::lock_guard<std::mutex> G(T.InboxMu);
      T.Inbox.push_back(std::move(Msg));
    }
    F.bumpSignal(T.Index);
    return;
  }
  auto It = LaneOf.find(Msg.Session);
  if (It == LaneOf.end()) {
    F.finishFork(-1); // source session is not live
    return;
  }
  EngineLaneState S = Engine->snapshotLane(It->second.Lane);
  S.Session = Msg.ForkDst;
  unsigned DstShard = F.shardOf(Msg.ForkDst);
  if (DstShard == Index) {
    adoptFork(F, Msg.ForkDst, std::move(S));
    return;
  }
  Shard &T = *F.Workers[DstShard];
  auto Lane = std::make_unique<EngineLaneState>(std::move(S));
  {
    std::lock_guard<std::mutex> G(T.InboxMu);
    InboxMsg M;
    M.Session = Msg.ForkDst;
    M.Lane = std::move(Lane);
    M.Forked = true;
    T.Inbox.push_back(std::move(M));
  }
  F.bumpSignal(DstShard);
}

/// Adopts a fork snapshot as new session \p Dst on this (its home)
/// shard and acknowledges the waiting forkSession() caller.
void MonitorFleet::Shard::adoptFork(MonitorFleet &F, SessionId Dst,
                                    EngineLaneState Lane) {
  if (LaneOf.count(Dst) || ForwardTo.count(Dst)) {
    F.finishFork(-2); // destination session is already live
    return;
  }
  LaneOf[Dst] = {Engine->insertLane(std::move(Lane)), /*StolenIn=*/false};
  ++Stats.SessionsForkedIn;
  F.finishFork(1);
}

/// Walks every runtime Value the engine still holds and accounts its
/// aggregate nodes: resident bytes (each node once, however many values
/// share it) and the shared/unique ownership split. Run at worker exit,
/// before the lanes are retired or extracted.
void MonitorFleet::Shard::accumulateAggregateStats() {
  std::unordered_set<const void *> Seen;
  Engine->visitValues([&](const Value &V) {
    V.forEachAggregateNode(
        [&](const void *Node, size_t Bytes, uint32_t Owners) {
          if (!Seen.insert(Node).second)
            return false; // subtree already accounted through another ref
          Stats.AggregateBytes += Bytes;
          if (Owners > 1)
            ++Stats.AggregateNodesShared;
          else
            ++Stats.AggregateNodesUnique;
          return true;
        });
  });
}

void MonitorFleet::Shard::run(MonitorFleet &F) {
  const unsigned NShards = static_cast<unsigned>(F.Workers.size());
  Engine = F.Mode == FleetMode::Native
               ? F.Opts.NativeFactory(F.Prog, F.Opts.CollectOutputs)
               : makePerSessionEngine(F.Prog, F.Opts.CollectOutputs);
  std::vector<char> LaneClosed(F.Opts.MaxProducers, 0);
  unsigned ClosedLanes = 0;
  bool Announced = false;

  for (;;) {
    // Snapshot the signal before scanning: a push after the snapshot
    // makes the wait below return immediately (no lost wakeups).
    uint64_t Sig = WorkSignal.load(std::memory_order_acquire);
    bool Progress = drainInbox(F);

    // Merge the producer rings: always drain the lowest-sequence batch
    // available, which linearizes externally synchronized cross-producer
    // hand-offs of one session (see the header).
    for (;;) {
      // Select the lowest-sequence head batch, re-scanning until the
      // selection is stable. A single pass is not enough: a lower-seq
      // batch (e.g. the earlier half of a cross-producer session
      // hand-off) can become visible mid-scan, after its lane was
      // already peeked, and popping the higher-seq candidate would feed
      // the session's later records first. The confirming pass runs
      // after the acquire load of the candidate's Tail, which orders
      // every batch pushed-before the candidate, so a selection that
      // survives a full re-scan is the true minimum of all
      // already-pushed batches. Seqs are globally unique and this
      // worker is the sole consumer of its rings, so BestSeq strictly
      // decreases on every retry and the loop terminates.
      int BestLane = -1;
      uint64_t BestSeq = 0;
      for (;;) {
        unsigned N = F.LaneCount.load(std::memory_order_acquire);
        int Lane = -1;
        uint64_t Seq = 0;
        for (unsigned L = 0; L != N; ++L) {
          if (LaneClosed[L])
            continue;
          std::optional<uint64_t> S = F.Lanes[L]->Rings[Index]->peekSeq();
          if (S && (Lane < 0 || *S < Seq)) {
            Lane = static_cast<int>(L);
            Seq = *S;
          }
        }
        if (Lane == BestLane && (Lane < 0 || Seq == BestSeq))
          break;
        BestLane = Lane;
        BestSeq = Seq;
      }
      if (BestLane < 0)
        break;
      EventBatch B;
      bool Popped = F.Lanes[BestLane]->Rings[Index]->tryPop(B);
      assert(Popped && "sole consumer raced itself");
      (void)Popped;
      if (B.Close) {
        LaneClosed[BestLane] = 1;
        ++ClosedLanes;
      } else {
        processBatch(F, B);
      }
      Progress = true;
      drainInbox(F);
      maybeDonate(F);
    }

    if (F.Finishing.load(std::memory_order_acquire) &&
        ClosedLanes == F.LaneCount.load(std::memory_order_acquire)) {
      // All producer input drained here. Announce it; once every worker
      // has, no forwards can be created anymore, so an empty inbox is
      // final. Checking DrainedWorkers *before* the inbox makes the
      // exit race-free: a peer's forwards are pushed before it
      // announces.
      if (!Announced) {
        Announced = true;
        F.DrainedWorkers.fetch_add(1, std::memory_order_acq_rel);
        for (unsigned S = 0; S != NShards; ++S)
          F.bumpSignal(S);
      }
      if (F.DrainedWorkers.load(std::memory_order_acquire) == NShards) {
        std::lock_guard<std::mutex> G(InboxMu);
        if (Inbox.empty())
          break;
      }
    }

    if (!Progress) {
      if (F.Opts.WorkStealing && NShards > 1 &&
          !F.Finishing.load(std::memory_order_relaxed))
        postStealRequests(F);
      WorkSignal.wait(Sig, std::memory_order_acquire);
    }
  }

  if (F.Suspending.load(std::memory_order_acquire) &&
      Engine->supportsMigration()) {
    // Checkpoint: every ring and inbox is drained — extract the lanes
    // whole (state and recorded outputs) instead of finishing them.
    // suspend() merges and sorts across shards.
    Stats.Engine = Engine->name();
    accumulateAggregateStats();
    Suspended.reserve(LaneOf.size());
    for (auto &[Id, LR] : LaneOf) {
      if (Engine->laneFailed(LR.Lane))
        ++Stats.FailedSessions;
      Stats.OutputsEmitted += Engine->laneOutputEvents(LR.Lane);
      Suspended.push_back(Engine->extractLane(LR.Lane));
    }
    Stats.Sessions = LaneOf.size();
    Engine.reset();
    return;
  }

  // Retire every lane into an engine-agnostic SessionState so
  // errors()/takeOutputs() read one representation.
  Engine->finishAll(F.Opts.Horizon);
  Stats.Engine = Engine->name();
  accumulateAggregateStats();
  for (auto &[Id, LR] : LaneOf) {
    SessionState SS;
    SS.Failed = Engine->laneFailed(LR.Lane);
    if (SS.Failed) {
      SS.Error = Engine->laneError(LR.Lane);
      ++Stats.FailedSessions;
    }
    if (F.Opts.CollectOutputs)
      SS.Outputs = std::make_unique<std::vector<OutputEvent>>(
          Engine->takeLaneOutputs(LR.Lane));
    Stats.OutputsEmitted += Engine->laneOutputEvents(LR.Lane);
    Sessions.emplace(Id, std::move(SS));
  }
  Stats.Sessions = LaneOf.size();
  // Destroy the engine before run() returns: a native engine must not
  // outlive the fleet's hold on its shared object.
  Engine.reset();
  // QueueHighWater is producer-side state; finish() fills it in after
  // the join (reading it here would race with the last push).
}

//===----------------------------------------------------------------------===//
// ProducerHandle
//===----------------------------------------------------------------------===//

bool ProducerHandle::feed(SessionId Session, StreamId Input, Time Ts,
                          Value V) {
  if (!Fleet)
    return false;
  return Fleet->laneFeed(Lane, Session, Input, Ts, std::move(V));
}

FeedStatus ProducerHandle::tryFeed(SessionId Session, StreamId Input,
                                   Time Ts, Value V) {
  if (!Fleet)
    return FeedStatus::Closed;
  return Fleet->laneTryFeed(Lane, Session, Input, Ts, std::move(V));
}

void ProducerHandle::flush() {
  if (Fleet)
    Fleet->laneFlush(Lane);
}

void ProducerHandle::close() {
  if (!Fleet)
    return;
  Fleet->laneClose(Lane);
  Fleet = nullptr;
}

//===----------------------------------------------------------------------===//
// MonitorFleet
//===----------------------------------------------------------------------===//

MonitorFleet::MonitorFleet(const Program &Prog_, FleetOptions Opts_)
    : Prog(Prog_), Opts(Opts_) {
  if (Opts.Shards == 0)
    Opts.Shards = 1;
  if (Opts.BatchSize == 0)
    Opts.BatchSize = 1;
  if (Opts.MaxProducers == 0)
    Opts.MaxProducers = 1;
  if (Opts.StealBacklog == 0)
    Opts.StealBacklog = 4 * Opts.BatchSize;
  Mode = Opts.Mode;
  if (Mode == FleetMode::Native && !Opts.NativeFactory) {
    Mode = FleetMode::PerSession;
    EngineFallback = "native engine unavailable: no NativeFactory "
                     "configured; using the per-session interpreter";
  }
  Lanes.resize(Opts.MaxProducers);
  Workers.reserve(Opts.Shards);
  for (unsigned I = 0; I != Opts.Shards; ++I)
    Workers.push_back(std::make_unique<Shard>(I));
  for (auto &W : Workers)
    W->Thread = std::thread([this, S = W.get()] { S->run(*this); });
}

MonitorFleet::~MonitorFleet() { finish(); }

unsigned MonitorFleet::shardOf(SessionId Session) const {
  return static_cast<unsigned>(mixHash(Session) % Workers.size());
}

void MonitorFleet::bumpSignal(unsigned ShardIdx) {
  Shard &S = *Workers[ShardIdx];
  S.WorkSignal.fetch_add(1, std::memory_order_release);
  S.WorkSignal.notify_one();
}

ProducerHandle MonitorFleet::producer() {
  std::lock_guard<std::mutex> G(AdminMu);
  if (Finished)
    return {};
  unsigned N = LaneCount.load(std::memory_order_relaxed);
  if (N == Opts.MaxProducers)
    return {};
  auto L = std::make_unique<ProducerLane>();
  L->Rings.reserve(Opts.Shards);
  L->Pending.resize(Opts.Shards);
  for (unsigned S = 0; S != Opts.Shards; ++S) {
    L->Rings.push_back(std::make_unique<SpscBatchRing>(Opts.QueueCapacity));
    L->Pending[S].Records.reserve(Opts.BatchSize);
  }
  Lanes[N] = std::move(L);
  // The release store publishes the fully built lane to the workers.
  LaneCount.store(N + 1, std::memory_order_release);
  return ProducerHandle(this, N);
}

bool MonitorFleet::laneFeed(unsigned LaneIdx, SessionId Session,
                            StreamId Input, Time Ts, Value V) {
  ProducerLane &L = *Lanes[LaneIdx];
  if (L.Closed)
    return false;
  unsigned S = shardOf(Session);
  EventBatch &P = L.Pending[S];
  P.Records.push_back({Session, Input, Ts, std::move(V)});
  if (P.Records.size() >= Opts.BatchSize)
    laneFlushShard(L, S);
  return true;
}

FeedStatus MonitorFleet::laneTryFeed(unsigned LaneIdx, SessionId Session,
                                     StreamId Input, Time Ts, Value V) {
  ProducerLane &L = *Lanes[LaneIdx];
  if (L.Closed)
    return FeedStatus::Closed;
  unsigned S = shardOf(Session);
  EventBatch &P = L.Pending[S];
  // Refuse before buffering: accepting the record would fill the batch
  // while the ring has no slot, and the resulting push would block.
  if (P.Records.size() + 1 >= Opts.BatchSize && !L.Rings[S]->canPush())
    return FeedStatus::WouldBlock;
  P.Records.push_back({Session, Input, Ts, std::move(V)});
  if (P.Records.size() >= Opts.BatchSize)
    laneFlushShard(L, S); // cannot block: canPush() held above
  return FeedStatus::Ok;
}

void MonitorFleet::laneFlushShard(ProducerLane &L, unsigned ShardIdx) {
  EventBatch &P = L.Pending[ShardIdx];
  if (P.Records.empty())
    return;
  P.Seq = NextBatchSeq.fetch_add(1, std::memory_order_relaxed);
  Workers[ShardIdx]->QueueDepth.fetch_add(
      static_cast<int64_t>(P.Records.size()), std::memory_order_relaxed);
  EventBatch B;
  B.Records.reserve(Opts.BatchSize);
  std::swap(B, P);
  L.Rings[ShardIdx]->push(std::move(B));
  bumpSignal(ShardIdx);
}

void MonitorFleet::laneFlush(unsigned LaneIdx) {
  ProducerLane &L = *Lanes[LaneIdx];
  if (L.Closed)
    return;
  for (unsigned S = 0; S != Workers.size(); ++S)
    laneFlushShard(L, S);
}

void MonitorFleet::laneClose(unsigned LaneIdx) {
  std::lock_guard<std::mutex> G(AdminMu);
  ProducerLane &L = *Lanes[LaneIdx];
  if (L.Closed)
    return;
  L.Closed = true;
  for (unsigned S = 0; S != Workers.size(); ++S) {
    laneFlushShard(L, S);
    EventBatch CloseB;
    CloseB.Close = true;
    CloseB.Seq = NextBatchSeq.fetch_add(1, std::memory_order_relaxed);
    L.Rings[S]->push(std::move(CloseB));
    bumpSignal(S);
  }
}

void MonitorFleet::joinAndCollect() {
  // Close any lanes whose handles are still open (contract: their
  // threads have quiesced by now).
  unsigned N = LaneCount.load(std::memory_order_acquire);
  for (unsigned L = 0; L != N; ++L)
    laneClose(L);
  for (unsigned S = 0; S != Workers.size(); ++S)
    bumpSignal(S); // covers the zero-producer case
  for (auto &W : Workers)
    W->Thread.join();
  Stats.Shards.clear();
  Stats.Producers = N;
  for (auto &W : Workers) {
    uint64_t HighWater = 0;
    uint64_t Stalls = 0;
    for (unsigned L = 0; L != N; ++L) {
      HighWater =
          std::max(HighWater, Lanes[L]->Rings[W->Index]->highWater());
      Stalls += Lanes[L]->Rings[W->Index]->stalls();
    }
    W->Stats.QueueHighWater = HighWater;
    W->Stats.BackpressureStalls = Stalls;
    Stats.Shards.push_back(W->Stats);
  }
}

void MonitorFleet::finish() {
  {
    std::lock_guard<std::mutex> G(AdminMu);
    if (Finished)
      return;
    Finished = true;
    Finishing.store(true, std::memory_order_release);
  }
  joinAndCollect();
}

std::vector<EngineLaneState> MonitorFleet::suspend(std::string *ErrorOut) {
  if (Mode == FleetMode::Native) {
    // Native lanes cannot be extracted (ShardEngine::supportsMigration
    // is false); run ordinary end-of-input semantics instead so the
    // fleet still terminates cleanly.
    if (ErrorOut)
      *ErrorOut = "cannot checkpoint a native-engine fleet: compiled "
                  "lanes are not migratable";
    finish();
    return {};
  }
  {
    std::lock_guard<std::mutex> G(AdminMu);
    if (Finished) {
      if (ErrorOut)
        *ErrorOut = "fleet already finished";
      return {};
    }
    Finished = true;
    Suspending.store(true, std::memory_order_release);
    Finishing.store(true, std::memory_order_release);
  }
  joinAndCollect();
  std::vector<EngineLaneState> All;
  for (auto &W : Workers) {
    for (EngineLaneState &L : W->Suspended)
      All.push_back(std::move(L));
    W->Suspended.clear();
  }
  std::sort(All.begin(), All.end(),
            [](const EngineLaneState &A, const EngineLaneState &B) {
              return A.Session < B.Session;
            });
  if (ErrorOut)
    ErrorOut->clear();
  return All;
}

bool MonitorFleet::restore(std::vector<EngineLaneState> LaneStates) {
  {
    std::lock_guard<std::mutex> G(AdminMu);
    if (Finished)
      return false;
  }
  if (Mode == FleetMode::Native)
    return false; // native engines cannot insert migrated lanes
  {
    std::set<SessionId> Seen;
    for (const EngineLaneState &L : LaneStates)
      if (!Seen.insert(L.Session).second)
        return false;
  }
  uint64_t Base = RestoresAdopted.load(std::memory_order_acquire);
  uint64_t Posted = LaneStates.size();
  for (EngineLaneState &L : LaneStates) {
    unsigned S = shardOf(L.Session);
    Shard &T = *Workers[S];
    auto Lane = std::make_unique<EngineLaneState>(std::move(L));
    {
      std::lock_guard<std::mutex> G(T.InboxMu);
      T.Inbox.push_back(
          {Lane->Session, EventBatch(), std::move(Lane), /*Restored=*/true});
    }
    bumpSignal(S);
  }
  // Wait until every worker adopted its lanes: records fed afterwards
  // can then never race a not-yet-inserted lane into a fresh one.
  uint64_t Cur = RestoresAdopted.load(std::memory_order_acquire);
  while (Cur < Base + Posted) {
    RestoresAdopted.wait(Cur, std::memory_order_acquire);
    Cur = RestoresAdopted.load(std::memory_order_acquire);
  }
  return true;
}

void MonitorFleet::finishFork(int Outcome) {
  ForkOutcome.store(Outcome, std::memory_order_release);
  ForkOutcome.notify_all();
}

bool MonitorFleet::forkSession(SessionId Src, SessionId Dst,
                               std::string *ErrorOut) {
  auto fail = [&](const char *Msg) {
    if (ErrorOut)
      *ErrorOut = Msg;
    return false;
  };
  if (Src == Dst)
    return fail("fork source and destination sessions must differ");
  if (Mode == FleetMode::Native)
    return fail("cannot fork sessions on a native-engine fleet: compiled "
                "lanes are not migratable");
  {
    std::lock_guard<std::mutex> G(AdminMu);
    if (Finished)
      return fail("fleet already finished");
  }
  std::lock_guard<std::mutex> G(ForkMu); // one fork in flight at a time
  // Quiesce ingest first. Producers are closed (control-op contract) but
  // their final batches may still sit in the rings, and the worker
  // drains its inbox *before* the rings — posting now would let the
  // fork request overtake the source session's own records. QueueDepth
  // counts ring + forwarded records from push to post-routing, so zero
  // everywhere means every record has reached its lane.
  for (auto &W : Workers)
    while (W->QueueDepth.load(std::memory_order_acquire) > 0)
      std::this_thread::yield();
  ForkOutcome.store(0, std::memory_order_release);
  unsigned S = shardOf(Src);
  Shard &T = *Workers[S];
  {
    std::lock_guard<std::mutex> IG(T.InboxMu);
    Shard::InboxMsg M;
    M.Session = Src;
    M.ForkReq = true;
    M.ForkDst = Dst;
    T.Inbox.push_back(std::move(M));
  }
  bumpSignal(S);
  int Out = ForkOutcome.load(std::memory_order_acquire);
  while (Out == 0) {
    ForkOutcome.wait(0, std::memory_order_acquire);
    Out = ForkOutcome.load(std::memory_order_acquire);
  }
  if (Out == 1) {
    if (ErrorOut)
      ErrorOut->clear();
    return true;
  }
  return fail(Out == -1 ? "fork source session is not live"
                        : "fork destination session is already live");
}

bool MonitorFleet::failed() const {
  return Stats.totalFailedSessions() != 0;
}

std::vector<SessionError> MonitorFleet::errors() const {
  assert(Finished && "errors() is valid after finish()");
  std::map<SessionId, std::string> Sorted;
  for (const auto &W : Workers)
    for (const auto &[Id, SS] : W->Sessions)
      if (SS.Failed)
        Sorted[Id] = SS.Error;
  std::vector<SessionError> Result;
  Result.reserve(Sorted.size());
  for (auto &[Id, Msg] : Sorted)
    Result.push_back({Id, std::move(Msg)});
  return Result;
}

std::vector<SessionOutputEvent> MonitorFleet::takeOutputs() {
  assert(Finished && "takeOutputs() is valid after finish()");
  // Sessions ascending; each session lives in exactly one shard's map
  // (its final owner after any migrations), so a merge over the shard
  // maps yields the global order. Within one session the monitor
  // emitted in (timestamp, stream definition order) already.
  std::map<SessionId, std::vector<OutputEvent> *> Merged;
  for (const auto &W : Workers)
    for (auto &[Id, SS] : W->Sessions)
      if (SS.Outputs)
        Merged[Id] = SS.Outputs.get();
  std::vector<SessionOutputEvent> Result;
  size_t Total = 0;
  for (auto &[Id, Outs] : Merged)
    Total += Outs->size();
  Result.reserve(Total);
  for (auto &[Id, Outs] : Merged) {
    for (OutputEvent &E : *Outs)
      Result.push_back({Id, std::move(E)});
    Outs->clear();
  }
  return Result;
}

uint64_t FleetStats::totalEvents() const {
  uint64_t N = 0;
  for (const ShardStats &S : Shards)
    N += S.EventsProcessed;
  return N;
}

uint64_t FleetStats::totalOutputs() const {
  uint64_t N = 0;
  for (const ShardStats &S : Shards)
    N += S.OutputsEmitted;
  return N;
}

uint64_t FleetStats::totalSessions() const {
  uint64_t N = 0;
  for (const ShardStats &S : Shards)
    N += S.Sessions;
  return N;
}

uint64_t FleetStats::totalFailedSessions() const {
  uint64_t N = 0;
  for (const ShardStats &S : Shards)
    N += S.FailedSessions;
  return N;
}

uint64_t FleetStats::totalSessionsStolen() const {
  uint64_t N = 0;
  for (const ShardStats &S : Shards)
    N += S.SessionsStolenIn;
  return N;
}

std::string ShardStats::str() const {
  // Stable key=value rendering: one format for `tessla-run --stats`,
  // FleetStats::str() and the service stats frame. Keys are append-only,
  // so the retired `sweeps=` key stays: no engine runs lockstep sweeps,
  // and it always reads 0.
  return formatString(
      "engine=%s sessions=%llu events=%llu batches=%llu "
      "queue-high-water=%llu outputs=%llu failed=%llu "
      "stolen-in=%llu stolen-out=%llu forwarded=%llu sweeps=0 "
      "backpressure-stalls=%llu forked-in=%llu agg-bytes=%llu "
      "agg-nodes-unique=%llu agg-nodes-shared=%llu",
      Engine.empty() ? "?" : Engine.c_str(),
      static_cast<unsigned long long>(Sessions),
      static_cast<unsigned long long>(EventsProcessed),
      static_cast<unsigned long long>(BatchesDrained),
      static_cast<unsigned long long>(QueueHighWater),
      static_cast<unsigned long long>(OutputsEmitted),
      static_cast<unsigned long long>(FailedSessions),
      static_cast<unsigned long long>(SessionsStolenIn),
      static_cast<unsigned long long>(SessionsStolenOut),
      static_cast<unsigned long long>(RecordsForwarded),
      static_cast<unsigned long long>(BackpressureStalls),
      static_cast<unsigned long long>(SessionsForkedIn),
      static_cast<unsigned long long>(AggregateBytes),
      static_cast<unsigned long long>(AggregateNodesUnique),
      static_cast<unsigned long long>(AggregateNodesShared));
}

std::string FleetStats::str() const {
  std::string Out = formatString(
      "fleet: %zu shard(s), %llu producer(s), %llu session(s), "
      "%llu event(s), %llu output(s), %llu stolen\n",
      Shards.size(), static_cast<unsigned long long>(Producers),
      static_cast<unsigned long long>(totalSessions()),
      static_cast<unsigned long long>(totalEvents()),
      static_cast<unsigned long long>(totalOutputs()),
      static_cast<unsigned long long>(totalSessionsStolen()));
  for (size_t I = 0; I != Shards.size(); ++I)
    Out += formatString("  shard %zu: %s\n", I, Shards[I].str().c_str());
  return Out;
}

} // namespace tessla
