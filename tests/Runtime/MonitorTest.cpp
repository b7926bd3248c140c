//===- tests/Runtime/MonitorTest.cpp ----------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// Operator and triggering-section semantics (§II, §III) through the
/// interpreter engine, in both optimized and baseline configurations.
///
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/Checkpoint.h"
#include "tessla/Runtime/TraceIO.h"

#include "../TestSpecs.h"

#include <gtest/gtest.h>

#include <random>

using namespace tessla;
using namespace tessla::testspecs;

namespace {

struct Runner {
  Spec S;
  Program Plan;

  Runner(Spec Spec_, bool Optimize = true)
      : S(std::move(Spec_)), Plan(compileOrDie(S, Optimize)) {}

  /// Runs events given as (name, ts, value) and renders the output trace.
  std::string run(
      const std::vector<std::tuple<std::string, Time, Value>> &Events,
      std::optional<Time> Horizon = std::nullopt) {
    std::vector<TraceEvent> Mapped;
    for (const auto &[Name, Ts, V] : Events)
      Mapped.emplace_back(*S.lookup(Name), Ts, V);
    std::string Error;
    auto Out = runMonitor(Plan, Mapped, Horizon, &Error);
    EXPECT_EQ(Error, "");
    return formatOutputs(Plan.spec(), Out);
  }
};

} // namespace

TEST(MonitorTest, UnitAndConstFireAtZero) {
  Runner R(parseOrDie(R"(
    in a: Int
    def u := unit
    def c := default(a, 41)
    out u
    out c
  )"));
  EXPECT_EQ(R.run({{"a", 5, Value::integer(7)}}),
            "0: u = ()\n0: c = 41\n5: c = 7\n");
}

TEST(MonitorTest, UnitFiresWithoutAnyInput) {
  Runner R(parseOrDie(R"(
    in a: Int
    def u := unit
    out u
  )"));
  EXPECT_EQ(R.run({}), "0: u = ()\n");
}

TEST(MonitorTest, TimeOperator) {
  Runner R(parseOrDie(R"(
    in a: Int
    def t := time(a)
    out t
  )"));
  EXPECT_EQ(R.run({{"a", 3, Value::integer(100)},
                   {"a", 8, Value::integer(200)}}),
            "3: t = 3\n8: t = 8\n");
}

TEST(MonitorTest, LiftAllNeedsAllArguments) {
  Runner R(parseOrDie(R"(
    in a: Int
    in b: Int
    def x := a + b
    out x
  )"));
  EXPECT_EQ(R.run({{"a", 1, Value::integer(10)},
                   {"b", 2, Value::integer(5)},
                   {"a", 3, Value::integer(1)},
                   {"b", 3, Value::integer(2)}}),
            "3: x = 3\n");
}

TEST(MonitorTest, MergePrioritizesFirstStream) {
  Runner R(parseOrDie(R"(
    in a: Int
    in b: Int
    def m := merge(a, b)
    out m
  )"));
  EXPECT_EQ(R.run({{"a", 1, Value::integer(1)},
                   {"b", 2, Value::integer(2)},
                   {"a", 3, Value::integer(3)},
                   {"b", 3, Value::integer(99)}}),
            "1: m = 1\n2: m = 2\n3: m = 3\n");
}

TEST(MonitorTest, LastIsStrict) {
  Runner R(parseOrDie(R"(
    in v: Int
    in t: Int
    def l := last(v, t)
    out l
  )"));
  // t at 1: v uninitialized -> no event. t at 4: last v value is 10 (the
  // value at 2, not the simultaneous one at 4).
  EXPECT_EQ(R.run({{"t", 1, Value::integer(0)},
                   {"v", 2, Value::integer(10)},
                   {"v", 4, Value::integer(20)},
                   {"t", 4, Value::integer(0)},
                   {"t", 5, Value::integer(0)}}),
            "4: l = 10\n5: l = 20\n");
}

TEST(MonitorTest, FilterPassesOnTrueOnly) {
  Runner R(parseOrDie(R"(
    in a: Int
    def f := filter(a, a % 2 == 0)
    out f
  )"));
  EXPECT_EQ(R.run({{"a", 1, Value::integer(3)},
                   {"a", 2, Value::integer(4)},
                   {"a", 3, Value::integer(5)}}),
            "2: f = 4\n");
}

TEST(MonitorTest, CounterRecursion) {
  // The standard TeSSLa counting idiom (recursion through last).
  Runner R(parseOrDie(R"(
    in x: Int
    def c := merge(last(c, x) + 1, 0)
    out c
  )"));
  EXPECT_EQ(R.run({{"x", 2, Value::integer(0)},
                   {"x", 5, Value::integer(0)},
                   {"x", 9, Value::integer(0)}}),
            "0: c = 0\n2: c = 1\n5: c = 2\n9: c = 3\n");
}

TEST(MonitorTest, HeldLiteralArithmetic) {
  Runner R(parseOrDie(R"(
    in a: Int
    def x := a * 2 + 1
    out x
  )"));
  EXPECT_EQ(R.run({{"a", 1, Value::integer(3)},
                   {"a", 7, Value::integer(10)}}),
            "1: x = 7\n7: x = 21\n");
}

TEST(MonitorTest, DelayFiresAfterReset) {
  Runner R(parseOrDie(R"(
    in r: Int
    def d := delay(r, r)
    out d
  )"));
  // r=5 at t=10 arms the timer for t=15; no reset in between.
  EXPECT_EQ(R.run({{"r", 10, Value::integer(5)},
                   {"r", 30, Value::integer(100)}},
                  /*Horizon=*/200),
            "15: d = ()\n130: d = ()\n");
}

TEST(MonitorTest, DelayCancelledByReset) {
  Runner R(parseOrDie(R"(
    in r: Int
    in c: Int
    def d := delay(r, merge(time(r), time(c)))
    out d
  )"));
  // Armed at 10 (+50 -> 60), but the reset at 20 carries no delay value:
  // cancelled. Re-armed at 40 (+5 -> fires at 45).
  EXPECT_EQ(R.run({{"r", 10, Value::integer(50)},
                   {"c", 20, Value::integer(0)},
                   {"r", 40, Value::integer(5)}},
                  /*Horizon=*/1000),
            "45: d = ()\n");
}

TEST(MonitorTest, DelayGeneratesBetweenInputs) {
  // The triggering section must run calculation steps at delay
  // timestamps that fall between input events (§III-B).
  Runner R(parseOrDie(R"(
    in r: Int
    def d := delay(r, r)
    def both := merge(time(d), time(r))
    out both
  )"));
  EXPECT_EQ(R.run({{"r", 10, Value::integer(3)},
                   {"r", 20, Value::integer(100)}},
                  /*Horizon=*/50),
            "10: both = 10\n13: both = 13\n20: both = 20\n");
}

TEST(MonitorTest, PeriodicDelayWithHorizon) {
  // Periodic clock: the delay stream itself is an implicit reset
  // (§III-B), so delay(10, unit) keeps firing every 10 units after the
  // unit kick-off, bounded by the finish horizon.
  Runner R(parseOrDie(R"(
    def tick := delay(10, unit)
    def t := time(tick)
    out t
  )"));
  EXPECT_EQ(R.run({}, /*Horizon=*/35), "10: t = 10\n20: t = 20\n30: t = 30\n");
}

TEST(MonitorTest, SeenSetBehavior) {
  Runner R(seenSet());
  EXPECT_EQ(R.run({{"x", 1, Value::integer(7)},
                   {"x", 2, Value::integer(7)},
                   {"x", 3, Value::integer(7)},
                   {"x", 4, Value::integer(9)}}),
            "1: seen = false\n2: seen = true\n3: seen = false\n"
            "4: seen = false\n");
}

TEST(MonitorTest, Figure1SetAccumulation) {
  Runner R(figure1());
  EXPECT_EQ(R.run({{"i", 1, Value::integer(1)},
                   {"i", 2, Value::integer(2)},
                   {"i", 3, Value::integer(1)}}),
            "1: s = false\n2: s = false\n3: s = true\n");
}

TEST(MonitorTest, BaselineProducesSameOutputs) {
  Runner Opt(figure1(), /*Optimize=*/true);
  Runner Base(figure1(), /*Optimize=*/false);
  std::vector<std::tuple<std::string, Time, Value>> Events;
  for (int I = 0; I != 50; ++I)
    Events.push_back({"i", I + 1, Value::integer(I % 7)});
  std::string Optimized = Opt.run(Events);
  std::string Baseline = Base.run(Events);
  EXPECT_EQ(Optimized, Baseline);
  EXPECT_FALSE(Optimized.empty()) << "vacuous comparison";
  EXPECT_GT(Opt.Plan.inPlaceStepCount(), 0u);
  EXPECT_EQ(Base.Plan.inPlaceStepCount(), 0u);
}

// Pins the output-handler contract documented in Monitor.h: storing the
// Value is safe. A handler-held copy shares the root, so a later
// in-place-verdict update sees the share and path-copies instead of
// mutating through it — the stored value never changes, in either
// regime.
TEST(MonitorTest, OutputHandlerValuesAreStableSnapshots) {
  Spec S = parseOrDie(R"(
    in x: Int
    def prev := last(merge(y, setEmpty()), x)
    def y := setAdd(prev, x)
    out y
  )");
  auto RunAndSnapshot = [&](bool Optimize, Value &Stored) {
    Program Plan = compileOrDie(S, Optimize);
    EXPECT_EQ(Plan.inPlaceStepCount() > 0, Optimize)
        << "mutability premise broken; test is vacuous";
    Monitor M(Plan);
    bool First = true;
    M.setOutputHandler([&](Time, StreamId, const Value &V) {
      if (!First)
        return;
      First = false;
      Stored = V; // shares the root
    });
    for (int I = 0; I != 5; ++I)
      M.feed(*S.lookup("x"), I + 1, Value::integer(I));
    M.finish();
    EXPECT_FALSE(M.failed()) << M.errorMessage();
  };

  Value Stored;
  RunAndSnapshot(/*Optimize=*/true, Stored);
  // The first emission was {0}; the four later adds path-copied because
  // the handler's copy kept the old version alive.
  EXPECT_EQ(Stored.str(), "{0}");

  // Baseline: every update path-copies anyway.
  RunAndSnapshot(/*Optimize=*/false, Stored);
  EXPECT_EQ(Stored.str(), "{0}");
}

TEST(MonitorTest, OutOfOrderInputRejected) {
  Spec S = parseOrDie("in a: Int\ndef t := time(a)\nout t");
  Program Plan = compileOrDie(S);
  Monitor M(Plan);
  EXPECT_TRUE(M.feed(*S.lookup("a"), 10, Value::integer(1)));
  EXPECT_FALSE(M.feed(*S.lookup("a"), 5, Value::integer(2)));
  EXPECT_TRUE(M.failed());
  EXPECT_NE(M.errorMessage().find("order"), std::string::npos);
}

TEST(MonitorTest, DuplicateEventSameTimestampRejected) {
  Spec S = parseOrDie("in a: Int\ndef t := time(a)\nout t");
  Program Plan = compileOrDie(S);
  Monitor M(Plan);
  EXPECT_TRUE(M.feed(*S.lookup("a"), 10, Value::integer(1)));
  EXPECT_FALSE(M.feed(*S.lookup("a"), 10, Value::integer(2)));
  EXPECT_TRUE(M.failed());
}

TEST(MonitorTest, RuntimeErrorsSurface) {
  Spec S = parseOrDie(R"(
    in a: Int
    def x := 10 / a
    out x
  )");
  Program Plan = compileOrDie(S);
  Monitor M(Plan);
  M.feed(*S.lookup("a"), 1, Value::integer(0));
  M.finish();
  EXPECT_TRUE(M.failed());
  EXPECT_NE(M.errorMessage().find("division by zero"), std::string::npos)
      << M.errorMessage();
}

TEST(MonitorTest, FeedAfterFinishRejected) {
  Spec S = parseOrDie("in a: Int\ndef t := time(a)\nout t");
  Program Plan = compileOrDie(S);
  Monitor M(Plan);
  M.finish();
  EXPECT_FALSE(M.feed(*S.lookup("a"), 1, Value::integer(1)));
}

TEST(MonitorTest, PlanPrintingShowsOrderAndInPlaceMarkers) {
  Runner R(figure1());
  std::string Text = R.Plan.str();
  // Steps in translation order: the read (s) precedes the write (y).
  size_t ReadPos = Text.find("s = setContains");
  size_t WritePos = Text.find("y = setAdd");
  ASSERT_NE(ReadPos, std::string::npos) << Text;
  ASSERT_NE(WritePos, std::string::npos);
  EXPECT_LT(ReadPos, WritePos);
  EXPECT_NE(Text.find("[in-place]"), std::string::npos);
  // Baseline plan has no in-place markers.
  Runner Base(figure1(), /*Optimize=*/false);
  EXPECT_EQ(Base.Plan.str().find("[in-place]"), std::string::npos);
}

TEST(MonitorTest, StatsCounters) {
  Runner R(figure1());
  Monitor M(R.Plan);
  M.feed(*R.S.lookup("i"), 1, Value::integer(1));
  M.feed(*R.S.lookup("i"), 2, Value::integer(2));
  M.finish();
  EXPECT_FALSE(M.failed());
  EXPECT_GE(M.calcRuns(), 3u); // t=0 implicit + two input timestamps
  EXPECT_EQ(M.outputEvents(), 2u);
}

// --- The in-place regime (DESIGN.md §COW, slot liveness) -----------------

namespace {

/// Aggregate identities the monitor holds, in visitValues() order.
std::vector<const void *> identities(const Monitor &M) {
  std::vector<const void *> Ids;
  M.visitValues(
      [&Ids](const Value &V) { Ids.push_back(V.aggregateIdentity()); });
  return Ids;
}

/// Feeds \p Events and returns the share of feeds across which every
/// aggregate the monitor held before the feed keeps its identity. No
/// handle is retained between feeds, so the monitor is the only owner.
double identityKeptShare(const Program &P,
                         const std::vector<TraceEvent> &Events) {
  Monitor M(P);
  M.setOutputHandler([](Time, StreamId, const Value &) {});
  size_t Compared = 0, Kept = 0;
  std::vector<const void *> Before = identities(M);
  for (const auto &[Id, Ts, V] : Events) {
    EXPECT_TRUE(M.feed(Id, Ts, V)) << M.errorMessage();
    std::vector<const void *> After = identities(M);
    bool Any = false, Same = true;
    for (size_t I = 0; I != Before.size(); ++I)
      if (Before[I] && After[I]) {
        Any = true;
        Same = Same && Before[I] == After[I];
      }
    if (Any) {
      ++Compared;
      Kept += Same;
    }
    Before = std::move(After);
  }
  M.finish();
  EXPECT_FALSE(M.failed()) << M.errorMessage();
  EXPECT_GT(Compared, Events.size() / 2) << "vacuous: no aggregate state";
  return Compared ? static_cast<double>(Kept) / Compared : 0;
}

std::vector<TraceEvent> randomTrace(const Spec &S,
                                    const std::vector<std::string> &Inputs,
                                    size_t Count, int64_t Range,
                                    uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::vector<TraceEvent> Events;
  for (size_t I = 0; I != Count; ++I) {
    const std::string &In = Inputs[Rng() % Inputs.size()];
    Value V = S.stream(*S.lookup(In)).Ty.kind() == TypeKind::Float
                  ? Value::floating(static_cast<double>(Rng() % Range))
                  : Value::integer(static_cast<int64_t>(Rng() % Range));
    Events.emplace_back(*S.lookup(In), static_cast<Time>(I + 1), V);
  }
  return Events;
}

} // namespace

// Every update of the paper's Fig. 9 and Table I programs runs on the
// only handle to its aggregate, so the version in the last slot keeps
// its root node across feeds; the baseline path-copies every update.
TEST(MonitorTest, InPlaceRegimeKeepsLastSlotIdentity) {
  struct Case {
    std::string Name;
    Spec S;
    std::vector<std::string> Inputs;
    int64_t Range;
  };
  std::vector<Case> Cases;
  for (int64_t Size : {10, 200, 10000}) {
    std::string N = std::to_string(Size);
    Cases.push_back({"seen-set/" + N, seenSet(), {"x"}, 2 * Size});
    Cases.push_back({"map-window/" + N, mapWindow(Size), {"x"}, 1 << 20});
    Cases.push_back(
        {"queue-window/" + N, queueWindow(Size), {"x"}, 1 << 20});
  }
  // Inputs whose every event updates the aggregate (the put-back of
  // non-updating timestamps has its own test).
  Cases.push_back({"db-access", dbAccessConstraint(), {"ins", "del"}, 50});
  Cases.push_back({"db-time", dbTimeConstraint(), {"db2"}, 50});
  Cases.push_back({"peak", peakDetection(8), {"p"}, 200});
  Cases.push_back({"spectrum", spectrumCalculation(), {"p"}, 200});

  uint64_t Seed = 1;
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    std::vector<TraceEvent> Events =
        randomTrace(C.S, C.Inputs, 2000, C.Range, Seed++);
    EXPECT_GE(identityKeptShare(compileOrDie(C.S, true), Events), 0.99);
    EXPECT_EQ(identityKeptShare(compileOrDie(C.S, false), Events), 0.0);
  }
}

// A Last step fires but its source does not (db-log access-only
// timestamps): the value it moved out of the last slot goes back, so the
// set keeps both its contents and its identity.
TEST(MonitorTest, MovedLastValueGoesBackWhenTheSourceDoesNotFire) {
  Spec S = dbAccessConstraint();
  Program Opt = compileOrDie(S, true);
  Program Base = compileOrDie(S, false);
  const SlotPlan &Plan = Opt.slotPlan();
  ASSERT_NE(Plan.MovedTo[0], SlotPlan::NoSlot) << "premise: a moved last";

  std::vector<TraceEvent> Events;
  StreamId Ins = *S.lookup("ins"), Acc = *S.lookup("acc");
  Time Ts = 0;
  for (int I = 0; I != 10; ++I)
    Events.emplace_back(Ins, ++Ts, Value::integer(I));
  for (int I = 0; I != 20; ++I)
    Events.emplace_back(Acc, ++Ts, Value::integer(I));

  Monitor M(Opt);
  M.feed(Ins, 1, Value::integer(0));
  M.feed(Ins, 2, Value::integer(1)); // the set now exists
  std::vector<const void *> Held = identities(M);
  for (size_t I = 2; I != Events.size(); ++I)
    ASSERT_TRUE(M.feed(std::get<0>(Events[I]), std::get<1>(Events[I]),
                       std::get<2>(Events[I])));
  // After the last access timestamp's calculation, still the same root.
  M.finish();
  EXPECT_FALSE(M.failed()) << M.errorMessage();
  std::vector<const void *> Now = identities(M);
  ASSERT_EQ(Now.size(), Held.size());
  EXPECT_EQ(Now.back(), Held.back());
  EXPECT_NE(Now.back(), nullptr);

  std::string Err;
  EXPECT_EQ(formatOutputs(S, runMonitor(Opt, Events, std::nullopt, &Err)),
            formatOutputs(S, runMonitor(Base, Events)));
  EXPECT_EQ(Err, "");
  // Accesses 10..19 are violations, 0..9 are not.
  EXPECT_EQ(runMonitor(Opt, Events).size(), 10u);
}

// A calculation failing after a Last step moved the last value (here
// mapGet of a missing key, which reads before the update) leaves the
// last slot as it was, and a checkpoint of the failed lane restores the
// same failure.
TEST(MonitorTest, FailedCalculationLeavesMovedLastSlotAsItWas) {
  Spec S = parseOrDie(R"(
    in put: Int
    in get: Int
    def anyOp := merge(put, get)
    def prev  := last(merge(m, mapEmpty()), anyOp)
    def got   := mapGet(prev, get)
    def m     := mapPut(prev, put, put * 10)
    out got
  )");
  Program P = compileOrDie(S, true);
  ASSERT_NE(P.slotPlan().MovedTo[0], SlotPlan::NoSlot)
      << "premise: the last slot is moved";
  StreamId Put = *S.lookup("put"), Get = *S.lookup("get");

  Monitor M(P);
  std::vector<std::string> Outs;
  M.setOutputHandler([&](Time Ts, StreamId, const Value &V) {
    Outs.push_back(std::to_string(Ts) + ":" + V.str());
  });
  ASSERT_TRUE(M.feed(Put, 1, Value::integer(1)));
  ASSERT_TRUE(M.feed(Put, 2, Value::integer(2)));
  ASSERT_TRUE(M.feed(Get, 3, Value::integer(1)));
  ASSERT_TRUE(M.feed(Get, 4, Value::integer(5))); // missing key
  EngineLaneState Before;
  M.snapshotState(Before);
  std::vector<const void *> Held = identities(M);

  EXPECT_FALSE(M.feed(Put, 5, Value::integer(3))); // runs t=4: fails
  ASSERT_TRUE(M.failed());
  EXPECT_NE(M.errorMessage().find("not present"), std::string::npos)
      << M.errorMessage();
  EXPECT_EQ(Outs, std::vector<std::string>{"3:10"});

  EngineLaneState After;
  M.snapshotState(After);
  const size_t Last = After.NumValueSlots; // the one last slot
  EXPECT_EQ(After.Slots[Last].str(), "{1 -> 10, 2 -> 20}");
  EXPECT_EQ(After.Slots[Last], Before.Slots[Last]);
  EXPECT_EQ(After.Flags[Last], 1);
  EXPECT_EQ(identities(M).back(), Held.back());

  FleetCheckpoint C;
  C.ProgramChecksum = programChecksum(P);
  C.SourceShards = 1;
  C.Lanes.push_back(std::move(After));
  std::vector<uint8_t> Bytes = serializeCheckpoint(C);
  DiagnosticEngine Diags;
  std::optional<FleetCheckpoint> Loaded = loadCheckpoint(Bytes, P, Diags);
  ASSERT_TRUE(Loaded) << Diags.str();
  ASSERT_EQ(Loaded->Lanes.size(), 1u);
  Monitor R(P);
  R.restoreState(Loaded->Lanes.front());
  EXPECT_TRUE(R.failed());
  EXPECT_EQ(R.errorMessage(), M.errorMessage());
  EXPECT_FALSE(R.feed(Get, 6, Value::integer(1)));
  EngineLaneState Again;
  R.snapshotState(Again);
  FleetCheckpoint C2 = C;
  C2.Lanes.front() = std::move(Again);
  EXPECT_EQ(serializeCheckpoint(C2), Bytes);
}

// The update itself fails after consuming the moved last value (dequeue
// of an empty queue): evaluators fail before they update, so the value
// goes back into the last slot unchanged.
TEST(MonitorTest, FailedConsumerPutsTheMovedLastValueBack) {
  Spec S = parseOrDie(R"(
    in x: Int
    def prev := last(merge(q, queueEmpty()), x)
    def q    := queueDeq(prev)
    def f    := queueFront(filter(q, queueSize(q) > 0)) + x
    out f
  )");
  Program P = compileOrDie(S, true);
  ASSERT_NE(P.slotPlan().MovedTo[0], SlotPlan::NoSlot)
      << "premise: the last slot is moved";
  Monitor M(P);
  ASSERT_TRUE(M.feed(*S.lookup("x"), 1, Value::integer(1))); // runs t=0
  EngineLaneState Before;
  M.snapshotState(Before);
  const Value &Queue = Before.Slots[Before.NumValueSlots]; // last slot 0
  ASSERT_EQ(Queue.str(), "<>");
  const void *Held = Queue.aggregateIdentity();
  Before = EngineLaneState(); // drop the snapshot's handles
  M.finish(); // runs t=1: queueDeq of the empty queue fails
  ASSERT_TRUE(M.failed());
  EXPECT_NE(M.errorMessage().find("empty queue"), std::string::npos)
      << M.errorMessage();
  EngineLaneState After;
  M.snapshotState(After);
  EXPECT_EQ(After.Slots[After.NumValueSlots].str(), "<>");
  EXPECT_EQ(After.Slots[After.NumValueSlots].aggregateIdentity(), Held);
}

// The table behind the regime: the Fig. 9 loop moves its last slot into
// the update; an update that reaches its last slot only through a filter
// borrows instead (the update firing does not imply the source fires).
TEST(MonitorTest, SlotPlanMovesOnlyProvenLastSlots) {
  auto PlanOf = [](const Program &P, const char *Name) {
    StreamId Id = *P.spec().lookup(Name);
    for (size_t I = 0; I != P.steps().size(); ++I)
      if (P.steps()[I].Id == Id)
        return P.slotPlan().Steps[I];
    ADD_FAILURE() << Name << " has no step";
    return SlotPlan::StepFacts();
  };
  Program Seen = compileOrDie(seenSet(), true);
  EXPECT_TRUE(PlanOf(Seen, "prev").MoveLast);
  EXPECT_TRUE(PlanOf(Seen, "y").Consume);
  EXPECT_FALSE(PlanOf(Seen, "seen").Consume);

  Program Filtered = compileOrDie(parseOrDie(R"(
    in x: Int
    def prev := last(merge(filter(y, x < 10), setEmpty()), x)
    def y    := setAdd(prev, x)
    out y
  )"), true);
  EXPECT_FALSE(PlanOf(Filtered, "prev").MoveLast);
  EXPECT_FALSE(PlanOf(Filtered, "y").Consume);
  EXPECT_EQ(Filtered.slotPlan().MovedTo[0], SlotPlan::NoSlot);

  Program Base = compileOrDie(seenSet(), false);
  EXPECT_FALSE(PlanOf(Base, "prev").MoveLast) << "no InPlace update";
}

// Dynamic uniqueness alone is unsound: s1 is uniquely owned when the
// first of s2/s3 runs, yet the second still reads it. Forcing the InPlace
// verdict onto both updates cannot change the outputs, because the engine
// offers the destructive tier only to a consumed argument — one read for
// the last time in the calculation.
TEST(MonitorTest, WrongInPlaceVerdictCannotChangeValues) {
  Spec S = parseOrDie(R"(
    in x: Int
    def e  := setEmpty()
    def s1 := setAdd(last(e, x), x)
    def s2 := setAdd(s1, x + 1)
    def s3 := setAdd(s1, x + 2)
    out s2
    out s3
  )");
  Program Forced = compileOrDie(S, true);
  unsigned Flipped = 0;
  {
    Program::OptView View = Forced.optView();
    for (ProgramStep &Step : View.Steps)
      if (Step.Id == *S.lookup("s2") || Step.Id == *S.lookup("s3")) {
        Flipped += !Step.InPlace;
        Step.InPlace = true;
      }
  }
  EXPECT_GT(Flipped, 0u) << "premise: the analysis refused InPlace";
  std::vector<TraceEvent> Events;
  for (int I = 0; I != 6; ++I)
    Events.emplace_back(*S.lookup("x"), I + 1, Value::integer(I * 10));
  std::string Err;
  std::string Out =
      formatOutputs(S, runMonitor(Forced, Events, std::nullopt, &Err));
  EXPECT_EQ(Err, "");
  EXPECT_EQ(Out, formatOutputs(S, runMonitor(compileOrDie(S, false), Events)));
  EXPECT_NE(Out.find("1: s2 = {0, 1}\n1: s3 = {0, 2}\n"), std::string::npos)
      << Out;
}
