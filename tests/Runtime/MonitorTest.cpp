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

#include "tessla/Runtime/TraceIO.h"

#include "../TestSpecs.h"

#include <gtest/gtest.h>

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
