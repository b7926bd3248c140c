//===- tests/Runtime/MonitorEdgeCasesTest.cpp --------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// Corner cases of the triggering section and value lifetime rules that
/// the main monitor tests don't cover: horizons, zero-timestamp traffic,
/// deep recursion through last, and copy isolation.
///
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/TraceIO.h"

#include "../TestSpecs.h"

#include <gtest/gtest.h>

using namespace tessla;
using namespace tessla::testspecs;

namespace {

std::string run(const Spec &S, const std::vector<TraceEvent> &Events,
                std::optional<Time> Horizon = std::nullopt) {
  Program Plan = compileOrDie(S);
  std::string Error;
  auto Out = runMonitor(Plan, Events, Horizon, &Error);
  EXPECT_EQ(Error, "");
  return formatOutputs(Plan.spec(), Out);
}

} // namespace

TEST(MonitorEdgeCasesTest, EventsAtTimestampZero) {
  Spec S = parseOrDie(R"(
    in a: Int
    def withDefault := merge(a, -1)
    def t := time(a)
    out withDefault
    out t
  )");
  // An input exactly at 0 merges with the constant's timestamp-0 event;
  // merge prioritizes the input.
  EXPECT_EQ(run(S, {{*S.lookup("a"), 0, Value::integer(7)}}),
            "0: withDefault = 7\n0: t = 0\n");
  // Without an input at 0 the default wins.
  EXPECT_EQ(run(S, {{*S.lookup("a"), 5, Value::integer(7)}}),
            "0: withDefault = -1\n5: withDefault = 7\n5: t = 5\n");
}

TEST(MonitorEdgeCasesTest, HorizonCutsPendingDelays) {
  Spec S = parseOrDie(R"(
    in r: Int
    def d := delay(r, r)
    def t := time(d)
    out t
  )");
  // Armed for t=110; horizon 50 drops it, horizon 110 includes it.
  EXPECT_EQ(run(S, {{*S.lookup("r"), 10, Value::integer(100)}}, 50), "");
  EXPECT_EQ(run(S, {{*S.lookup("r"), 10, Value::integer(100)}}, 110),
            "110: t = 110\n");
}

TEST(MonitorEdgeCasesTest, FinishWithoutHorizonDrainsFiniteDelays) {
  Spec S = parseOrDie(R"(
    in r: Int
    def d := delay(r, r)
    def t := time(d)
    out t
  )");
  // Non-periodic delay chain terminates by itself.
  EXPECT_EQ(run(S, {{*S.lookup("r"), 1, Value::integer(5)}}),
            "6: t = 6\n");
}

TEST(MonitorEdgeCasesTest, DeepLastRecursionLongTrace) {
  // Counting through 100k events exercises the last-slot update path and
  // the touched-slot reset without quadratic behavior.
  Spec S = parseOrDie(R"(
    in x: Int
    def c := merge(last(c, x) + 1, 0)
    def final := filter(c, c == 100000)
    out final
  )");
  std::vector<TraceEvent> Events;
  for (int I = 0; I != 100000; ++I)
    Events.emplace_back(*S.lookup("x"), I + 1, Value::integer(0));
  EXPECT_EQ(run(S, Events), "100000: final = 100000\n");
}

TEST(MonitorEdgeCasesTest, CopySharesYetUpdatesStayIsolated) {
  // A copy shares the persistent structure; isolation comes from COW —
  // an in-place-verdict update sees the shared root and path-copies
  // instead of mutating through the copy.
  Value Original = Value::emptySet();
  SetCow Init = Original.setCow(true);
  Init.add(Value::integer(1));
  Original = std::move(Init).finish();
  Value Copy = Original;
  EXPECT_EQ(Copy.aggregateIdentity(), Original.aggregateIdentity())
      << "a copy shares the root in O(1)";

  SetCow C = Original.setCow(true);
  C.add(Value::integer(2));
  Original = std::move(C).finish();
  EXPECT_EQ(Original.asSet().size(), 2u);
  EXPECT_EQ(Copy.asSet().size(), 1u) << "copy unaffected by the update";
  EXPECT_NE(Copy.aggregateIdentity(), Original.aggregateIdentity());
}

TEST(MonitorEdgeCasesTest, MultipleOutputsShareTimestampInDefOrder) {
  Spec S = parseOrDie(R"(
    in a: Int
    def x := a + 1
    def y := a * 2
    out y
    out x
  )");
  // Emission follows stream *definition* order (x defined before y),
  // independent of the order of the `out` marks.
  EXPECT_EQ(run(S, {{*S.lookup("a"), 3, Value::integer(10)}}),
            "3: x = 11\n3: y = 20\n");
}

TEST(MonitorEdgeCasesTest, NoInputsNoOutputsIsFine) {
  Spec S = parseOrDie(R"(
    in a: Int
    def t := time(a)
    out t
  )");
  EXPECT_EQ(run(S, {}), "");
}

TEST(MonitorEdgeCasesTest, LargeTimestampGaps) {
  Spec S = parseOrDie(R"(
    in a: Int
    def t := time(a)
    out t
  )");
  std::vector<TraceEvent> Events{
      {*S.lookup("a"), 1, Value::integer(0)},
      {*S.lookup("a"), 4000000000000000000LL, Value::integer(0)}};
  EXPECT_EQ(run(S, Events),
            "1: t = 1\n4000000000000000000: t = 4000000000000000000\n");
}
