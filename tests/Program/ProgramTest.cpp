//===- tests/Program/ProgramTest.cpp ----------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Golden tests pinning the lowered Program IR: str() is the single
// human-readable rendering of what both backends execute, so its exact
// shape — step lines with slot assignments and in-place markers, the
// last/delay slot tables, the output table — is locked here.
//
//===----------------------------------------------------------------------===//

#include "tessla/Program/Program.h"

#include "../TestSpecs.h"

#include <gtest/gtest.h>

using namespace tessla;
using namespace tessla::testspecs;

namespace {

Program compile(const Spec &S, bool Optimize) {
  return compileOrDie(S, Optimize);
}

// One spec exercising every slot table: an in-place aggregate family
// (last + setAdd), a scalar projection, and a delay.
const char *GoldenSource = R"(
in i: Int
in d: Int
def s := setAdd(last(s, i), i)
def sz := setSize(s)
def t := delay(d, i)
out sz
out t
)";

} // namespace

TEST(ProgramTest, GoldenOptimized) {
  Program P = compile(parseOrDie(GoldenSource), /*Optimize=*/true);
  EXPECT_EQ(P.str(),
            "0: i = input   @0\n"
            "1: d = input   @1\n"
            "2: t = delay(d, i)   @4 delay[0]\n"
            "3: _t0 = last(s, i)   @5 last[0]\n"
            "4: s = setAdd(_t0, i)   [in-place]   @2\n"
            "5: sz = setSize(s)   @3\n"
            "slots: value=6 last=1 delay=1\n"
            "last[0]: s @2\n"
            "delay[0]: t @4 delays=d@1 reset=i@0\n"
            "outputs: sz@3 t@4\n");
  EXPECT_EQ(P.inPlaceStepCount(), 1u);
}

TEST(ProgramTest, GoldenBaselineHasNoInPlaceMarkers) {
  Program P = compile(parseOrDie(GoldenSource), /*Optimize=*/false);
  EXPECT_EQ(P.str().find("[in-place]"), std::string::npos);
  EXPECT_EQ(P.inPlaceStepCount(), 0u);
}

TEST(ProgramTest, NilStreamsShareTheDeadSlot) {
  Program P = compile(parseOrDie(R"(
in i: Int
def n := nil
def m := merge(i, n)
out m
)"),
                      /*Optimize=*/true);
  EXPECT_EQ(P.str(),
            "0: i = input   @0\n"
            "1: n = nil\n"
            "2: m = merge(i, n)   @1\n"
            "slots: value=2 last=0 delay=0\n"
            "outputs: m@1\n");
  // The nil stream maps to the dead slot past the live range; engines
  // size their state numValueSlots() + 1 and the slot is never written.
  StreamId Nil = 0;
  for (StreamId Id = 0; Id != P.numStreams(); ++Id)
    if (P.spec().stream(Id).Kind == StreamKind::Nil)
      Nil = Id;
  EXPECT_EQ(P.valueSlot(Nil), P.numValueSlots());
  for (const ProgramStep &Step : P.steps())
    if (Step.Op != Opcode::Skip) {
      EXPECT_NE(Step.Dst, P.numValueSlots());
    }
}

TEST(ProgramTest, DispatchIsPreResolved) {
  Program P = compile(parseOrDie(GoldenSource), /*Optimize=*/true);
  for (const ProgramStep &Step : P.steps()) {
    switch (Step.Op) {
    case Opcode::LiftAll:
    case Opcode::LiftFirstRest:
      // The hot path calls through this pointer; it must match the
      // registry's resolution for the builtin.
      EXPECT_EQ(Step.Impl, builtinImpl(Step.Fn));
      break;
    default:
      EXPECT_EQ(Step.Impl, nullptr);
      break;
    }
  }
}
