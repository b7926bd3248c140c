//===- tests/Opt/DifferentialOptTest.cpp ------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// The optimizer's correctness contract: every pass is clock-exact, so
/// the optimized program must produce byte-identical output traces to
/// the unoptimized one — on the paper's evaluation workloads and on a
/// corpus of randomly generated specifications (with and without delay
/// streams, under both aggregate representations).
///
//===----------------------------------------------------------------------===//

#include "tessla/Opt/PassManager.h"
#include "tessla/Runtime/TraceGen.h"

#include "../RandomSpecGen.h"
#include "../TestSpecs.h"

#include <gtest/gtest.h>

using namespace tessla;
using namespace tessla::testspecs;

namespace {

std::string runLevel(const Spec &S, const std::vector<TraceEvent> &Events,
                     unsigned Level, bool MutOptimize,
                     OptStatistics *Stats = nullptr) {
  MutabilityOptions MOpts;
  MOpts.Optimize = MutOptimize;
  AnalysisResult A = analyzeSpec(S, MOpts);
  Program P = Program::compile(A);
  if (Level >= 1) {
    opt::OptOptions OOpts;
    OOpts.Level = Level;
    DiagnosticEngine Diags;
    EXPECT_TRUE(opt::optimizeProgram(P, A, OOpts, Diags, Stats))
        << Diags.str();
  }
  std::string Error;
  auto Out = runMonitor(P, Events, std::nullopt, &Error);
  EXPECT_EQ(Error, "");
  return formatOutputs(P.spec(), Out);
}

void expectLevelsAgree(const Spec &S,
                       const std::vector<TraceEvent> &Events) {
  for (bool MutOptimize : {true, false}) {
    std::string Unopt = runLevel(S, Events, 0, MutOptimize);
    std::string Opt = runLevel(S, Events, 1, MutOptimize);
    EXPECT_EQ(Opt, Unopt) << "mutability optimize=" << MutOptimize;
    EXPECT_FALSE(Unopt.empty()) << "vacuous comparison";
  }
}

} // namespace

// --- Evaluation workloads (Fig. 9 / Fig. 10 / Table I) --------------------

TEST(DifferentialOptTest, Figure1) {
  Spec S = figure1();
  expectLevelsAgree(S, tracegen::randomInts(*S.lookup("i"), 2000, 40, 1));
}

TEST(DifferentialOptTest, SeenSet) {
  Spec S = seenSet();
  expectLevelsAgree(S,
                    tracegen::randomInts(*S.lookup("x"), 5000, 60, 2));
}

TEST(DifferentialOptTest, MapWindow) {
  Spec S = mapWindow(16);
  expectLevelsAgree(S,
                    tracegen::randomInts(*S.lookup("x"), 5000, 1000, 3));
}

TEST(DifferentialOptTest, QueueWindow) {
  Spec S = queueWindow(16);
  expectLevelsAgree(S,
                    tracegen::randomInts(*S.lookup("x"), 5000, 1000, 4));
}

TEST(DifferentialOptTest, DbAccessConstraint) {
  Spec S = dbAccessConstraint();
  tracegen::DbLogConfig Config;
  Config.Count = 5000;
  Config.Seed = 5;
  expectLevelsAgree(S, tracegen::dbLog(*S.lookup("ins"), *S.lookup("del"),
                                       *S.lookup("acc"), Config));
}

TEST(DifferentialOptTest, DbTimeConstraint) {
  Spec S = dbTimeConstraint();
  tracegen::DbPairConfig Config;
  Config.Count = 3000;
  Config.Seed = 6;
  expectLevelsAgree(
      S, tracegen::dbPairLog(*S.lookup("db2"), *S.lookup("db3"), Config));
}

TEST(DifferentialOptTest, PeakDetection) {
  Spec S = peakDetection(16);
  tracegen::PowerConfig Config;
  Config.Count = 4000;
  Config.PeakProb = 0.01;
  Config.Seed = 7;
  expectLevelsAgree(S, tracegen::powerSignal(*S.lookup("p"), Config));
}

TEST(DifferentialOptTest, SpectrumCalculation) {
  Spec S = spectrumCalculation();
  tracegen::PowerConfig Config;
  Config.Count = 4000;
  Config.Seed = 8;
  expectLevelsAgree(S, tracegen::powerSignal(*S.lookup("p"), Config));
}

TEST(DifferentialOptTest, TautologicalFilterPassThroughAgrees) {
  // The widening showcase (specs/filter_passthrough.tessla): the facts-
  // driven folder rewrites filter(x, x == x) to a pass-through merge —
  // byte-identity proves the rewrite clock- and value-exact, including
  // at timestamp 0.
  Spec S = parseOrDie(R"(
    in x: Int
    def keep := filter(x, x == x)
    def both := merge(keep, time(keep))
    out keep
    out both
  )");
  expectLevelsAgree(S,
                    tracegen::randomInts(*S.lookup("x"), 2000, 50, 11));
}

TEST(DifferentialOptTest, WholeAggregateOutputsAgree) {
  Spec S = parseOrDie(R"(
    in x: Int
    def prev := last(merge(y, setEmpty()), x)
    def y := setToggle(prev, x)
    def qprev := last(merge(q, queueEmpty()), x)
    def q := queueTrim(queueEnq(qprev, x), 5)
    def mprev := last(merge(m, mapEmpty()), x)
    def m := mapPut(mprev, x % 7, x)
    out y
    out q
    out m
  )");
  expectLevelsAgree(S,
                    tracegen::randomInts(*S.lookup("x"), 500, 25, 9));
}

// --- Randomized specifications --------------------------------------------

TEST(DifferentialOptTest, RandomSpecsAgree) {
  // 40 delay-free random specs; together with the delay batch below the
  // corpus is 55 specs strong.
  uint32_t TotalRewrites = 0;
  testrandom::RandomSpecOptions Opts;
  Opts.WithFilteredLoop = true;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    Spec S = testrandom::randomSpec(Seed, Opts);
    auto Events = testrandom::randomSpecTrace(S, 600, Seed * 977);
    bool MutOptimize = Seed % 2 == 0;
    OptStatistics Stats;
    std::string Unopt = runLevel(S, Events, 0, MutOptimize);
    std::string Opt = runLevel(S, Events, 1, MutOptimize, &Stats);
    EXPECT_EQ(Opt, Unopt) << "seed " << Seed << "\n" << S.str();
    EXPECT_FALSE(Unopt.empty()) << "vacuous comparison at seed " << Seed;
    TotalRewrites +=
        Stats.totalFolded() + Stats.totalFused() + Stats.totalEliminated();
  }
  // The corpus as a whole must exercise the passes, otherwise the
  // equality above proves nothing about them.
  EXPECT_GT(TotalRewrites, 0u) << "no pass ever rewrote anything";
}

TEST(DifferentialOptTest, RandomDelaySpecsAgree) {
  // Delay streams make the triggering section fire between input
  // timestamps; optimizations must not change the firing schedule.
  testrandom::RandomSpecOptions Opts;
  Opts.WithDelay = true;
  Opts.WithFilteredLoop = true;
  for (uint64_t Seed = 1; Seed <= 15; ++Seed) {
    Spec S = testrandom::randomSpec(Seed, Opts);
    auto Events = testrandom::randomSpecTrace(S, 400, Seed * 1313);
    bool MutOptimize = Seed % 2 == 1;
    std::string Unopt = runLevel(S, Events, 0, MutOptimize);
    std::string Opt = runLevel(S, Events, 1, MutOptimize);
    EXPECT_EQ(Opt, Unopt) << "seed " << Seed << "\n" << S.str();
    EXPECT_FALSE(Unopt.empty()) << "vacuous comparison at seed " << Seed;
  }
}
