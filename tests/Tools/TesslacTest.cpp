//===- tests/Tools/TesslacTest.cpp ------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// Drives the tesslac compiler binary end to end (report/flat/dot/plan/
/// cpp emission and trace execution).
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unistd.h>
#include <string>

namespace {

std::string tempPath(const std::string &Name) {
  // Pid-unique: ctest runs the test cases of this binary as separate
  // concurrent processes sharing one TempDir.
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + Name;
}

void writeFile(const std::string &Path, const std::string &Contents) {
  std::ofstream Out(Path);
  Out << Contents;
  ASSERT_TRUE(Out.good());
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// Runs tesslac with \p Args, captures stdout, returns (exit, output).
/// \p Err receives stderr when non-null.
std::pair<int, std::string> runTool(const std::string &Args,
                                    std::string *Err = nullptr) {
  std::string OutPath = tempPath("tesslac_out.txt");
  std::string ErrPath = tempPath("tesslac_err.txt");
  std::string Cmd = std::string(TESSLAC_PATH) + " " + Args + " > " +
                    OutPath + " 2> " + ErrPath;
  int Rc = std::system(Cmd.c_str());
  if (Err)
    *Err = slurp(ErrPath);
  return {Rc, slurp(OutPath)};
}

const char *SeenSetSource = R"(
in x: Int
def prev := last(merge(y, setEmpty()), x)
def seen := setContains(prev, x)
def y    := setToggle(prev, x)
out seen
)";

std::string specFile() {
  std::string Path = tempPath("seen.tessla");
  writeFile(Path, SeenSetSource);
  return Path;
}

} // namespace

TEST(TesslacTest, DefaultReportsMutability) {
  auto [Rc, Out] = runTool(specFile());
  EXPECT_EQ(Rc, 0);
  EXPECT_NE(Out.find("mutability analysis report"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("mutable"), std::string::npos);
}

TEST(TesslacTest, EmitFlat) {
  auto [Rc, Out] = runTool(specFile() + " --emit=flat");
  EXPECT_EQ(Rc, 0);
  EXPECT_NE(Out.find("prev = last("), std::string::npos) << Out;
}

TEST(TesslacTest, EmitDot) {
  auto [Rc, Out] = runTool(specFile() + " --emit=dot");
  EXPECT_EQ(Rc, 0);
  EXPECT_EQ(Out.substr(0, 7), "digraph");
}

TEST(TesslacTest, DumpAnalysisPrintsFactsAndMemorySummary) {
  auto [Rc, Out] = runTool(specFile() + " --dump-analysis");
  EXPECT_EQ(Rc, 0);
  EXPECT_NE(Out.find("analysis facts:"), std::string::npos) << Out;
  EXPECT_NE(Out.find("tick=var"), std::string::npos) << Out;
  EXPECT_NE(Out.find("clock="), std::string::npos) << Out;
  // The seen-set accumulator grows without bound; the dump names the
  // growth cycle.
  EXPECT_NE(Out.find("memory: unbounded growth at"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("cycle: "), std::string::npos) << Out;
}

TEST(TesslacTest, DumpAnalysisDotAnnotatesNodes) {
  auto [Rc, Out] = runTool(specFile() + " --dump-analysis=dot");
  EXPECT_EQ(Rc, 0);
  EXPECT_EQ(Out.substr(0, 16), "digraph analysis") << Out;
  EXPECT_NE(Out.find("tick=var"), std::string::npos) << Out;
  // Unbounded aggregates are drawn red-ish for at-a-glance triage.
  EXPECT_NE(Out.find("lightpink"), std::string::npos) << Out;
}

TEST(TesslacTest, DumpAnalysisReflectsOptimizationLevel) {
  // At -O1 the tautological filter folds away; the optimized program's
  // facts show the comparison stream gone (tick=never, no step) while
  // the baseline still carries it.
  std::string Path = tempPath("taut.tessla");
  writeFile(Path, "in x: Int\n"
                  "def keep := filter(x, x == x)\n"
                  "out keep\n");
  auto [Rc0, Out0] = runTool(Path + " --dump-analysis -O0");
  EXPECT_EQ(Rc0, 0);
  EXPECT_EQ(Out0.find("_t0: tick=never"), std::string::npos) << Out0;
  auto [Rc1, Out1] = runTool(Path + " --dump-analysis -O1");
  EXPECT_EQ(Rc1, 0);
  EXPECT_NE(Out1.find("_t0: tick=never"), std::string::npos) << Out1;
}

TEST(TesslacTest, EmitPlanShowsInPlace) {
  auto [Rc, Out] = runTool(specFile() + " --emit=plan");
  EXPECT_EQ(Rc, 0);
  EXPECT_NE(Out.find("[in-place]"), std::string::npos) << Out;
  auto [RcBase, OutBase] =
      runTool(specFile() + " --emit=plan --baseline");
  EXPECT_EQ(RcBase, 0);
  EXPECT_EQ(OutBase.find("[in-place]"), std::string::npos) << OutBase;
}

TEST(TesslacTest, EmitSourceRoundTrips) {
  auto [Rc, Out] = runTool(specFile() + " --emit=source");
  EXPECT_EQ(Rc, 0);
  // The emitted source is itself a valid spec: feed it back in.
  std::string Path = tempPath("roundtrip.tessla");
  writeFile(Path, Out);
  auto [Rc2, Out2] = runTool(Path + " --emit=source");
  EXPECT_EQ(Rc2, 0);
  EXPECT_EQ(Out, Out2);
}

TEST(TesslacTest, EmitStats) {
  auto [Rc, Out] = runTool(specFile() + " --emit=stats");
  EXPECT_EQ(Rc, 0);
  EXPECT_NE(Out.find("mutable streams:"), std::string::npos) << Out;
}

TEST(TesslacTest, EmitCppWithMain) {
  auto [Rc, Out] = runTool(specFile() + " --emit=cpp --main");
  EXPECT_EQ(Rc, 0);
  EXPECT_NE(Out.find("class GeneratedMonitor"), std::string::npos);
  EXPECT_NE(Out.find("int main()"), std::string::npos);
}

TEST(TesslacTest, RunTrace) {
  std::string TracePath = tempPath("seen_trace.txt");
  writeFile(TracePath, "1: x = 5\n2: x = 5\n3: x = 6\n");
  auto [Rc, Out] = runTool(specFile() + " --run " + TracePath);
  EXPECT_EQ(Rc, 0);
  EXPECT_EQ(Out, "1: seen = false\n2: seen = true\n3: seen = false\n");
  // Optimized and baseline agree.
  auto [RcB, OutB] =
      runTool(specFile() + " --baseline --run " + TracePath);
  EXPECT_EQ(RcB, 0);
  EXPECT_EQ(Out, OutB);
}

TEST(TesslacTest, FleetReplayMatchesSequentialPerSession) {
  std::string TracePath = tempPath("seen_trace_fleet.txt");
  writeFile(TracePath, "1: x = 5\n2: x = 5\n3: x = 6\n");
  auto [RcSeq, OutSeq] = runTool(specFile() + " --run " + TracePath);
  ASSERT_EQ(RcSeq, 0);
  // Every session replays the same trace; the merged output is the
  // per-session sequential trace with an "s<id>| " prefix, sessions in
  // ascending order — independent of the shard count.
  std::string Expected;
  for (int Session = 0; Session != 3; ++Session) {
    std::istringstream Lines(OutSeq);
    std::string Line;
    while (std::getline(Lines, Line))
      Expected += "s" + std::to_string(Session) + "| " + Line + "\n";
  }
  for (const char *Shards : {"1", "2", "4"}) {
    auto [Rc, Out] = runTool(specFile() + " --run " + TracePath +
                             " --fleet " + Shards + " --sessions 3");
    EXPECT_EQ(Rc, 0);
    EXPECT_EQ(Out, Expected) << "shards=" << Shards;
  }
}

TEST(TesslacTest, FleetEngineFlagsAreByteIdentical) {
  // --engine=interp (the default) must be accepted and produce
  // byte-identical replay output.
  std::string TracePath = tempPath("seen_trace_engine.txt");
  writeFile(TracePath, "1: x = 5\n2: x = 5\n3: x = 6\n4: x = 5\n");
  std::string Base =
      specFile() + " --run " + TracePath + " --fleet 2 --sessions 4";
  auto [RcDefault, OutDefault] = runTool(Base);
  ASSERT_EQ(RcDefault, 0);
  ASSERT_FALSE(OutDefault.empty()) << "vacuous comparison";
  auto [Rc, Out] = runTool(Base + " --engine=interp");
  EXPECT_EQ(Rc, 0);
  EXPECT_EQ(Out, OutDefault);
}

TEST(TesslacTest, OptimizedPlanShowsFusedSteps) {
  auto [Rc, Out] = runTool(specFile() + " --emit=plan -O1");
  EXPECT_EQ(Rc, 0);
  EXPECT_NE(Out.find("[fused]"), std::string::npos) << Out;
  // The orphaned last step is gone and the slot table is compacted.
  EXPECT_EQ(Out.find("prev = last("), std::string::npos) << Out;
  EXPECT_NE(Out.find("slots: value=6 last=1 delay=0"),
            std::string::npos)
      << Out;
}

TEST(TesslacTest, DumpPassesPrintsStatistics) {
  std::string Err;
  auto [Rc, Out] =
      runTool(specFile() + " --emit=plan -O1 --dump-passes", &Err);
  EXPECT_EQ(Rc, 0);
  EXPECT_NE(Err.find("constant-fold: steps 7 -> 7"), std::string::npos)
      << Err;
  EXPECT_NE(Err.find("step-fusion: steps 7 -> 7 (fused 2)"),
            std::string::npos)
      << Err;
  EXPECT_NE(Err.find("dead-step-elim: steps 7 -> 6 (eliminated 1)"),
            std::string::npos)
      << Err;
  EXPECT_NE(Err.find("total: steps 7 -> 6"), std::string::npos) << Err;
}

TEST(TesslacTest, OptimizedRunMatchesUnoptimized) {
  std::string TracePath = tempPath("seen_trace_opt.txt");
  writeFile(TracePath,
            "1: x = 5\n2: x = 5\n3: x = 6\n4: x = 5\n5: x = 6\n");
  auto [Rc0, Out0] = runTool(specFile() + " --run " + TracePath);
  auto [Rc1, Out1] = runTool(specFile() + " --run " + TracePath + " -O1");
  EXPECT_EQ(Rc0, 0);
  EXPECT_EQ(Rc1, 0);
  EXPECT_EQ(Out0, Out1);
  EXPECT_FALSE(Out0.empty());
}

TEST(TesslacTest, OptimizedCppEmission) {
  auto [Rc0, Out0] = runTool(specFile() + " --emit=cpp");
  auto [Rc1, Out1] = runTool(specFile() + " --emit=cpp -O1");
  EXPECT_EQ(Rc0, 0);
  EXPECT_EQ(Rc1, 0);
  // The fused program drops the last-step intermediate variable.
  EXPECT_NE(Out0.find("v_prev"), std::string::npos);
  EXPECT_EQ(Out1.find("v_prev"), std::string::npos) << Out1;
  EXPECT_NE(Out1.find("[fused]"), std::string::npos) << Out1;
}

TEST(TesslacTest, LintWarnsOnStderr) {
  std::string Path = tempPath("lint.tessla");
  writeFile(Path, "in x: Int\n"
                  "def unused := x + 1\n"
                  "out x\n");
  std::string Err;
  auto [Rc, Out] = runTool(Path + " --lint --emit=flat", &Err);
  EXPECT_EQ(Rc, 0) << "plain --lint must not change the exit code";
  EXPECT_NE(Err.find("warning 2:1: stream 'unused' is never read"),
            std::string::npos)
      << Err;
  EXPECT_NE(Err.find("[unused-stream]"), std::string::npos) << Err;
}

TEST(TesslacTest, WerrorFailsTheBuild) {
  std::string Path = tempPath("lint_werror.tessla");
  writeFile(Path, "in x: Int\n"
                  "def unused := x + 1\n"
                  "out x\n");
  std::string Err;
  auto [Rc, Out] = runTool(Path + " --werror --emit=flat", &Err);
  EXPECT_NE(Rc, 0);
  EXPECT_NE(Err.find("error 2:1: stream 'unused' is never read"),
            std::string::npos)
      << Err;
  // A clean spec passes --werror.
  std::string CleanErr;
  auto [RcClean, OutClean] =
      runTool(specFile() + " --werror --emit=flat", &CleanErr);
  EXPECT_EQ(RcClean, 0) << CleanErr;
  EXPECT_EQ(CleanErr, "");
}

TEST(TesslacTest, OutputFlagWritesFile) {
  // -o routes any emission to a file instead of stdout, byte-identical.
  std::string OutPath = tempPath("emit_o.plan");
  auto [RcStdout, OutStdout] = runTool(specFile() + " --emit=plan -O1");
  ASSERT_EQ(RcStdout, 0);
  auto [RcFile, OutFile] =
      runTool(specFile() + " --emit=plan -O1 -o " + OutPath);
  EXPECT_EQ(RcFile, 0);
  EXPECT_EQ(OutFile, "") << "-o must leave stdout empty";
  EXPECT_EQ(slurp(OutPath), OutStdout);
  // An unwritable destination is a clean error, not a crash.
  std::string Err;
  auto [RcBad, OutBad] = runTool(
      specFile() + " --emit=plan -o /definitely/not/a/dir/x.plan", &Err);
  EXPECT_NE(RcBad, 0);
  EXPECT_FALSE(Err.empty());
}

TEST(TesslacTest, EmitTpbWritesBundle) {
  std::string Bundle = tempPath("emit_tpb.tpb");
  auto [Rc, Out] =
      runTool(specFile() + " -O1 --emit=tpb -o " + Bundle);
  EXPECT_EQ(Rc, 0);
  std::string Bytes = slurp(Bundle);
  ASSERT_GT(Bytes.size(), 16u);
  EXPECT_EQ(Bytes.substr(0, 3), "TPB");
  EXPECT_EQ(Bytes[3], '\x1a');
  // Without -o the raw bundle goes to stdout.
  auto [RcStdout, OutStdout] = runTool(specFile() + " -O1 --emit=tpb");
  EXPECT_EQ(RcStdout, 0);
  EXPECT_EQ(OutStdout, Bytes);
}

TEST(TesslacTest, RunAliasesEmitRunWithTrace) {
  // --run <trace> is shorthand for --emit=run --trace <trace>.
  std::string TracePath = tempPath("alias_trace.txt");
  writeFile(TracePath, "1: x = 5\n2: x = 5\n3: x = 6\n");
  auto [RcShort, OutShort] = runTool(specFile() + " --run " + TracePath);
  auto [RcLong, OutLong] =
      runTool(specFile() + " --emit=run --trace " + TracePath);
  EXPECT_EQ(RcShort, 0);
  EXPECT_EQ(RcLong, 0);
  EXPECT_EQ(OutShort, OutLong);
  EXPECT_FALSE(OutShort.empty());
  // --emit=run without a trace is a usage error.
  std::string Err;
  auto [RcNoTrace, OutNoTrace] =
      runTool(specFile() + " --emit=run", &Err);
  EXPECT_NE(RcNoTrace, 0);
  EXPECT_NE(Err.find("--trace"), std::string::npos) << Err;
}

TEST(TesslacTest, ErrorsOnBadInput) {
  std::string BadPath = tempPath("bad.tessla");
  writeFile(BadPath, "def x := nope\nout x\n");
  auto [Rc, Out] = runTool(BadPath);
  EXPECT_NE(Rc, 0);
  auto [Rc2, Out2] = runTool("/definitely/not/here.tessla");
  EXPECT_NE(Rc2, 0);
  auto [Rc3, Out3] = runTool(specFile() + " --emit=nonsense");
  EXPECT_NE(Rc3, 0);
}

TEST(TesslacTest, EngineFlagUnifiesSelection) {
  // --engine= is the one engine option. Every selection replays
  // byte-identically, sequential and fleet.
  std::string TracePath = tempPath("seen_trace_engine_flag.txt");
  writeFile(TracePath, "1: x = 5\n2: x = 5\n3: x = 6\n4: x = 5\n");
  std::string Seq = specFile() + " --run " + TracePath;
  auto [RcSeq, OutSeq] = runTool(Seq);
  ASSERT_EQ(RcSeq, 0);
  ASSERT_FALSE(OutSeq.empty()) << "vacuous comparison";
  for (const char *Engine : {" --engine=interp", " --engine=native"}) {
    auto [Rc, Out] = runTool(Seq + Engine);
    EXPECT_EQ(Rc, 0) << Engine;
    EXPECT_EQ(Out, OutSeq) << Engine;
  }
  std::string Fleet = Seq + " --fleet 2 --sessions 3";
  auto [RcFleet, OutFleet] = runTool(Fleet);
  ASSERT_EQ(RcFleet, 0);
  for (const char *Engine : {" --engine=interp", " --engine=native"}) {
    auto [Rc, Out] = runTool(Fleet + Engine);
    EXPECT_EQ(Rc, 0) << Engine;
    EXPECT_EQ(Out, OutFleet) << Engine;
  }
}

TEST(TesslacTest, ConflictingEngineSelectionsRejected) {
  std::string TracePath = tempPath("seen_trace_engine_conflict.txt");
  writeFile(TracePath, "1: x = 5\n");
  std::string Err;
  auto [Rc, Out] = runTool(
      specFile() + " --run " + TracePath +
          " --engine=interp --engine=native",
      &Err);
  EXPECT_NE(Rc, 0);
  EXPECT_NE(Err.find("conflicting engine selections '--engine=interp' and "
                     "'--engine=native'"),
            std::string::npos)
      << Err;
  // Agreeing selections are not a conflict.
  auto [RcAgree, OutAgree] = runTool(
      specFile() + " --run " + TracePath +
      " --engine=interp --engine=interp");
  EXPECT_EQ(RcAgree, 0);
  // Unknown engines die with usage, not a silent default. The batched
  // lockstep engine is gone, so its old name is unknown too.
  for (const char *Name : {"warp", "batched"}) {
    Err.clear();
    auto [RcBad, OutBad] = runTool(specFile() + " --run " + TracePath +
                                       " --engine=" + Name,
                                   &Err);
    EXPECT_NE(RcBad, 0) << Name;
    EXPECT_NE(Err.find(std::string("unknown engine '") + Name + "'"),
              std::string::npos)
        << Err;
    EXPECT_NE(Err.find("--engine=interp|native"), std::string::npos) << Err;
  }
  // --engine= is the only spelling.
  Err.clear();
  auto [RcOld, OutOld] =
      runTool(specFile() + " --run " + TracePath + " --batched", &Err);
  EXPECT_NE(RcOld, 0);
  EXPECT_NE(Err.find("unknown argument '--batched'"), std::string::npos)
      << Err;
}

TEST(TesslacTest, NativeEngineFallsBackWithoutCompiler) {
  // With the native compiler pointed at a nonexistent binary, the run
  // must still succeed through the interpreter, with one diagnostic.
  std::string TracePath = tempPath("seen_trace_native_fb.txt");
  writeFile(TracePath, "1: x = 5\n2: x = 5\n");
  auto [RcRef, OutRef] = runTool(specFile() + " --run " + TracePath);
  ASSERT_EQ(RcRef, 0);
  // runTool() prepends the binary, so build this command by hand to put
  // the env override in front of it.
  std::string OutPath = tempPath("native_fb_out.txt");
  std::string ErrPath = tempPath("native_fb_err.txt");
  int Rc = std::system(("env TESSLA_NATIVE_CXX=/nonexistent-tessla-cxx " +
                        std::string(TESSLAC_PATH) + " " + specFile() +
                        " --run " + TracePath + " --engine=native > " +
                        OutPath + " 2> " + ErrPath)
                           .c_str());
  std::string Out = slurp(OutPath);
  std::string Err = slurp(ErrPath);
  EXPECT_EQ(Rc, 0);
  EXPECT_EQ(Out, OutRef);
  EXPECT_NE(Err.find("native engine unavailable"), std::string::npos)
      << Err;
  EXPECT_NE(Err.find("falling back to the interpreter"),
            std::string::npos)
      << Err;
}
