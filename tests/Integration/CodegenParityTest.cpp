//===- tests/Integration/CodegenParityTest.cpp ------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// Differential parity between the two execution backends: both consume
/// the same lowered Program, so for any specification the generated C++
/// monitor must produce event-for-event identical output to the
/// interpreter. Exercised over a corpus of random specifications
/// (tests/RandomSpecGen.h), including delay specs, each compiled with the
/// system compiler and run on a random trace.
///
//===----------------------------------------------------------------------===//

#include "tessla/CodeGen/CppEmitter.h"
#include "tessla/CodeGen/NativeCompile.h"
#include "tessla/Opt/PassManager.h"
#include "tessla/Runtime/ExecutionEngine.h"
#include "tessla/Runtime/TraceGen.h"
#include "tessla/Runtime/TraceIO.h"

#include "../RandomSpecGen.h"
#include "../TestSpecs.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace tessla;
using namespace tessla::testrandom;
using namespace tessla::testspecs;

namespace {

std::string tempDir() {
  std::string Dir = ::testing::TempDir() + "tessla_parity_XXXXXX";
  std::vector<char> Buf(Dir.begin(), Dir.end());
  Buf.push_back('\0');
  const char *Result = mkdtemp(Buf.data());
  EXPECT_NE(Result, nullptr);
  return Result ? Result : std::string();
}

void writeFile(const std::string &Path, const std::string &Contents) {
  std::ofstream Out(Path);
  Out << Contents;
  ASSERT_TRUE(Out.good());
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

// The native tier loads uninstrumented code; keep it off the TSan axis
// (see EngineDifferentialTest.cpp for the rationale).
#if defined(__SANITIZE_THREAD__)
#define TESSLA_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TESSLA_TSAN 1
#endif
#endif
#ifndef TESSLA_TSAN
#define TESSLA_TSAN 0
#endif

/// Third backend: the same Program through the native execution tier
/// (CppEmitter shim -> system compiler -> dlopen, wrapped as a
/// ShardEngine). Unlike the EmitMain path below this crosses the C shim
/// boundary — outputs are rendered to text inside the library and
/// re-parsed on the way back — so it proves the full deployment path,
/// not just the emitted calculation bodies.
void expectNativeParity(uint64_t Seed, const Spec &S, const Program &P,
                        const std::vector<TraceEvent> &Events,
                        const std::string &Expected) {
#if TESSLA_TSAN
  (void)Seed, (void)S, (void)P, (void)Events, (void)Expected;
#else
  std::string Error;
  auto Lib = compileNative(P, NativeCompileOptions(), Error);
  ASSERT_TRUE(Lib) << "seed " << Seed << ": " << Error;
  std::unique_ptr<ShardEngine> Engine = makeNativeEngineFactory(Lib)(P, true);
  EventBatch Batch;
  for (const auto &[Id, Ts, V] : Events)
    Batch.Records.push_back({0, Id, Ts, V});
  auto Outputs = runEngineSingle(*Engine, Batch, std::nullopt, &Error);
  ASSERT_EQ(Error, "") << "seed " << Seed;
  EXPECT_EQ(formatOutputs(S, Outputs), Expected)
      << "native tier diverged at seed " << Seed << "\n" << S.str();
#endif
}

/// Runs both backends over the same Program on \p Events and expects
/// byte-identical output. The host compiler runs at -O0 to keep the
/// corpus-sized compile bill small; correctness does not depend on it.
/// With \p OptLevel >= 1 the *program* optimizer runs first, and the
/// expectation is computed from the unoptimized interpreter — one call
/// checks interpreter -O0 == interpreter -O1 == generated C++ -O1
/// == the dlopen()ed native tier at the same opt level.
void expectParity(uint64_t Seed, const Spec &S, bool Optimize,
                  const std::vector<TraceEvent> &Events,
                  unsigned OptLevel = 0) {
  Program P = compileOrDie(S, Optimize);

  std::string Error;
  auto Interpreted = runMonitor(P, Events, std::nullopt, &Error);
  ASSERT_EQ(Error, "") << "seed " << Seed;
  std::string Expected = formatOutputs(S, Interpreted);

  if (OptLevel >= 1) {
    P = compileOrDie(S, Optimize, OptLevel);
    auto OptOut = runMonitor(P, Events, std::nullopt, &Error);
    ASSERT_EQ(Error, "") << "seed " << Seed;
    ASSERT_EQ(formatOutputs(S, OptOut), Expected)
        << "interpreter -O1 diverged at seed " << Seed << "\n" << S.str();
  }

  expectNativeParity(Seed, S, P, Events, Expected);
  if (::testing::Test::HasFatalFailure())
    return;

  CppEmitterOptions Opts;
  Opts.EmitMain = true;
  DiagnosticEngine Diags;
  auto Source = emitCppMonitor(P, Opts, Diags);
  ASSERT_TRUE(Source) << "seed " << Seed << "\n" << Diags.str();

  std::string Dir = tempDir();
  writeFile(Dir + "/monitor.cpp", *Source);
  std::string TraceText;
  for (const auto &[Id, Ts, V] : Events)
    TraceText += std::to_string(Ts) + ": " + S.stream(Id).Name + " = " +
                 V.str() + "\n";
  writeFile(Dir + "/trace.txt", TraceText);

  std::string Compile = "c++ -std=c++20 -O0 -I " TESSLA_INCLUDE_DIR " " +
                        Dir + "/monitor.cpp -o " + Dir +
                        "/monitor 2> " + Dir + "/compile.log";
  int CompileRc = std::system(Compile.c_str());
  ASSERT_EQ(CompileRc, 0) << "seed " << Seed << "\n"
                          << readFile(Dir + "/compile.log");

  std::string Run = Dir + "/monitor < " + Dir + "/trace.txt > " + Dir +
                    "/out.txt";
  ASSERT_EQ(std::system(Run.c_str()), 0) << "seed " << Seed;
  EXPECT_EQ(readFile(Dir + "/out.txt"), Expected) << "seed " << Seed;
}

void parityCorpus(uint64_t FirstSeed, uint64_t LastSeed,
                  const RandomSpecOptions &Opts, unsigned OptLevel = 0) {
  for (uint64_t Seed = FirstSeed; Seed <= LastSeed; ++Seed) {
    Spec S = randomSpec(Seed, Opts);
    auto Events = randomSpecTrace(S, 120, Seed * 31 + 7);
    // Alternate the mutability optimization so both the destructive and
    // the persistent code paths face the interpreter.
    expectParity(Seed, S, /*Optimize=*/Seed % 2 == 0, Events, OptLevel);
  }
}

} // namespace

TEST(CodegenParityTest, RandomSpecs1To10) {
  parityCorpus(1, 10, RandomSpecOptions());
}

TEST(CodegenParityTest, RandomSpecs11To20) {
  parityCorpus(11, 20, RandomSpecOptions());
}

TEST(CodegenParityTest, RandomDelaySpecs) {
  RandomSpecOptions Opts;
  Opts.WithDelay = true;
  parityCorpus(101, 110, Opts);
}

// --- Program optimizer (-O1) parity ---------------------------------------
//
// The optimized Program carries opcodes only the optimizer produces
// (ConstTick, FusedLastLift, FusedLiftLift) and compacted slot tables;
// the generated C++ must keep matching the unoptimized interpreter.

TEST(CodegenParityTest, OptimizedRandomSpecs) {
  parityCorpus(201, 210, RandomSpecOptions(), /*OptLevel=*/1);
}

TEST(CodegenParityTest, OptimizedRandomDelaySpecs) {
  RandomSpecOptions Opts;
  Opts.WithDelay = true;
  parityCorpus(301, 306, Opts, /*OptLevel=*/1);
}

TEST(CodegenParityTest, OptimizedWorkloads) {
  // The Fig. 9 workloads hit all three fused/folded opcode families in
  // the emitter (ConstTick on mapWindow/queueWindow, FusedLastLift and
  // FusedLiftLift on all three).
  uint64_t Seed = 400;
  for (const Spec &S : {seenSet(), mapWindow(4), queueWindow(4)}) {
    auto Events =
        tracegen::randomInts(*S.lookup("x"), 400, 13, ++Seed);
    expectParity(Seed, S, /*Optimize=*/true, Events, /*OptLevel=*/1);
  }
}
