//===- tests/Program/SerializeTest.cpp --------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// The .tpb bundle format (Program/Serialize.h): round-trip fidelity
/// over a random-spec corpus in every compile configuration, robustness
/// against truncated and bit-flipped input, builtin re-resolution by
/// name, and the golden-bytes guard that forces a TPBFormatVersion bump
/// on any layout change.
///
//===----------------------------------------------------------------------===//

#include "tessla/Program/Serialize.h"
#include "tessla/Runtime/Monitor.h"
#include "tessla/Runtime/TraceGen.h"
#include "tessla/Runtime/TraceIO.h"

#include "../RandomSpecGen.h"
#include "../TestSpecs.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

using namespace tessla;
using namespace tessla::testrandom;
using namespace tessla::testspecs;

namespace {

/// Writes \p V little-endian into Bytes[Off..Off+8).
void patchU64(std::vector<uint8_t> &Bytes, size_t Off, uint64_t V) {
  for (unsigned I = 0; I != 8; ++I)
    Bytes[Off + I] = static_cast<uint8_t>(V >> (8 * I));
}

void patchU32(std::vector<uint8_t> &Bytes, size_t Off, uint32_t V) {
  for (unsigned I = 0; I != 4; ++I)
    Bytes[Off + I] = static_cast<uint8_t>(V >> (8 * I));
}

/// Re-stamps the content checksum after a deliberate payload patch, so
/// tests reach the validation layer *behind* the checksum.
void restamp(std::vector<uint8_t> &Bytes) {
  patchU64(Bytes, 8,
           tpbChecksum(Bytes.data() + TPBChecksumStart,
                       Bytes.size() - TPBChecksumStart));
}

/// Loads and expects failure; returns the collected diagnostics.
std::string expectLoadFails(const std::vector<uint8_t> &Bytes) {
  DiagnosticEngine Diags;
  auto P = loadProgram(Bytes, Diags);
  EXPECT_FALSE(P);
  EXPECT_FALSE(Diags.str().empty());
  return Diags.str();
}

/// The heart of the suite: compile \p S under the given configuration,
/// serialize, load, and require (a) the loaded program's interpreter
/// output to be byte-identical to the original's on \p Events, and
/// (b) re-serialization of the loaded program to reproduce the exact
/// bundle bytes (the encoding is canonical).
void expectRoundTrip(uint64_t Seed, const Spec &S, bool Optimize,
                     unsigned OptLevel,
                     const std::vector<TraceEvent> &Events) {
  Program P = compileOrDie(S, Optimize, OptLevel);
  std::vector<uint8_t> Bytes = serializeProgram(P);

  DiagnosticEngine Diags;
  auto Loaded = loadProgram(Bytes, Diags);
  ASSERT_TRUE(Loaded) << "seed " << Seed << "\n" << Diags.str();
  EXPECT_EQ(serializeProgram(*Loaded), Bytes)
      << "re-serialization diverged at seed " << Seed;

  std::string Error;
  auto Ref = runMonitor(P, Events, std::nullopt, &Error);
  ASSERT_EQ(Error, "") << "seed " << Seed;
  auto Out = runMonitor(*Loaded, Events, std::nullopt, &Error);
  ASSERT_EQ(Error, "") << "seed " << Seed;
  EXPECT_EQ(formatOutputs(S, Out), formatOutputs(S, Ref))
      << "loaded program diverged at seed " << Seed << "\n" << S.str();
}

void roundTripCorpus(uint64_t FirstSeed, uint64_t LastSeed,
                     const RandomSpecOptions &Opts) {
  for (uint64_t Seed = FirstSeed; Seed <= LastSeed; ++Seed) {
    Spec S = randomSpec(Seed, Opts);
    auto Events = randomSpecTrace(S, 150, Seed * 37 + 5);
    // Sweep the full configuration grid: both mutability modes, both
    // optimization levels. Every cell must survive the round trip.
    for (bool Optimize : {false, true})
      for (unsigned OptLevel : {0u, 1u})
        expectRoundTrip(Seed, S, Optimize, OptLevel, Events);
  }
}

/// A fixed bundle for the corruption suites: the seen-set workload at
/// -O1 exercises fused steps, last slots, aggregates and the pool.
std::vector<uint8_t> workloadBundle() {
  Program P = compileOrDie(seenSet(), /*Optimize=*/true, /*OptLevel=*/1);
  return serializeProgram(P);
}

} // namespace

// --- Round-trip corpus ------------------------------------------------------

TEST(SerializeTest, RoundTripRandomSpecs) {
  // 8 specs x 4 configurations = 32 round trips.
  roundTripCorpus(1, 8, RandomSpecOptions());
}

TEST(SerializeTest, RoundTripRandomDelaySpecs) {
  RandomSpecOptions Opts;
  Opts.WithDelay = true;
  // 5 specs x 4 configurations = 20 round trips; the delay table and
  // queue builtins ride along (WithQueueOps defaults on).
  roundTripCorpus(101, 105, Opts);
}

TEST(SerializeTest, RoundTripWorkloads) {
  uint64_t Seed = 500;
  for (const Spec &S : {seenSet(), mapWindow(4), queueWindow(4)}) {
    auto Events = tracegen::randomInts(*S.lookup("x"), 300, 13, ++Seed);
    for (bool Optimize : {false, true})
      for (unsigned OptLevel : {0u, 1u})
        expectRoundTrip(Seed, S, Optimize, OptLevel, Events);
  }
}

TEST(SerializeTest, FileRoundTrip) {
  Program P = compileOrDie(seenSet(), true, 1);
  std::string Path = ::testing::TempDir() + "serialize_roundtrip.tpb";
  DiagnosticEngine Diags;
  ASSERT_TRUE(writeProgramFile(P, Path, Diags)) << Diags.str();
  auto Loaded = loadProgramFile(Path, Diags);
  ASSERT_TRUE(Loaded) << Diags.str();
  EXPECT_EQ(serializeProgram(*Loaded), serializeProgram(P));
  std::remove(Path.c_str());
}

TEST(SerializeTest, MissingFileReportsDiagnostic) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(loadProgramFile("/definitely/not/here.tpb", Diags));
  EXPECT_FALSE(Diags.str().empty());
}

// --- Aggregate constants in the pool ---------------------------------------

TEST(SerializeTest, AggregateConstantsRoundTrip) {
  // ConstantFold never folds aggregate constants into ConstVal, so reach
  // through OptView and plant them directly: a set, a map and a queue,
  // built through both update tiers (destructive and path-copying — the
  // encoded bytes must not depend on how the structure was built). The
  // canonical re-serialization equality proves the recursive Value codec
  // (sorted aggregate encoding included) is lossless.
  for (bool InPlace : {false, true}) {
    Program P = compileOrDie(seenSet(), /*Optimize=*/InPlace);
    auto View = P.optView();
    ASSERT_GE(View.Steps.size(), 3u);

    Value ES = Value::emptySet(), EM = Value::emptyMap(),
          EQ = Value::emptyQueue();
    SetCow SC = ES.setCow(InPlace);
    SC.add(Value::integer(3));
    SC.add(Value::integer(-7));
    MapCow MC = EM.mapCow(InPlace);
    MC.put(Value::integer(1), Value::string("one"));
    QueueCow QC = EQ.queueCow(InPlace);
    QC.enqueue(Value::boolean(true));
    QC.enqueue(Value::floating(2.5));
    View.Steps[0].ConstVal = std::move(SC).finish();
    View.Steps[1].ConstVal = std::move(MC).finish();
    View.Steps[2].ConstVal = std::move(QC).finish();

    std::vector<uint8_t> Bytes = serializeProgram(P);
    DiagnosticEngine Diags;
    auto Loaded = loadProgram(Bytes, Diags);
    ASSERT_TRUE(Loaded) << Diags.str();
    EXPECT_EQ(serializeProgram(*Loaded), Bytes) << "inplace=" << InPlace;

    const auto &Steps = Loaded->steps();
    ASSERT_GE(Steps.size(), 3u);
    EXPECT_EQ(compareValues(Steps[0].ConstVal, View.Steps[0].ConstVal), 0);
    EXPECT_EQ(compareValues(Steps[1].ConstVal, View.Steps[1].ConstVal), 0);
    EXPECT_EQ(compareValues(Steps[2].ConstVal, View.Steps[2].ConstVal), 0);
  }
}

// --- Robust loading: truncation and corruption ------------------------------

TEST(SerializeTest, EveryTruncationFailsCleanly) {
  std::vector<uint8_t> Bytes = workloadBundle();
  ASSERT_GT(Bytes.size(), 64u);
  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    std::vector<uint8_t> Prefix(Bytes.begin(), Bytes.begin() + Len);
    DiagnosticEngine Diags;
    auto P = loadProgram(Prefix, Diags);
    EXPECT_FALSE(P) << "truncation to " << Len << " bytes loaded";
    EXPECT_FALSE(Diags.str().empty()) << "silent failure at " << Len;
  }
}

TEST(SerializeTest, EveryBitFlipFailsCleanly) {
  // The checksum covers every byte past offset 16 and the header fields
  // are validated individually, so no single-bit corruption anywhere in
  // the bundle may load — and none may crash.
  std::vector<uint8_t> Bytes = workloadBundle();
  for (size_t Off = 0; Off != Bytes.size(); ++Off) {
    for (unsigned Bit = 0; Bit < 8; Bit += 3) { // bits 0, 3, 6
      std::vector<uint8_t> Flipped = Bytes;
      Flipped[Off] ^= static_cast<uint8_t>(1u << Bit);
      DiagnosticEngine Diags;
      auto P = loadProgram(Flipped, Diags);
      EXPECT_FALSE(P) << "bit " << Bit << " at offset " << Off;
      EXPECT_FALSE(Diags.str().empty());
    }
  }
}

TEST(SerializeTest, PostChecksumValidationStillFires) {
  // Corrupt a payload byte *and* re-stamp the checksum: the structural
  // validators behind the checksum must still catch it or the program
  // must still verify — never crash. Sweep every byte with a 0xFF smash.
  std::vector<uint8_t> Bytes = workloadBundle();
  size_t Loaded = 0;
  for (size_t Off = TPBChecksumStart; Off != Bytes.size(); ++Off) {
    std::vector<uint8_t> Patched = Bytes;
    Patched[Off] ^= 0xFF;
    restamp(Patched);
    DiagnosticEngine Diags;
    auto P = loadProgram(Patched, Diags);
    if (P)
      ++Loaded; // benign patch (e.g. a name byte) — fine, it verified
    else
      EXPECT_FALSE(Diags.str().empty()) << "silent failure at " << Off;
  }
  // The vast majority of single-byte smashes must be rejected.
  EXPECT_LT(Loaded, Bytes.size() / 4) << "validators are too permissive";
}

TEST(SerializeTest, EmptyAndGarbageInputs) {
  DiagnosticEngine D1;
  EXPECT_FALSE(loadProgram(std::vector<uint8_t>{}, D1));
  EXPECT_NE(D1.str().find("truncated"), std::string::npos) << D1.str();

  std::vector<uint8_t> Garbage(256, 0xAB);
  DiagnosticEngine D2;
  EXPECT_FALSE(loadProgram(Garbage, D2));
  EXPECT_NE(D2.str().find("magic"), std::string::npos) << D2.str();
}

// --- Version, builtin names, and the format guard ---------------------------

TEST(SerializeTest, VersionMismatchIsRejected) {
  std::vector<uint8_t> Bytes = workloadBundle();
  patchU32(Bytes, 4, TPBFormatVersion + 1);
  std::string Diag = expectLoadFails(Bytes);
  EXPECT_NE(Diag.find("version"), std::string::npos) << Diag;
}

TEST(SerializeTest, UnknownBuiltinNameIsRejectedByName) {
  // Rename a builtin inside the BLTN section to a same-length unknown
  // name and re-stamp the checksum: the loader must reject the bundle
  // with a diagnostic naming the offending builtin — not dereference a
  // null evaluator at run time.
  std::vector<uint8_t> Bytes = workloadBundle();
  const char Needle[] = "setToggle";
  const char Patch[] = "setTogglZ";
  auto It = std::search(Bytes.begin(), Bytes.end(), Needle,
                        Needle + sizeof(Needle) - 1);
  ASSERT_NE(It, Bytes.end()) << "expected builtin name in the bundle";
  std::memcpy(&*It, Patch, sizeof(Patch) - 1);
  restamp(Bytes);
  std::string Diag = expectLoadFails(Bytes);
  EXPECT_NE(Diag.find("setTogglZ"), std::string::npos) << Diag;
  EXPECT_NE(Diag.find("unknown builtin"), std::string::npos) << Diag;
}

TEST(SerializeTest, ChecksumDetectsPayloadCorruption) {
  std::vector<uint8_t> Bytes = workloadBundle();
  Bytes[Bytes.size() / 2] ^= 0x01;
  std::string Diag = expectLoadFails(Bytes);
  EXPECT_NE(Diag.find("checksum"), std::string::npos) << Diag;
}

TEST(SerializeTest, DeterministicEncoding) {
  // Equal programs produce equal bytes — compile the same spec twice.
  Spec S = randomSpec(42);
  auto A = serializeProgram(compileOrDie(S, true, 1));
  auto B = serializeProgram(compileOrDie(S, true, 1));
  EXPECT_EQ(A, B);
}

TEST(SerializeTest, FormatChangeForcesVersionBump) {
  // Golden-bytes guard: this hash pins the current format version's
  // exact byte layout for a fixed program. If an intentional layout
  // change lands, this test fails — bump TPBFormatVersion and update the
  // constants below TOGETHER, so old readers reject new bundles instead
  // of misdecoding them. (v2: aggregate back-references in the value
  // codec.)
  Spec S = parseOrDie("in x: Int\n"
                      "def y := x + 1\n"
                      "out y\n");
  std::vector<uint8_t> Bytes =
      serializeProgram(compileOrDie(S, /*Optimize=*/false, /*OptLevel=*/0));
  uint64_t Hash = tpbChecksum(Bytes.data(), Bytes.size());

  constexpr uint32_t PinnedVersion = 2;
  constexpr uint64_t PinnedSize = 507;
  constexpr uint64_t PinnedHash = 6444314416503829693ull;
  ASSERT_EQ(TPBFormatVersion, PinnedVersion)
      << "TPBFormatVersion changed: re-pin the golden constants";
  EXPECT_EQ(Bytes.size(), PinnedSize)
      << "bundle layout changed without a TPBFormatVersion bump";
  EXPECT_EQ(Hash, PinnedHash)
      << "bundle layout changed without a TPBFormatVersion bump";
}
