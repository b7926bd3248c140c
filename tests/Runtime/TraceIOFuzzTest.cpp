//===- tests/Runtime/TraceIOFuzzTest.cpp ------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// Property/fuzz coverage for the textual trace boundary and the shared
/// ingestion batch: random scalar records — every value kind including
/// unit events, hostile strings and extreme timestamps — must survive
/// format -> parse -> format byte-identically (the same untrusting
/// round-trip rigor the .tpb loader gets from SerializeTest), and
/// EventBatch wrapping must preserve record identity, order and session
/// attribution exactly.
///
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/TraceIO.h"

#include "../TestSpecs.h"

#include <gtest/gtest.h>

#include <limits>
#include <random>

using namespace tessla;
using namespace tessla::testspecs;

namespace {

/// One input stream per scalar value kind.
Spec fuzzSpec() {
  return parseOrDie(R"(
    in i: Int
    in f: Float
    in b: Bool
    in s: String
    in u: Unit
    def t := time(merge(time(i), merge(time(f), merge(time(b),
             merge(time(s), time(u))))))
    out t
  )");
}

/// Random scalar value for input \p Pick (one per kind). Floats are
/// drawn from small decimals; their round-trip is checked through the
/// renderer's own canonical form, so any value the renderer can print
/// unambiguously is fair game.
Value randomValue(unsigned Pick, std::mt19937_64 &Rng) {
  switch (Pick) {
  case 0: {
    // Ints across the whole range, including both extremes.
    switch (Rng() % 4) {
    case 0:
      return Value::integer(std::numeric_limits<int64_t>::max());
    case 1:
      return Value::integer(std::numeric_limits<int64_t>::min());
    default:
      return Value::integer(static_cast<int64_t>(Rng()));
    }
  }
  case 1: {
    // Exactly representable and never integral: an integral Float
    // renders without a decimal point and reparses as Int (the trace
    // grammar is untyped), which is a representation limit of the
    // format, not a round-trip bug.
    double D = static_cast<double>(static_cast<int64_t>(Rng() % 2000001) -
                                   1000000) +
               0.5;
    return Value::floating(D);
  }
  case 2:
    return Value::boolean(Rng() % 2 == 0);
  case 3: {
    // Strings exercising the escaper: quotes, backslashes, newlines,
    // tabs and plain text.
    static const char Alphabet[] = "ab \"\\\n\tz0#:=";
    std::string S;
    for (size_t I = 0, N = Rng() % 12; I != N; ++I)
      S += Alphabet[Rng() % (sizeof(Alphabet) - 1)];
    return Value::string(S);
  }
  default:
    return Value::unit();
  }
}

std::vector<TraceEvent> randomTrace(const Spec &S, size_t Count,
                                    uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  const StreamId Inputs[] = {*S.lookup("i"), *S.lookup("f"),
                             *S.lookup("b"), *S.lookup("s"),
                             *S.lookup("u")};
  std::vector<TraceEvent> Events;
  Events.reserve(Count);
  Time Ts = 0;
  bool Leaped = false;
  for (size_t I = 0; I != Count; ++I) {
    // Strictly increasing small steps (duplicate (stream, ts) pairs
    // would fail the monitor and are a different property); most seeds
    // additionally leap once toward the Time extreme, leaving enough
    // headroom that the remaining steps cannot overflow.
    if (!Leaped && Rng() % 50 == 0) {
      Ts = std::numeric_limits<Time>::max() - 4096;
      Leaped = true;
    } else {
      Ts += 1 + static_cast<Time>(Rng() % 3);
    }
    unsigned Pick = Rng() % 5;
    Events.emplace_back(Inputs[Pick], Ts, randomValue(Pick, Rng));
  }
  return Events;
}

} // namespace

TEST(TraceIOFuzzTest, FormatParseFormatIsIdentity) {
  Spec S = fuzzSpec();
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    auto Events = randomTrace(S, 120, Seed);
    std::vector<OutputEvent> AsOutputs;
    for (const auto &[Id, Ts, V] : Events)
      AsOutputs.push_back({Ts, Id, V});
    std::string Text = formatOutputs(S, AsOutputs);

    DiagnosticEngine Diags;
    auto Parsed = parseTrace(Text, S, Diags);
    ASSERT_TRUE(Parsed) << Diags.str() << "\nseed " << Seed << "\n"
                        << Text;
    ASSERT_EQ(Parsed->size(), Events.size()) << "seed " << Seed;
    for (size_t I = 0; I != Events.size(); ++I) {
      EXPECT_EQ(std::get<0>((*Parsed)[I]), std::get<0>(Events[I]))
          << "seed " << Seed << " record " << I;
      EXPECT_EQ(std::get<1>((*Parsed)[I]), std::get<1>(Events[I]))
          << "seed " << Seed << " record " << I;
      EXPECT_TRUE(std::get<2>((*Parsed)[I]) == std::get<2>(Events[I]))
          << "seed " << Seed << " record " << I << ": "
          << std::get<2>(Events[I]).str() << " vs "
          << std::get<2>((*Parsed)[I]).str();
    }

    // Second render reaches a fixpoint (canonical form).
    std::vector<OutputEvent> Again;
    for (const auto &[Id, Ts, V] : *Parsed)
      Again.push_back({Ts, Id, V});
    EXPECT_EQ(formatOutputs(S, Again), Text) << "seed " << Seed;
  }
}

TEST(TraceIOFuzzTest, BatchWrapPreservesRecordsOrderAndSession) {
  Spec S = fuzzSpec();
  for (uint64_t Seed = 50; Seed <= 70; ++Seed) {
    auto Events = randomTrace(S, 200, Seed);
    SessionId Session = Seed * 7919;
    EventBatch B = toBatch(Events, Session);
    EXPECT_FALSE(B.Close);
    EXPECT_EQ(B.size(), Events.size());
    ASSERT_EQ(B.Records.size(), Events.size());
    for (size_t I = 0; I != Events.size(); ++I) {
      EXPECT_EQ(B.Records[I].Session, Session);
      EXPECT_EQ(B.Records[I].Input, std::get<0>(Events[I]));
      EXPECT_EQ(B.Records[I].Ts, std::get<1>(Events[I]));
      EXPECT_TRUE(B.Records[I].V == std::get<2>(Events[I]))
          << "seed " << Seed << " record " << I;
    }
    B.clear();
    EXPECT_TRUE(B.empty());
  }
}

TEST(TraceIOFuzzTest, BatchReplayMatchesEventReplay) {
  // Feeding through the batch path must be observationally identical to
  // the plain event-vector path, extreme timestamps included.
  Spec S = fuzzSpec();
  Program Plan = compileOrDie(S, true);
  for (uint64_t Seed = 80; Seed <= 92; ++Seed) {
    auto Events = randomTrace(S, 150, Seed);
    std::string E1, E2;
    auto FromEvents = runMonitor(Plan, Events, std::nullopt, &E1);
    auto FromBatch =
        runMonitor(Plan, toBatch(Events), std::nullopt, &E2);
    EXPECT_EQ(E1, E2) << "seed " << Seed;
    EXPECT_EQ(formatOutputs(Plan.spec(), FromEvents),
              formatOutputs(Plan.spec(), FromBatch))
        << "seed " << Seed;
    EXPECT_FALSE(FromEvents.empty()) << "vacuous at seed " << Seed;
  }
}

TEST(TraceIOFuzzTest, ParserRejectsWhatItCannotRoundTrip) {
  // The untrusting half: hostile lines must be rejected, not mangled.
  Spec S = fuzzSpec();
  for (const char *Bad :
       {"9223372036854775808: i = 1",      // Time overflow
        "-1: i = 1",                       // negative timestamp
        "1: s = \"unterminated",           // broken string literal
        "1: s = \"bad\\q\"",               // unknown escape
        "1: t = 1",                        // derived stream as input
        "1: nosuch = 1",                   // unknown stream
        "1: i = ", "1: i", "1:", ":"}) {
    DiagnosticEngine Diags;
    EXPECT_FALSE(parseTrace(Bad, S, Diags)) << Bad;
  }
}
