//===- tests/RandomSpecGen.h - Random specification generator ---*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates random valid specifications for property tests: layered
/// (acyclic) definitions over two Int inputs mixing scalar and aggregate
/// operators, accumulator (write-into-last) loops, and — optionally —
/// delay streams. Shared by the differential suite (optimized vs
/// baseline), the semantics oracle (delay-free subset; the oracle's
/// timestamp universe is the input timestamps) and the fleet determinism
/// suite (fleet vs sequential engine).
///
/// Also hosts the *corpus driver*: seed and spec count of a randomized
/// corpus are overridable through TESSLA_CORPUS_SEED /
/// TESSLA_CORPUS_SPECS (so CI can widen a sweep and a developer can
/// replay one seed), and minimizeAndReport() shrinks a failing
/// (spec, trace) pair — source-line delta debugging on the printed spec,
/// prefix bisection plus greedy chunk removal on the trace — then writes
/// the minimized pair next to the test and renders a standalone tesslac
/// repro command.
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_TESTS_RANDOMSPECGEN_H
#define TESSLA_TESTS_RANDOMSPECGEN_H

#include "tessla/Lang/Builder.h"
#include "tessla/Lang/Parser.h"
#include "tessla/Lang/PrintSource.h"
#include "tessla/Lang/TypeCheck.h"
#include "tessla/Runtime/TraceIO.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <random>
#include <sstream>

namespace tessla {
namespace testrandom {

struct RandomSpecOptions {
  /// Also generate delay streams. Amounts are taken from time(reset), so
  /// they are positive whenever input timestamps start at 1, and every
  /// armed timer fires at most once per re-arm — finish() terminates
  /// without a horizon.
  bool WithDelay = false;
  /// Also generate queueDeq/queueFront (guarded by a fresh enqueue so
  /// the queue is never empty at evaluation time).
  bool WithQueueOps = true;
  /// Also generate an accumulator whose update reaches its last slot
  /// only through a filter: last(merge(filter(upd, keep), empty), t).
  /// Interpreter-only: the mutability analysis marks upd in place, and
  /// the native tier, which trusts that verdict, updates the last value
  /// the filter was meant to keep.
  bool WithFilteredLoop = false;
};

/// Generates a random valid specification over two Int inputs "a" and
/// "b", with every scalar stream marked as output. Pure function of
/// \p Seed and \p Opts.
inline Spec randomSpec(uint64_t Seed,
                       const RandomSpecOptions &Opts = RandomSpecOptions()) {
  std::mt19937_64 Rng(Seed);
  SpecBuilder B;
  std::vector<StreamId> Ints;
  std::vector<StreamId> Bools;
  std::vector<StreamId> Sets;
  std::vector<StreamId> Maps;
  std::vector<StreamId> Queues;

  Ints.push_back(B.input("a", Type::integer()));
  Ints.push_back(B.input("b", Type::integer()));
  StreamId Unit = B.unit("u");
  Sets.push_back(B.lift("e0", BuiltinId::SetEmpty, {Unit}));
  Maps.push_back(B.lift("em0", BuiltinId::MapEmpty, {Unit}));
  Queues.push_back(B.lift("eq0", BuiltinId::QueueEmpty, {Unit}));
  Ints.push_back(B.constant("c0", ConstantLit{int64_t{3}}));

  auto Pick = [&Rng](const std::vector<StreamId> &Pool) {
    return Pool[Rng() % Pool.size()];
  };

  unsigned NumCases = 16 + (Opts.WithQueueOps ? 1 : 0) +
                      (Opts.WithDelay ? 1 : 0);
  unsigned NumDefs = 8 + Rng() % 20;
  for (unsigned I = 0; I != NumDefs; ++I) {
    std::string Name = "s" + std::to_string(I);
    switch (Rng() % NumCases) {
    case 0:
      Ints.push_back(B.lift(Name, BuiltinId::Add, {Pick(Ints),
                                                   Pick(Ints)}));
      break;
    case 1:
      Ints.push_back(B.lift(Name, BuiltinId::Merge, {Pick(Ints),
                                                     Pick(Ints)}));
      break;
    case 2:
      Ints.push_back(B.time(Name, Pick(Ints)));
      break;
    case 3:
      Ints.push_back(B.last(Name, Pick(Ints), Pick(Ints)));
      break;
    case 4:
      Bools.push_back(B.lift(Name, BuiltinId::SetContains,
                             {Pick(Sets), Pick(Ints)}));
      break;
    case 5:
      Sets.push_back(B.lift(Name,
                            Rng() % 2 ? BuiltinId::SetAdd
                                      : BuiltinId::SetToggle,
                            {Pick(Sets), Pick(Ints)}));
      break;
    case 6:
      Sets.push_back(B.lift(Name, BuiltinId::Merge, {Pick(Sets),
                                                     Pick(Sets)}));
      break;
    case 7:
      Sets.push_back(B.last(Name, Pick(Sets), Pick(Ints)));
      break;
    case 8:
      Maps.push_back(B.lift(Name, BuiltinId::MapPut,
                            {Pick(Maps), Pick(Ints), Pick(Ints)}));
      break;
    case 9:
      Ints.push_back(B.lift(Name, BuiltinId::MapGetOrElse,
                            {Pick(Maps), Pick(Ints), Pick(Ints)}));
      break;
    case 10:
      Queues.push_back(B.lift(Name, BuiltinId::QueueEnq,
                              {Pick(Queues), Pick(Ints)}));
      break;
    case 11:
      if (!Bools.empty()) {
        Sets.push_back(B.lift(Name, BuiltinId::Filter,
                              {Pick(Sets), Pick(Bools)}));
      } else {
        Ints.push_back(B.lift(Name, BuiltinId::SetSize, {Pick(Sets)}));
      }
      break;
    case 12:
      Sets.push_back(B.lift(Name,
                            Rng() % 2 ? BuiltinId::SetUnion
                                      : BuiltinId::SetDiff,
                            {Pick(Sets), Pick(Sets)}));
      break;
    case 13:
      Queues.push_back(B.lift(Name, BuiltinId::QueueTrim,
                              {Pick(Queues), Pick(Ints)}));
      break;
    case 14:
      Maps.push_back(B.lift(Name, BuiltinId::MapRemove,
                            {Pick(Maps), Pick(Ints)}));
      break;
    case 15:
      Ints.push_back(B.lift(Name, BuiltinId::QueueSize, {Pick(Queues)}));
      break;
    case 16: {
      // queueDeq/queueFront error on empty queues, so guard them with a
      // fresh enqueue: whenever the composite fires, the queue holds at
      // least the just-enqueued element.
      StreamId NonEmpty = B.lift(Name + "e", BuiltinId::QueueEnq,
                                 {Pick(Queues), Pick(Ints)});
      if (Rng() % 2)
        Queues.push_back(B.lift(Name, BuiltinId::QueueDeq, {NonEmpty}));
      else
        Ints.push_back(B.lift(Name, BuiltinId::QueueFront, {NonEmpty}));
      break;
    }
    case 17: {
      // delay(time(r), r): every event of r re-arms the timer to fire
      // at 2*t(r). The reset must be one of the raw inputs — derived
      // streams can fire at t=0 (via constants), where time() is 0 and
      // delay amounts must be positive. Traces start at t >= 1
      // (randomSpecTrace guarantees it), and a firing never re-arms
      // itself, so the drain at finish() is finite.
      StreamId Reset = Ints[Rng() % 2];
      StreamId Amount = B.time(Name + "t", Reset);
      StreamId D = B.delay(Name, Amount, Reset);
      B.markOutput(D);
      Ints.push_back(B.time(Name + "dt", D));
      break;
    }
    }
  }
  // Anchor the empty-aggregate constructors with one concrete use each so
  // their element types are always inferable.
  B.lift("anchorS", BuiltinId::SetAdd, {Sets[0], Ints[0]});
  B.lift("anchorM", BuiltinId::MapPut, {Maps[0], Ints[0], Ints[0]});
  B.lift("anchorQ", BuiltinId::QueueEnq, {Queues[0], Ints[0]});

  // Also build one accumulator (write-into-last loop) to exercise the
  // interesting mutability pattern.
  StreamId Acc = B.declare("acc");
  StreamId M = B.lift("accm", BuiltinId::Merge,
                      {Acc, B.lift("acce", BuiltinId::SetEmpty, {Unit})});
  StreamId Prev = B.last("accprev", M, Ints[0]);
  B.defineLift(Acc, BuiltinId::SetAdd, {Prev, Ints[0]});
  StreamId Probe = B.lift("accprobe", BuiltinId::SetContains,
                          {Prev, Ints[1 % Ints.size()]});

  // And one whose update reaches its last slot only through a filter,
  // last(merge(filter(upd, keep), empty), t): the update firing does not
  // imply the last source fires, so the engine must borrow the last
  // value for the update instead of moving it out of the last slot.
  std::optional<StreamId> FProbe;
  if (Opts.WithFilteredLoop) {
    StreamId FAcc = B.declare("facc");
    StreamId Keep = B.lift("fkeep", BuiltinId::Lt,
                           {Ints[0], B.last("fkprev", Ints[0], Ints[0])});
    StreamId FM = B.lift(
        "faccm", BuiltinId::Merge,
        {B.lift("faccf", BuiltinId::Filter, {FAcc, Keep}),
         B.lift("facce", BuiltinId::SetEmpty, {Unit})});
    StreamId FPrev = B.last("faccprev", FM, Ints[0]);
    B.defineLift(FAcc, BuiltinId::SetToggle, {FPrev, Ints[0]});
    FProbe = B.lift("faccsize", BuiltinId::SetSize, {FPrev});
  }

  // Outputs: every scalar result plus sizes of aggregates (canonical
  // rendering of whole aggregates is exercised separately; sizes keep
  // traces compact).
  for (StreamId Id : Bools)
    B.markOutput(Id);
  for (StreamId Id : Ints)
    B.markOutput(Id);
  B.markOutput(Probe);
  if (FProbe)
    B.markOutput(*FProbe);
  DiagnosticEngine Diags;
  Spec S = B.finish(Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  DiagnosticEngine TDiags;
  EXPECT_TRUE(typecheck(S, TDiags)) << TDiags.str();
  return S;
}

/// A random interleaved trace over the two inputs of a randomSpec():
/// \p Count events at strictly positive, non-decreasing timestamps.
inline std::vector<TraceEvent> randomSpecTrace(const Spec &S, size_t Count,
                                               uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::vector<TraceEvent> Events;
  Events.reserve(Count);
  Time Ts = 0;
  for (size_t I = 0; I != Count; ++I) {
    Ts += 1 + Rng() % 3;
    StreamId In = Rng() % 2 ? *S.lookup("a") : *S.lookup("b");
    Events.emplace_back(In, Ts,
                        Value::integer(static_cast<int64_t>(Rng() % 50)));
  }
  return Events;
}

// --- Corpus driver --------------------------------------------------------

/// First generator seed of the corpus (TESSLA_CORPUS_SEED, default 1).
inline uint64_t corpusSeed() {
  if (const char *Env = std::getenv("TESSLA_CORPUS_SEED"))
    return std::strtoull(Env, nullptr, 10);
  return 1;
}

/// Number of random specs in the corpus (TESSLA_CORPUS_SPECS, default
/// \p Default). Seeds run corpusSeed() .. corpusSeed()+N-1.
inline size_t corpusSpecs(size_t Default) {
  if (const char *Env = std::getenv("TESSLA_CORPUS_SPECS"))
    if (long N = std::strtol(Env, nullptr, 10); N > 0)
      return static_cast<size_t>(N);
  return Default;
}

/// One corpus input record. Streams are referenced *by name*, not id:
/// the minimizer reparses shrunken spec sources, which renumbers ids.
struct CorpusRecord {
  SessionId Session = 0;
  std::string Input;
  Time Ts = 0;
  Value V;
};

/// True while the failure still reproduces on (spec, records). Records
/// naming streams the shrunken spec no longer declares are dropped
/// before the call.
using CorpusPredicate =
    std::function<bool(const Spec &, const std::vector<CorpusRecord> &)>;

/// Identifies the failing corpus configuration for the repro command.
struct CorpusFailure {
  uint64_t Seed = 0;      ///< generator seed of the failing spec
  bool Baseline = false;  ///< mutability optimization disabled?
  unsigned OptLevel = 0;  ///< program optimization level (-O0/-O1)
  const char *TestBinary = "the failing test binary";
};

namespace corpusdetail {

inline std::optional<Spec> parseValidSpec(const std::string &Source) {
  DiagnosticEngine PDiags;
  auto S = parseSpec(Source, PDiags);
  if (!S)
    return std::nullopt;
  DiagnosticEngine TDiags;
  if (!typecheck(*S, TDiags))
    return std::nullopt;
  if (S->inputs().empty() || S->outputs().empty())
    return std::nullopt; // vacuous candidate; keep shrinking elsewhere
  return S;
}

inline std::vector<CorpusRecord>
liveRecords(const Spec &S, const std::vector<CorpusRecord> &Records) {
  std::vector<CorpusRecord> Out;
  Out.reserve(Records.size());
  for (const CorpusRecord &R : Records) {
    std::optional<StreamId> Id = S.lookup(R.Input);
    if (Id && S.stream(*Id).Kind == StreamKind::Input)
      Out.push_back(R);
  }
  return Out;
}

inline std::string renderTrace(const std::vector<CorpusRecord> &Records) {
  std::ostringstream Out;
  for (const CorpusRecord &R : Records)
    Out << static_cast<long long>(R.Ts) << ": " << R.Input << " = "
        << R.V.str() << "\n";
  return Out.str();
}

} // namespace corpusdetail

/// Shrinks a failing (spec, records) pair while \p Fails keeps holding,
/// writes the minimized spec + per-session traces to temp files and
/// returns a human-readable report ending in a standalone tesslac repro
/// command (exact for a single surviving session: tesslac replays one
/// trace per session). Call as ADD_FAILURE() << minimizeAndReport(...).
inline std::string minimizeAndReport(const Spec &Original,
                                     std::vector<CorpusRecord> Records,
                                     const CorpusPredicate &Fails,
                                     const CorpusFailure &Info) {
  using namespace corpusdetail;
  // The shrink loops re-run the full differential comparison per
  // candidate; bound the total work so a pathological failure still
  // reports in reasonable time.
  size_t Budget = 250;
  auto StillFails = [&](const Spec &S,
                        const std::vector<CorpusRecord> &R) {
    if (Budget == 0)
      return false;
    --Budget;
    return Fails(S, liveRecords(S, R));
  };

  std::ostringstream Report;
  Spec S = Original;
  if (!StillFails(S, Records)) {
    Report << "failure did not reproduce on re-run (timing-dependent?); "
              "skipping minimization.\n";
  } else {
    // 1. Spec shrink: delta-debug the printed source line by line. A
    // candidate must reparse and typecheck (removing a referenced def
    // fails the parse and is skipped automatically).
    std::vector<std::string> Lines;
    {
      std::istringstream In(printSpecSource(S));
      for (std::string Line; std::getline(In, Line);)
        if (!Line.empty())
          Lines.push_back(Line);
    }
    bool Shrunk = true;
    while (Shrunk && Budget) {
      Shrunk = false;
      for (size_t I = Lines.size(); I-- && Budget;) {
        std::vector<std::string> Candidate;
        Candidate.reserve(Lines.size() - 1);
        for (size_t J = 0; J != Lines.size(); ++J)
          if (J != I)
            Candidate.push_back(Lines[J]);
        std::string Src;
        for (const std::string &L : Candidate)
          Src += L + "\n";
        std::optional<Spec> C = parseValidSpec(Src);
        if (!C || !StillFails(*C, Records))
          continue;
        Lines = std::move(Candidate);
        S = std::move(*C);
        Shrunk = true;
      }
    }
    Records = liveRecords(S, Records);

    // 2. Trace shrink: prefix bisection first (cheap halving), then
    // greedy chunk removal down to single records.
    while (Records.size() > 1 && Budget) {
      std::vector<CorpusRecord> Half(Records.begin(),
                                     Records.begin() + Records.size() / 2);
      if (!StillFails(S, Half))
        break;
      Records = std::move(Half);
    }
    for (size_t Chunk = std::max<size_t>(Records.size() / 2, 1);
         Chunk >= 1 && Budget; Chunk /= 2) {
      for (size_t Start = 0; Start < Records.size() && Budget;) {
        std::vector<CorpusRecord> Candidate;
        Candidate.reserve(Records.size());
        for (size_t I = 0; I != Records.size(); ++I)
          if (I < Start || I >= Start + Chunk)
            Candidate.push_back(Records[I]);
        if (Candidate.size() < Records.size() &&
            StillFails(S, Candidate))
          Records = std::move(Candidate);
        else
          Start += Chunk;
      }
      if (Chunk == 1)
        break;
    }
  }

  // 3. Write the (possibly unshrunken) repro pair and render commands.
  const char *Tmp = std::getenv("TMPDIR");
  std::string Dir = Tmp && *Tmp ? Tmp : "/tmp";
  std::string Stem =
      Dir + "/engine_corpus_seed" + std::to_string(Info.Seed);
  std::string SpecPath = Stem + ".tessla";
  std::ofstream(SpecPath) << printSpecSource(S);

  std::vector<SessionId> Sessions;
  for (const CorpusRecord &R : Records)
    if (std::find(Sessions.begin(), Sessions.end(), R.Session) ==
        Sessions.end())
      Sessions.push_back(R.Session);

  Report << "minimized spec (" << S.numStreams() << " streams, "
         << Records.size() << " records over " << Sessions.size()
         << " session(s)): " << SpecPath << "\n";
  const char *OptFlag = Info.OptLevel ? "-O1" : "-O0";
  std::string BaseFlag = Info.Baseline ? " --baseline" : "";
  for (SessionId Session : Sessions) {
    std::vector<CorpusRecord> Of;
    for (const CorpusRecord &R : Records)
      if (R.Session == Session)
        Of.push_back(R);
    std::string TracePath =
        Stem + "_s" + std::to_string(Session) + ".txt";
    std::ofstream(TracePath) << renderTrace(Of);
    Report << "repro (session " << Session << "; diff the two engines):\n"
           << "  tesslac " << SpecPath << " " << OptFlag << BaseFlag
           << " --run " << TracePath << " --fleet 4 --engine=interp\n"
           << "  tesslac " << SpecPath << " " << OptFlag << BaseFlag
           << " --run " << TracePath << " --fleet 4 --engine=native\n";
  }
  if (Sessions.size() > 1)
    Report << "note: " << Sessions.size()
           << " sessions survived minimization; the one-command repro "
              "replays each session's trace separately, which may lose a "
              "cross-session interleaving. Full repro:\n";
  else
    Report << "gtest repro:\n";
  Report << "  TESSLA_CORPUS_SEED=" << Info.Seed
         << " TESSLA_CORPUS_SPECS=1 " << Info.TestBinary << "\n";
  return Report.str();
}

} // namespace testrandom
} // namespace tessla

#endif // TESSLA_TESTS_RANDOMSPECGEN_H
