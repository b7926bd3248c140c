//===- tests/Integration/AbsIntOracleTest.cpp -------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// The soundness oracle for the abstract-interpretation framework
/// (Analysis/AbsInt.h): static facts are *claims about every execution*,
/// so any single execution is a free counterexample generator. The
/// harness runs randomized specifications (scalar/aggregate mixes, queue
/// operations, delays) through the interpreter and asserts that every
/// observed fact is contained in the corresponding static fact:
///
///  * an event on a stream refutes tick=never;
///  * an event past timestamp 0 refutes tick=unit;
///  * a missing event at timestamp 0 refutes the must-fire-at-0 bit;
///  * an event value outside range()/knownValue() refutes the range and
///    constant channels;
///  * an aggregate whose element count exceeds sizeBound() refutes the
///    bound analysis (queue high-water marks, set/map growth);
///  * a tick of U unaccompanied by V refutes a proven clockSubset(U, V)
///    (sampled over the first streams to bound the quadratic pair walk).
///
/// At -O0 every stream of a copied spec is marked output, so the whole
/// slot state is observable; at -O1 the original outputs are checked
/// against facts recomputed over the *optimized* program — a rewrite
/// that invalidates the facts the next pass consumes shows up here.
/// Violations minimize to a standalone repro via the shared corpus
/// driver (TESSLA_CORPUS_SEED / TESSLA_CORPUS_SPECS override the sweep).
///
//===----------------------------------------------------------------------===//

#include "tessla/Analysis/AbsInt.h"
#include "tessla/Compiler/Compiler.h"
#include "tessla/Runtime/Containers.h"
#include "tessla/Runtime/Monitor.h"

#include "../RandomSpecGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

using namespace tessla;
using namespace tessla::absint;
using namespace tessla::testrandom;

namespace {

uint64_t aggregateElements(const Value &V) {
  switch (V.kind()) {
  case Value::Kind::Set:
    return V.asSet().size();
  case Value::Kind::Map:
    return V.asMap().size();
  case Value::Kind::Queue:
    return V.asQueue().size();
  default:
    return 0;
  }
}

/// Everything one execution revealed about one stream.
struct StreamObservation {
  std::vector<Time> Ticks; ///< sorted, unique
  std::vector<Value> Values;
};

std::optional<Program> compileQuiet(const Spec &S, unsigned OptLevel) {
  DiagnosticEngine Diags;
  CompileOptions Opts;
  Opts.Optimize = OptLevel > 0;
  Opts.OptLevel = OptLevel;
  return compileSpec(S, Opts, Diags);
}

/// Runs \p Events through a fresh monitor over \p Prog, recording every
/// output event with a deep-copied value (mutable aggregates behind the
/// borrowed handler reference are destructively updated later).
std::map<StreamId, StreamObservation>
observe(const Program &Prog,
        const std::vector<std::tuple<StreamId, Time, Value>> &Events,
        std::string &Error) {
  std::map<StreamId, StreamObservation> Obs;
  Monitor M(Prog);
  M.setOutputHandler([&](Time T, StreamId Id, const Value &V) {
    StreamObservation &O = Obs[Id];
    O.Ticks.push_back(T);
    O.Values.push_back(V);
  });
  for (const auto &[Id, T, V] : Events)
    if (!M.feed(Id, T, V))
      break;
  M.finish();
  if (M.failed())
    Error = M.errorMessage();
  return Obs;
}

std::string describe(const Spec &S, StreamId Id, AnalysisFacts &Facts) {
  return "stream '" + S.stream(Id).Name + "' (" + Facts.factString(Id) +
         ")";
}

/// Checks one (program, trace) execution against the static facts.
/// Returns the first violation found, or nullopt when the execution is
/// contained in the facts.
std::optional<std::string>
checkExecution(const Program &Prog,
               const std::vector<std::tuple<StreamId, Time, Value>> &Events) {
  AnalysisFacts Facts = AnalysisFacts::compute(Prog);
  const Spec &S = Prog.spec();

  std::string Error;
  std::map<StreamId, StreamObservation> Obs = observe(Prog, Events, Error);
  if (!Error.empty())
    return "monitor failed: " + Error;

  for (auto &[Id, O] : Obs) {
    std::sort(O.Ticks.begin(), O.Ticks.end());
    O.Ticks.erase(std::unique(O.Ticks.begin(), O.Ticks.end()),
                  O.Ticks.end());

    // Nil reachability: any event refutes tick=never; any event past 0
    // refutes tick=unit.
    if (!Facts.canFire(Id))
      return "event observed on provably-silent " + describe(S, Id, Facts);
    if (Facts.tick(Id) == TickKind::Unit &&
        (O.Ticks.size() != 1 || O.Ticks[0] != 0))
      return "non-unit tick pattern on unit-clock " +
             describe(S, Id, Facts);

    const Value *Known = Facts.knownValue(Id);
    const ValueRange &R = Facts.range(Id);
    const SizeBound &B = Facts.sizeBound(Id);
    for (const Value &V : O.Values) {
      if (Known && !(V == *Known))
        return "event value " + V.str() + " differs from known constant " +
               Known->str() + " on " + describe(S, Id, Facts);
      if (!R.contains(V))
        return "event value " + V.str() + " outside range on " +
               describe(S, Id, Facts);
      if (!B.Unbounded && aggregateElements(V) > B.Max)
        return "aggregate with " + std::to_string(aggregateElements(V)) +
               " elements exceeds bound on " + describe(S, Id, Facts);
    }
  }

  // Must-fire-at-0: timestamp 0 is always evaluated, so a proved At0 bit
  // guarantees an event at 0 on every observable stream.
  for (const auto &[Id, O] : Obs)
    if (Facts.alwaysInitialized(Id) &&
        !std::binary_search(O.Ticks.begin(), O.Ticks.end(), Time(0)))
      return "no event at timestamp 0 on provably-initialized " +
             describe(S, Id, Facts);
  for (StreamId Id = 0; Id != S.numStreams(); ++Id)
    if (S.stream(Id).IsOutput && Facts.alwaysInitialized(Id) &&
        !Obs.count(Id))
      return "no event at all on provably-initialized " +
             describe(S, Id, Facts);

  // Clock domination, sampled: for proven subsets among the first
  // observable streams, every tick of U past 0 must coincide with a tick
  // of V (and including 0 for the Incl0 variant).
  std::vector<StreamId> Sample;
  for (const auto &[Id, O] : Obs) {
    Sample.push_back(Id);
    if (Sample.size() == 12)
      break;
  }
  auto ticksAt = [&](StreamId Id, Time T) {
    const std::vector<Time> &Ticks = Obs[Id].Ticks;
    return std::binary_search(Ticks.begin(), Ticks.end(), T);
  };
  for (StreamId U : Sample)
    for (StreamId V : Sample) {
      if (U == V)
        continue;
      bool Sub = Facts.clockSubset(U, V);
      bool Sub0 = Sub && Facts.clockSubsetIncl0(U, V);
      if (!Sub)
        continue;
      for (Time T : Obs[U].Ticks)
        if ((T != 0 || Sub0) && !ticksAt(V, T))
          return "tick of '" + S.stream(U).Name + "' at t=" +
                 std::to_string(static_cast<long long>(T)) +
                 " unaccompanied by '" + S.stream(V).Name +
                 "' despite proven clock subset (" +
                 Facts.formulaString(U) + " => " + Facts.formulaString(V) +
                 ")";
    }

  return std::nullopt;
}

/// Full check of one spec + trace at one optimization level. At -O0 the
/// spec is copied with every named stream marked output (full slot
/// observability); at -O1 the original outputs are checked over the
/// optimized program.
std::optional<std::string>
checkSpec(const Spec &S,
          const std::vector<std::tuple<StreamId, Time, Value>> &Events,
          unsigned OptLevel) {
  Spec Checked = S;
  if (OptLevel == 0)
    for (StreamId Id = 0; Id != Checked.numStreams(); ++Id)
      if (Checked.stream(Id).Kind != StreamKind::Input)
        Checked.stream(Id).IsOutput = true;
  std::optional<Program> Prog = compileQuiet(Checked, OptLevel);
  if (!Prog)
    return std::nullopt; // shrunken candidate stopped compiling
  return checkExecution(*Prog, Events);
}

std::vector<CorpusRecord>
toRecords(const Spec &S,
          const std::vector<TraceEvent> &Events) {
  std::vector<CorpusRecord> Records;
  Records.reserve(Events.size());
  for (const auto &[Id, T, V] : Events)
    Records.push_back({0, S.stream(Id).Name, T, V});
  return Records;
}

std::vector<std::tuple<StreamId, Time, Value>>
toEvents(const Spec &S, const std::vector<CorpusRecord> &Records) {
  std::vector<std::tuple<StreamId, Time, Value>> Events;
  Events.reserve(Records.size());
  for (const CorpusRecord &R : Records)
    if (std::optional<StreamId> Id = S.lookup(R.Input))
      Events.emplace_back(*Id, R.Ts, R.V);
  return Events;
}

} // namespace

TEST(AbsIntOracleTest, StaticFactsContainEveryExecution) {
  const size_t NumSpecs = corpusSpecs(50);
  const uint64_t Seed0 = corpusSeed();
  for (size_t I = 0; I != NumSpecs; ++I) {
    const uint64_t Seed = Seed0 + I;
    RandomSpecOptions Opts;
    Opts.WithQueueOps = true;
    Opts.WithDelay = I % 2 == 1;
    Spec S = randomSpec(Seed, Opts);
    std::vector<TraceEvent> Events = randomSpecTrace(S, 150, Seed * 9137);

    for (unsigned OptLevel : {0u, 1u}) {
      std::optional<std::string> Violation =
          checkSpec(S, Events, OptLevel);
      if (!Violation)
        continue;
      CorpusFailure Info;
      Info.Seed = Seed;
      Info.Baseline = false;
      Info.OptLevel = OptLevel;
      Info.TestBinary = "integration_absint_oracle_test";
      auto Fails = [OptLevel](const Spec &Shrunk,
                              const std::vector<CorpusRecord> &Rs) {
        return checkSpec(Shrunk, toEvents(Shrunk, Rs), OptLevel)
            .has_value();
      };
      ADD_FAILURE() << "soundness violation at -O" << OptLevel << ": "
                    << *Violation << "\n"
                    << minimizeAndReport(S, toRecords(S, Events), Fails,
                                         Info);
      return;
    }
  }
}

TEST(AbsIntOracleTest, WorkloadTracesAreContained) {
  // The hand-written evaluation specs exercise idioms the generator does
  // not (map windows, db constraints); same containment argument.
  struct Case {
    const char *Source;
    const char *Input;
  };
  const Case Cases[] = {
      {"in x: Int\n"
       "def c := merge(last(c, x) + 1, 0)\n"
       "def even := filter(c, c % 2 == 0)\n"
       "out c\nout even\n",
       "x"},
      {"in x: Int\n"
       "def q := last(merge(w, queueEmpty()), x)\n"
       "def w := queueTrim(queueEnq(q, x), 4)\n"
       "def n := queueSize(w)\n"
       "out n\n",
       "x"},
  };
  for (const Case &C : Cases) {
    DiagnosticEngine Diags;
    std::optional<Spec> S = parseSpec(C.Source, Diags);
    ASSERT_TRUE(S) << Diags.str();
    DiagnosticEngine TDiags;
    ASSERT_TRUE(typecheck(*S, TDiags)) << TDiags.str();
    std::vector<TraceEvent> Events;
    std::mt19937_64 Rng(99);
    Time T = 0;
    for (int I = 0; I != 200; ++I) {
      T += 1 + Rng() % 2;
      Events.emplace_back(*S->lookup(C.Input), T,
                          Value::integer(static_cast<int64_t>(Rng() % 9)));
    }
    for (unsigned OptLevel : {0u, 1u}) {
      std::optional<std::string> Violation =
          checkSpec(*S, Events, OptLevel);
      EXPECT_FALSE(Violation) << "at -O" << OptLevel << ": " << *Violation;
    }
  }
}
