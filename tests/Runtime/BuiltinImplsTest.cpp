//===- tests/Runtime/BuiltinImplsTest.cpp -----------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/BuiltinImpls.h"

#include <gtest/gtest.h>

#include <limits>

using namespace tessla;

namespace {

/// Applies a builtin over concrete values (all present).
Value apply(BuiltinId Fn, std::vector<Value> Args, bool InPlace,
            EvalError &Err) {
  const Value *Ptrs[3] = {nullptr, nullptr, nullptr};
  for (size_t I = 0; I != Args.size(); ++I)
    Ptrs[I] = &Args[I];
  return applyBuiltin(Fn, Ptrs, static_cast<unsigned>(Args.size()),
                      InPlace, Err);
}

Value apply(BuiltinId Fn, std::vector<Value> Args) {
  EvalError Err;
  Value V = apply(Fn, std::move(Args), false, Err);
  EXPECT_FALSE(Err.Failed) << Err.Message;
  return V;
}

Value emptySet(bool InPlace) {
  EvalError Err;
  return apply(BuiltinId::SetEmpty, {Value::unit()}, InPlace, Err);
}

/// Applies a builtin destructively over the caller's own values. The
/// arguments are NOT copied — the in-place tier additionally requires
/// dynamic uniqueness, which a by-value helper would defeat.
Value applyInPlace(BuiltinId Fn, std::initializer_list<const Value *> Args,
                   EvalError &Err) {
  const Value *Ptrs[3] = {nullptr, nullptr, nullptr};
  unsigned N = 0;
  for (const Value *A : Args)
    Ptrs[N++] = A;
  return applyBuiltin(Fn, Ptrs, N, /*InPlace=*/true, Err);
}

} // namespace

TEST(BuiltinImplsTest, IntArithmetic) {
  EXPECT_EQ(apply(BuiltinId::Add, {Value::integer(2), Value::integer(3)})
                .getInt(),
            5);
  EXPECT_EQ(apply(BuiltinId::Sub, {Value::integer(2), Value::integer(3)})
                .getInt(),
            -1);
  EXPECT_EQ(apply(BuiltinId::Mul, {Value::integer(4), Value::integer(3)})
                .getInt(),
            12);
  EXPECT_EQ(apply(BuiltinId::Div, {Value::integer(7), Value::integer(2)})
                .getInt(),
            3);
  EXPECT_EQ(apply(BuiltinId::Mod, {Value::integer(7), Value::integer(3)})
                .getInt(),
            1);
  EXPECT_EQ(apply(BuiltinId::Neg, {Value::integer(5)}).getInt(), -5);
  EXPECT_EQ(apply(BuiltinId::Abs, {Value::integer(-5)}).getInt(), 5);
  EXPECT_EQ(apply(BuiltinId::Min, {Value::integer(2), Value::integer(9)})
                .getInt(),
            2);
  EXPECT_EQ(apply(BuiltinId::Max, {Value::integer(2), Value::integer(9)})
                .getInt(),
            9);
}

TEST(BuiltinImplsTest, FloatArithmetic) {
  EXPECT_DOUBLE_EQ(
      apply(BuiltinId::Div, {Value::floating(1.0), Value::floating(4.0)})
          .getFloat(),
      0.25);
  EXPECT_DOUBLE_EQ(
      apply(BuiltinId::Add, {Value::floating(0.5), Value::floating(0.25)})
          .getFloat(),
      0.75);
}

TEST(BuiltinImplsTest, DivisionByZeroFails) {
  EvalError Err;
  apply(BuiltinId::Div, {Value::integer(1), Value::integer(0)}, false,
        Err);
  EXPECT_TRUE(Err.Failed);
  EvalError Err2;
  apply(BuiltinId::Mod, {Value::integer(1), Value::integer(0)}, false,
        Err2);
  EXPECT_TRUE(Err2.Failed);
}

TEST(BuiltinImplsTest, MixedKindArithmeticFails) {
  EvalError Err;
  apply(BuiltinId::Add, {Value::integer(1), Value::floating(1.0)}, false,
        Err);
  EXPECT_TRUE(Err.Failed);
}

TEST(BuiltinImplsTest, ComparisonsAndBooleans) {
  EXPECT_TRUE(apply(BuiltinId::Lt, {Value::integer(1), Value::integer(2)})
                  .getBool());
  EXPECT_FALSE(
      apply(BuiltinId::Geq, {Value::integer(1), Value::integer(2)})
          .getBool());
  EXPECT_TRUE(apply(BuiltinId::Eq, {Value::string("a"), Value::string("a")})
                  .getBool());
  EXPECT_TRUE(
      apply(BuiltinId::LAnd, {Value::boolean(true), Value::boolean(true)})
          .getBool());
  EXPECT_TRUE(apply(BuiltinId::LNot, {Value::boolean(false)}).getBool());
}

TEST(BuiltinImplsTest, FloatComparisonsFollowIeee) {
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  struct Row {
    double A, B;
    bool Lt, Leq, Gt, Geq;
  };
  const Row Rows[] = {
      {NaN, 1.0, false, false, false, false},
      {1.0, NaN, false, false, false, false},
      {NaN, NaN, false, false, false, false},
      {-0.0, 0.0, false, true, false, true},
      {1.0, 2.5, true, true, false, false},
      {2.5, 1.0, false, false, true, true},
      {-std::numeric_limits<double>::infinity(), -1e308, true, true, false,
       false},
  };
  for (const Row &R : Rows) {
    std::vector<Value> Args = {Value::floating(R.A), Value::floating(R.B)};
    std::string Where = std::to_string(R.A) + " vs " + std::to_string(R.B);
    EXPECT_EQ(apply(BuiltinId::Lt, Args).getBool(), R.Lt) << Where;
    EXPECT_EQ(apply(BuiltinId::Leq, Args).getBool(), R.Leq) << Where;
    EXPECT_EQ(apply(BuiltinId::Gt, Args).getBool(), R.Gt) << Where;
    EXPECT_EQ(apply(BuiltinId::Geq, Args).getBool(), R.Geq) << Where;
  }
}

TEST(BuiltinImplsTest, Conversions) {
  EXPECT_DOUBLE_EQ(apply(BuiltinId::ToFloat, {Value::integer(3)})
                       .getFloat(),
                   3.0);
  EXPECT_EQ(apply(BuiltinId::ToInt, {Value::floating(3.9)}).getInt(), 3);
}

TEST(BuiltinImplsTest, IteSelectsBranch) {
  EXPECT_EQ(apply(BuiltinId::Ite, {Value::boolean(true), Value::integer(1),
                                   Value::integer(2)})
                .getInt(),
            1);
  EXPECT_EQ(apply(BuiltinId::Ite, {Value::boolean(false),
                                   Value::integer(1), Value::integer(2)})
                .getInt(),
            2);
}

TEST(BuiltinImplsTest, PersistentSetOpsPreserveArgument) {
  Value S0 = emptySet(false);
  Value S1 = apply(BuiltinId::SetAdd, {S0, Value::integer(1)});
  Value S2 = apply(BuiltinId::SetAdd, {S1, Value::integer(2)});
  EXPECT_EQ(S0.asSet().size(), 0u) << "argument untouched";
  EXPECT_EQ(S1.asSet().size(), 1u);
  EXPECT_EQ(S2.asSet().size(), 2u);
  EXPECT_NE(S1.aggregateIdentity(), S2.aggregateIdentity()) << "fresh root";
  EXPECT_TRUE(
      apply(BuiltinId::SetContains, {S2, Value::integer(1)}).getBool());
  Value S3 = apply(BuiltinId::SetRemove, {S2, Value::integer(1)});
  EXPECT_EQ(S2.asSet().size(), 2u);
  EXPECT_EQ(S3.asSet().size(), 1u);
}

TEST(BuiltinImplsTest, DestructiveSetOpsShareHandle) {
  EvalError Err;
  Value S0 = emptySet(true);
  Value One = Value::integer(1);
  Value S1 = applyInPlace(BuiltinId::SetAdd, {&S0, &One}, Err);
  ASSERT_FALSE(Err.Failed);
  EXPECT_EQ(S1.aggregateIdentity(), S0.aggregateIdentity())
      << "destructive update keeps the root";
  EXPECT_EQ(S0.asSet().size(), 1u) << "argument mutated in place";
}

TEST(BuiltinImplsTest, DestructiveVerdictWithSharedHandlePathCopies) {
  // The static verdict alone is not enough: a dynamically shared root
  // forces the persistent path even in in-place mode, so the sharer
  // survives unchanged.
  EvalError Err;
  Value S0 = emptySet(true);
  Value Sharer = S0; // root refcount 2
  Value One = Value::integer(1);
  Value S1 = applyInPlace(BuiltinId::SetAdd, {&S0, &One}, Err);
  ASSERT_FALSE(Err.Failed);
  EXPECT_NE(S1.aggregateIdentity(), S0.aggregateIdentity());
  EXPECT_EQ(Sharer.asSet().size(), 0u) << "sharer untouched";
  EXPECT_EQ(S1.asSet().size(), 1u);
}

TEST(BuiltinImplsTest, SetToggle) {
  Value S = emptySet(false);
  S = apply(BuiltinId::SetToggle, {S, Value::integer(4)});
  EXPECT_TRUE(
      apply(BuiltinId::SetContains, {S, Value::integer(4)}).getBool());
  S = apply(BuiltinId::SetToggle, {S, Value::integer(4)});
  EXPECT_FALSE(
      apply(BuiltinId::SetContains, {S, Value::integer(4)}).getBool());
}

TEST(BuiltinImplsTest, SetUpdateWithOptionalArgs) {
  EvalError Err;
  Value S = emptySet(false);
  // Only the add-argument present.
  Value Add = Value::integer(1);
  const Value *Ptrs1[3] = {&S, &Add, nullptr};
  Value S1 = applyBuiltin(BuiltinId::SetUpdate, Ptrs1, 3, false, Err);
  ASSERT_FALSE(Err.Failed) << Err.Message;
  EXPECT_EQ(S1.asSet().size(), 1u);
  // Only the remove-argument present.
  Value Rem = Value::integer(1);
  const Value *Ptrs2[3] = {&S1, nullptr, &Rem};
  Value S2 = applyBuiltin(BuiltinId::SetUpdate, Ptrs2, 3, false, Err);
  ASSERT_FALSE(Err.Failed);
  EXPECT_EQ(S2.asSet().size(), 0u);
}

TEST(BuiltinImplsTest, InPlaceSetUpdateKeepsRootAndSparesSharers) {
  EvalError Err;
  Value S = emptySet(true);
  Value One = Value::integer(1), Two = Value::integer(2);
  Value S1 = applyInPlace(BuiltinId::SetAdd, {&S, &One}, Err);
  S = Value(); // S1 is the only handle
  // Both optional arguments present: one handle serves the add and the
  // remove, so the root survives.
  const Value *Both[3] = {&S1, &Two, &One};
  Value S2 = applyBuiltin(BuiltinId::SetUpdate, Both, 3, true, Err);
  ASSERT_FALSE(Err.Failed) << Err.Message;
  EXPECT_EQ(S2.aggregateIdentity(), S1.aggregateIdentity());
  EXPECT_EQ(S2.str(), "{2}");

  // A shared source is left untouched.
  Value Sharer = S2;
  Value Three = Value::integer(3);
  const Value *Shared[3] = {&S2, &Three, &Two};
  Value S3 = applyBuiltin(BuiltinId::SetUpdate, Shared, 3, true, Err);
  ASSERT_FALSE(Err.Failed) << Err.Message;
  EXPECT_NE(S3.aggregateIdentity(), Sharer.aggregateIdentity());
  EXPECT_EQ(S3.str(), "{3}");
  EXPECT_EQ(Sharer.str(), "{2}");
  EXPECT_EQ(S2.str(), "{2}");
}

TEST(BuiltinImplsTest, MapOps) {
  EvalError Err;
  Value M = apply(BuiltinId::MapEmpty, {Value::unit()}, false, Err);
  Value M1 = apply(BuiltinId::MapPut,
                   {M, Value::integer(1), Value::string("a")});
  Value M2 = apply(BuiltinId::MapPut,
                   {M1, Value::integer(1), Value::string("b")});
  EXPECT_EQ(apply(BuiltinId::MapSize, {M2}).getInt(), 1);
  EXPECT_EQ(apply(BuiltinId::MapGet, {M2, Value::integer(1)}).getString(),
            "b");
  EXPECT_EQ(apply(BuiltinId::MapGet, {M1, Value::integer(1)}).getString(),
            "a")
      << "old version keeps the old mapping";
  EXPECT_EQ(apply(BuiltinId::MapGetOrElse,
                  {M2, Value::integer(9), Value::string("dflt")})
                .getString(),
            "dflt");
  EXPECT_TRUE(apply(BuiltinId::MapContains, {M2, Value::integer(1)})
                  .getBool());
  Value M3 = apply(BuiltinId::MapRemove, {M2, Value::integer(1)});
  EXPECT_EQ(apply(BuiltinId::MapSize, {M3}).getInt(), 0);

  EvalError MissErr;
  apply(BuiltinId::MapGet, {M3, Value::integer(1)}, false, MissErr);
  EXPECT_TRUE(MissErr.Failed);
}

TEST(BuiltinImplsTest, QueueOps) {
  EvalError Err;
  Value Q = apply(BuiltinId::QueueEmpty, {Value::unit()}, false, Err);
  Value Q1 = apply(BuiltinId::QueueEnq, {Q, Value::integer(1)});
  Value Q2 = apply(BuiltinId::QueueEnq, {Q1, Value::integer(2)});
  EXPECT_EQ(apply(BuiltinId::QueueSize, {Q2}).getInt(), 2);
  EXPECT_EQ(apply(BuiltinId::QueueFront, {Q2}).getInt(), 1);
  Value Q3 = apply(BuiltinId::QueueDeq, {Q2});
  EXPECT_EQ(apply(BuiltinId::QueueFront, {Q3}).getInt(), 2);
  EXPECT_EQ(apply(BuiltinId::QueueSize, {Q2}).getInt(), 2)
      << "persistent dequeue keeps the old version";

  EvalError EmptyErr;
  apply(BuiltinId::QueueDeq, {Q}, false, EmptyErr);
  EXPECT_TRUE(EmptyErr.Failed);
  EvalError FrontErr;
  apply(BuiltinId::QueueFront, {Q}, false, FrontErr);
  EXPECT_TRUE(FrontErr.Failed);
}

TEST(BuiltinImplsTest, QueueTrim) {
  Value Q = apply(BuiltinId::QueueEmpty, {Value::unit()});
  for (int I = 0; I != 5; ++I)
    Q = apply(BuiltinId::QueueEnq, {Q, Value::integer(I)});
  Value Trimmed = apply(BuiltinId::QueueTrim, {Q, Value::integer(3)});
  EXPECT_EQ(apply(BuiltinId::QueueSize, {Trimmed}).getInt(), 3);
  EXPECT_EQ(apply(BuiltinId::QueueFront, {Trimmed}).getInt(), 2);
  // Trimming below an already-small size shares the root.
  Value Same = apply(BuiltinId::QueueTrim, {Trimmed, Value::integer(10)});
  EXPECT_EQ(Same.aggregateIdentity(), Trimmed.aggregateIdentity());
  // Destructive trim mutates in place.
  EvalError Err;
  Value MQ = apply(BuiltinId::QueueEmpty, {Value::unit()}, true, Err);
  for (int I = 0; I != 5; ++I) {
    Value E = Value::integer(I);
    MQ = applyInPlace(BuiltinId::QueueEnq, {&MQ, &E}, Err);
  }
  Value Cap = Value::integer(2);
  applyInPlace(BuiltinId::QueueTrim, {&MQ, &Cap}, Err);
  ASSERT_FALSE(Err.Failed);
  EXPECT_EQ(MQ.asQueue().size(), 2u);
}

TEST(BuiltinImplsTest, SetUnionAndDiff) {
  Value A = emptySet(false);
  A = apply(BuiltinId::SetAdd, {A, Value::integer(1)});
  A = apply(BuiltinId::SetAdd, {A, Value::integer(2)});
  Value B = emptySet(false);
  B = apply(BuiltinId::SetAdd, {B, Value::integer(2)});
  B = apply(BuiltinId::SetAdd, {B, Value::integer(3)});

  Value U = apply(BuiltinId::SetUnion, {A, B});
  EXPECT_EQ(U.asSet().size(), 3u);
  EXPECT_EQ(A.asSet().size(), 2u) << "arguments untouched";
  Value D = apply(BuiltinId::SetDiff, {A, B});
  EXPECT_EQ(D.asSet().size(), 1u);
  EXPECT_TRUE(
      apply(BuiltinId::SetContains, {D, Value::integer(1)}).getBool());

  // Destructive mode with a persistent read-side source (arguments may
  // come from different variable families).
  EvalError Err;
  Value M = emptySet(true);
  Value Nine = Value::integer(9);
  M = applyInPlace(BuiltinId::SetAdd, {&M, &Nine}, Err);
  Value MU = applyInPlace(BuiltinId::SetUnion, {&M, &B}, Err);
  ASSERT_FALSE(Err.Failed) << Err.Message;
  EXPECT_EQ(MU.aggregateIdentity(), M.aggregateIdentity());
  EXPECT_EQ(M.asSet().size(), 3u);
}

TEST(BuiltinImplsTest, StringOps) {
  EXPECT_EQ(apply(BuiltinId::StrConcat,
                  {Value::string("foo"), Value::string("bar")})
                .getString(),
            "foobar");
  EXPECT_EQ(apply(BuiltinId::StrLen, {Value::string("hello")}).getInt(),
            5);
}

TEST(BuiltinImplsTest, MergeAndFilterPassThrough) {
  Value S = emptySet(false);
  EXPECT_EQ(apply(BuiltinId::Merge, {S, S}).aggregateIdentity(),
            S.aggregateIdentity());
  Value F = apply(BuiltinId::Filter, {S, Value::boolean(true)});
  EXPECT_EQ(F.aggregateIdentity(), S.aggregateIdentity());
}
