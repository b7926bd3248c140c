//===- tests/Runtime/ValueTest.cpp ------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/Program/BinaryCodec.h"
#include "tessla/Runtime/Containers.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace tessla;

TEST(ValueTest, ScalarConstructionAndAccess) {
  EXPECT_EQ(Value::unit().kind(), Value::Kind::Unit);
  EXPECT_EQ(Value::boolean(true).getBool(), true);
  EXPECT_EQ(Value::integer(-7).getInt(), -7);
  EXPECT_DOUBLE_EQ(Value::floating(1.5).getFloat(), 1.5);
  EXPECT_EQ(Value::string("hi").getString(), "hi");
}

TEST(ValueTest, FromLiteral) {
  EXPECT_EQ(Value::fromLiteral(ConstantLit{int64_t{3}}).getInt(), 3);
  EXPECT_EQ(Value::fromLiteral(ConstantLit{std::monostate{}}).kind(),
            Value::Kind::Unit);
  EXPECT_EQ(Value::fromLiteral(ConstantLit{true}).getBool(), true);
}

TEST(ValueTest, ScalarEqualityAndOrder) {
  EXPECT_EQ(Value::integer(1), Value::integer(1));
  EXPECT_NE(Value::integer(1), Value::integer(2));
  EXPECT_NE(Value::integer(1), Value::floating(1.0)) << "kinds differ";
  EXPECT_LT(compareValues(Value::integer(1), Value::integer(2)), 0);
  EXPECT_GT(compareValues(Value::string("b"), Value::string("a")), 0);
  EXPECT_EQ(compareValues(Value::unit(), Value::unit()), 0);
}

TEST(ValueTest, ScalarRendering) {
  EXPECT_EQ(Value::unit().str(), "()");
  EXPECT_EQ(Value::boolean(false).str(), "false");
  EXPECT_EQ(Value::integer(42).str(), "42");
  EXPECT_EQ(Value::floating(2.5).str(), "2.5");
  EXPECT_EQ(Value::string("a\"b").str(), "\"a\\\"b\"");
}

namespace {

/// Builds a set through the destructive tier (unique handle + in-place
/// verdict: every update mutates nodes directly).
Value inPlaceSetOf(std::initializer_list<int64_t> Items) {
  Value S = Value::emptySet();
  for (int64_t I : Items) {
    SetCow C = S.setCow(true);
    C.add(Value::integer(I));
    S = std::move(C).finish();
  }
  return S;
}

/// Builds a set through the persistent tier (every update path-copies).
Value persistentSetOf(std::initializer_list<int64_t> Items) {
  Value S = Value::emptySet();
  for (int64_t I : Items) {
    SetCow C = S.setCow(false);
    C.add(Value::integer(I));
    S = std::move(C).finish();
  }
  return S;
}

} // namespace

TEST(ValueTest, AggregateEqualityAcrossUpdateTiers) {
  // The differential tests rely on tier-independent equality: a set
  // built destructively equals one built by path-copying updates.
  EXPECT_EQ(inPlaceSetOf({1, 2, 3}), persistentSetOf({3, 2, 1}));
  EXPECT_NE(inPlaceSetOf({1, 2}), persistentSetOf({1, 2, 3}));
  EXPECT_NE(inPlaceSetOf({1, 2}), persistentSetOf({1, 4}));
}

TEST(ValueTest, AggregateCanonicalRendering) {
  // Sorted element order regardless of hash iteration order and update
  // tier.
  EXPECT_EQ(inPlaceSetOf({10, 2, 35}).str(), "{2, 10, 35}");
  EXPECT_EQ(persistentSetOf({10, 2, 35}).str(), "{2, 10, 35}");
  EXPECT_EQ(inPlaceSetOf({}).str(), "{}");
}

TEST(ValueTest, MapRenderingAndEquality) {
  Value E1 = Value::emptyMap(), E2 = Value::emptyMap();
  MapCow M1 = E1.mapCow(true);
  M1.put(Value::integer(2), Value::string("b"));
  M1.put(Value::integer(1), Value::string("a"));
  Value A = std::move(M1).finish();

  MapCow M2 = E2.mapCow(false);
  M2.put(Value::integer(1), Value::string("a"));
  M2.put(Value::integer(2), Value::string("b"));
  Value B = std::move(M2).finish();

  EXPECT_EQ(A, B);
  EXPECT_EQ(A.str(), "{1 -> \"a\", 2 -> \"b\"}");
}

TEST(ValueTest, QueueRenderingKeepsOrder) {
  Value E1 = Value::emptyQueue(), E2 = Value::emptyQueue(),
        E3 = Value::emptyQueue();
  QueueCow Q = E1.queueCow(true);
  Q.enqueue(Value::integer(3));
  Q.enqueue(Value::integer(1));
  Q.enqueue(Value::integer(2));
  Value A = std::move(Q).finish();
  EXPECT_EQ(A.str(), "<3, 1, 2>");

  QueueCow P = E2.queueCow(false);
  P.enqueue(Value::integer(3));
  P.enqueue(Value::integer(1));
  P.enqueue(Value::integer(2));
  EXPECT_EQ(std::move(P).finish(), A);

  // Different order -> unequal.
  QueueCow Q2 = E3.queueCow(true);
  Q2.enqueue(Value::integer(1));
  Q2.enqueue(Value::integer(3));
  Q2.enqueue(Value::integer(2));
  EXPECT_NE(std::move(Q2).finish(), A);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(inPlaceSetOf({5, 6}).hash(), persistentSetOf({6, 5}).hash());
  EXPECT_EQ(Value::integer(9).hash(), Value::integer(9).hash());
  // Hash must distinguish kinds (no Int/Bool collisions by construction).
  EXPECT_NE(Value::integer(1).hash(), Value::boolean(true).hash());
}

TEST(ValueTest, CopySharesStructure) {
  // Copying a Value copies the root pointer, not the structure.
  Value A = inPlaceSetOf({1});
  Value B = A;
  EXPECT_EQ(A.aggregateIdentity(), B.aggregateIdentity());
}

TEST(ValueTest, SharedHandleForcesPathCopyEvenWithInPlaceVerdict) {
  // The destructive tier requires *both* the static verdict and dynamic
  // uniqueness. With the root shared (refcount 2), setCow(true) must
  // fall back to a detached root: the sharer is unaffected.
  Value A = inPlaceSetOf({1});
  Value B = A;
  SetCow C = B.setCow(true);
  C.add(Value::integer(2));
  Value B2 = std::move(C).finish();
  EXPECT_EQ(A.asSet().size(), 1u) << "sharer untouched";
  EXPECT_EQ(B2.asSet().size(), 2u);
  EXPECT_NE(A.aggregateIdentity(), B2.aggregateIdentity());
}

TEST(ValueTest, UniqueHandleWithInPlaceVerdictMutatesDestructively) {
  Value A = inPlaceSetOf({1});
  const void *Before = A.aggregateIdentity();
  SetCow C = A.setCow(true);
  C.add(Value::integer(2));
  Value A2 = std::move(C).finish();
  EXPECT_EQ(A2.aggregateIdentity(), Before) << "root reused in place";
  EXPECT_EQ(A2.asSet().size(), 2u);
  EXPECT_EQ(A.asSet().size(), 2u) << "the source value was updated";
}

TEST(ValueTest, PersistentVerdictAlwaysCopiesRoot) {
  // Without the static in-place verdict, even a dynamically unique
  // root must path-copy (the program may re-read the source slot).
  Value A = inPlaceSetOf({1});
  const void *Before = A.aggregateIdentity();
  SetCow C = A.setCow(false);
  C.add(Value::integer(2));
  Value A2 = std::move(C).finish();
  EXPECT_NE(A2.aggregateIdentity(), Before);
  EXPECT_EQ(A2.asSet().size(), 2u);
  EXPECT_EQ(A.asSet().size(), 1u);
}

TEST(ValueTest, InPlaceTierKeepsRootForMapsAndQueues) {
  Value M = Value::emptyMap();
  const void *MapRoot = M.aggregateIdentity();
  MapCow MC = M.mapCow(true);
  MC.put(Value::integer(1), Value::integer(2));
  MC.remove(Value::integer(1));
  EXPECT_EQ(std::move(MC).finish().aggregateIdentity(), MapRoot)
      << "emptying a unique root keeps it";

  Value Q = Value::emptyQueue();
  const void *QueueRoot = Q.aggregateIdentity();
  QueueCow QC = Q.queueCow(true);
  QC.enqueue(Value::integer(1));
  QC.dequeue();
  EXPECT_EQ(std::move(QC).finish().aggregateIdentity(), QueueRoot);

  // Without the verdict, even an update that changes nothing gets a
  // version of its own.
  Value S = Value::emptySet();
  SetCow SC = S.setCow(false);
  EXPECT_FALSE(SC.remove(Value::integer(7)));
  EXPECT_NE(std::move(SC).finish().aggregateIdentity(),
            S.aggregateIdentity());
}

TEST(ValueTest, ForEachAggregateNodeReportsTrieNodes) {
  Value S = Value::emptySet();
  for (int64_t I = 0; I != 200; ++I) {
    SetCow C = S.setCow(true);
    C.add(Value::integer(I));
    S = std::move(C).finish();
  }
  size_t Nodes = 0, Bytes = 0;
  bool SawRoot = false;
  S.forEachAggregateNode([&](const void *P, size_t B, uint32_t Owners) {
    EXPECT_NE(P, nullptr);
    EXPECT_GT(B, 0u);
    EXPECT_GE(Owners, 1u);
    SawRoot |= P == S.aggregateIdentity();
    ++Nodes;
    Bytes += B;
    return true;
  });
  EXPECT_TRUE(SawRoot) << "the walk starts at the root node";
  EXPECT_GE(Nodes, 2u) << "200 elements need more than the root";
  EXPECT_GT(Bytes, 200 * sizeof(Value));
  // Scalars have no aggregate structure.
  Value::integer(1).forEachAggregateNode(
      [](const void *, size_t, uint32_t) -> bool {
        ADD_FAILURE() << "scalar walked";
        return false;
      });
}

// --- The value space --------------------------------------------------------

namespace {

Value setFrom(const std::vector<Value> &Elems) {
  Value S = Value::emptySet();
  SetCow C = S.setCow(true);
  for (const Value &E : Elems)
    C.add(E);
  return std::move(C).finish();
}

Value mapFrom(const std::vector<std::pair<Value, Value>> &Entries) {
  Value M = Value::emptyMap();
  MapCow C = M.mapCow(true);
  for (const auto &[K, V] : Entries)
    C.put(K, V);
  return std::move(C).finish();
}

Value queueFrom(const std::vector<Value> &Elems) {
  Value Q = Value::emptyQueue();
  QueueCow C = Q.queueCow(true);
  for (const Value &E : Elems)
    C.enqueue(E);
  return std::move(C).finish();
}

template <typename T> std::vector<T> reversed(std::vector<T> V) {
  std::reverse(V.begin(), V.end());
  return V;
}

/// One aggregate built from the same contents in two insertion orders.
struct OrderPair {
  Value Forward, Backward;
};

/// Every kind, with nested aggregates: a set of maps, a queue of sets, a
/// map from String keys to Set values. Sets and maps come in both
/// insertion orders.
std::vector<OrderPair> valueSpace() {
  auto I = [](int64_t X) { return Value::integer(X); };
  auto F = [](double X) { return Value::floating(X); };
  auto S = [](const char *X) { return Value::string(X); };
  std::vector<OrderPair> Out;
  auto Scalar = [&Out](Value V) { Out.push_back({V, V}); };
  auto Set = [&Out](std::vector<Value> E) {
    Out.push_back({setFrom(E), setFrom(reversed(E))});
  };
  auto Map = [&Out](std::vector<std::pair<Value, Value>> E) {
    Out.push_back({mapFrom(E), mapFrom(reversed(E))});
  };
  Scalar(Value::unit());
  Scalar(Value::boolean(false));
  Scalar(Value::boolean(true));
  Scalar(I(-5));
  Scalar(I(0));
  Scalar(I(7));
  Scalar(F(0.0));
  Scalar(F(-0.0));
  Scalar(F(1.5));
  Scalar(F(-2.25));
  Scalar(S(""));
  Scalar(S("a"));
  Scalar(S("b"));
  Set({});
  Set({I(1), I(2), I(3)});
  Set({F(1.5), F(-0.0), F(7.25)});
  Set({S("x"), S("y")});
  Map({});
  Map({{I(1), S("one")}, {I(2), S("two")}});
  Scalar(queueFrom({}));
  Scalar(queueFrom({I(1), I(2)}));
  Scalar(queueFrom({I(2), I(1)}));
  // A set of maps.
  Value M1 = mapFrom({{I(1), F(1.5)}});
  Value M2 = mapFrom({{I(2), F(2.5)}, {I(3), F(-1.0)}});
  Set({M1, M2});
  Set({M1});
  // A queue of sets.
  Value S1 = setFrom({I(1), I(2)}), S2 = setFrom({S("z")});
  Scalar(queueFrom({S1, S2}));
  Scalar(queueFrom({S2, S1}));
  // A map with String keys and Set values.
  Map({{S("k1"), S1}, {S("k2"), S2}, {S("k3"), setFrom({})}});
  Map({{S("k1"), S2}});
  return Out;
}

} // namespace

TEST(ValueTest, ValueSpaceLaws) {
  std::vector<OrderPair> Space = valueSpace();
  std::vector<Value> All;
  for (const OrderPair &P : Space) {
    All.push_back(P.Forward);
    All.push_back(P.Backward);
  }
  for (const OrderPair &P : Space) {
    EXPECT_EQ(P.Forward, P.Backward) << P.Forward.str();
    EXPECT_EQ(P.Forward.str(), P.Backward.str())
        << "rendering depends on insertion order";
  }
  for (const Value &A : All) {
    for (const Value &B : All) {
      std::string Where = A.str() + " vs " + B.str();
      bool Equal = A == B;
      int AB = compareValues(A, B), BA = compareValues(B, A);
      EXPECT_EQ(Equal, B == A) << Where;
      if (Equal) {
        EXPECT_EQ(A.hash(), B.hash()) << Where;
      }
      EXPECT_EQ(AB == 0, Equal) << Where;
      EXPECT_EQ(AB < 0, BA > 0) << Where;
      EXPECT_EQ(AB > 0, BA < 0) << Where;
    }
  }
}

TEST(ValueTest, ValueSpaceCodecRoundTrip) {
  for (const OrderPair &P : valueSpace()) {
    for (const Value &V : {P.Forward, P.Backward}) {
      bc::ByteWriter W;
      bc::writeValue(W, V);
      bc::ByteReader R(W.data().data(), W.size());
      DiagnosticEngine Diags;
      bc::DecodeContext Ctx{Diags};
      Value Back = bc::readValue(R, Ctx);
      ASSERT_TRUE(Ctx.Ok) << Diags.str();
      EXPECT_EQ(R.remaining(), 0u) << V.str();
      EXPECT_EQ(Back.kind(), V.kind()) << V.str();
      EXPECT_EQ(Back, V) << V.str() << " came back as " << Back.str();
    }
  }
}
