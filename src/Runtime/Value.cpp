//===- Runtime/Value.cpp ----------------------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/Runtime/Value.h"

#include "tessla/Runtime/Containers.h"
#include "tessla/Support/Format.h"

#include <algorithm>
#include <cassert>

using namespace tessla;

Value::~Value() = default;

Value Value::fromLiteral(const ConstantLit &Lit) {
  struct Visitor {
    Value operator()(std::monostate) const { return Value::unit(); }
    Value operator()(bool B) const { return Value::boolean(B); }
    Value operator()(int64_t I) const { return Value::integer(I); }
    Value operator()(double D) const { return Value::floating(D); }
    Value operator()(const std::string &S) const {
      return Value::string(S);
    }
  };
  return std::visit(Visitor{}, Lit.V);
}

std::string_view tessla::valueKindName(Value::Kind K) {
  switch (K) {
  case Value::Kind::Unit:
    return "Unit";
  case Value::Kind::Bool:
    return "Bool";
  case Value::Kind::Int:
    return "Int";
  case Value::Kind::Float:
    return "Float";
  case Value::Kind::String:
    return "String";
  case Value::Kind::Set:
    return "Set";
  case Value::Kind::Map:
    return "Map";
  case Value::Kind::Queue:
    return "Queue";
  }
  return "?";
}

bool tessla::operator==(const Value &A, const Value &B) {
  if (A.kind() != B.kind())
    return false;
  // One root names one version: the same root means the same contents.
  if (A.isAggregate() && A.aggregateIdentity() == B.aggregateIdentity())
    return true;
  switch (A.kind()) {
  case Value::Kind::Unit:
    return true;
  case Value::Kind::Bool:
    return A.getBool() == B.getBool();
  case Value::Kind::Int:
    return A.getInt() == B.getInt();
  case Value::Kind::Float:
    return A.getFloat() == B.getFloat();
  case Value::Kind::String:
    return A.getString() == B.getString();
  case Value::Kind::Set: {
    SetView SA = A.asSet(), SB = B.asSet();
    if (SA.size() != SB.size())
      return false;
    for (const Value &V : SA.items())
      if (!SB.contains(V))
        return false;
    return true;
  }
  case Value::Kind::Map: {
    MapView MA = A.asMap(), MB = B.asMap();
    if (MA.size() != MB.size())
      return false;
    for (const auto &[K, V] : MA.items()) {
      const Value *Other = MB.find(K);
      if (!Other || !(*Other == V))
        return false;
    }
    return true;
  }
  case Value::Kind::Queue: {
    QueueView QA = A.asQueue(), QB = B.asQueue();
    if (QA.size() != QB.size())
      return false;
    return QA.items() == QB.items();
  }
  }
  return false;
}

/// Sorted canonical item lists give aggregates an order and a stable
/// rendering independent of hash iteration order.
static std::vector<Value> sortedItems(std::vector<Value> Items) {
  std::sort(Items.begin(), Items.end(), [](const Value &X, const Value &Y) {
    return compareValues(X, Y) < 0;
  });
  return Items;
}

int tessla::compareValues(const Value &A, const Value &B) {
  auto Rank = [](Value::Kind K) { return static_cast<int>(K); };
  if (A.kind() != B.kind())
    return Rank(A.kind()) < Rank(B.kind()) ? -1 : 1;
  auto Cmp3 = [](auto X, auto Y) { return X < Y ? -1 : (X == Y ? 0 : 1); };
  switch (A.kind()) {
  case Value::Kind::Unit:
    return 0;
  case Value::Kind::Bool:
    return Cmp3(A.getBool(), B.getBool());
  case Value::Kind::Int:
    return Cmp3(A.getInt(), B.getInt());
  case Value::Kind::Float:
    return Cmp3(A.getFloat(), B.getFloat());
  case Value::Kind::String:
    return A.getString().compare(B.getString()) < 0
               ? -1
               : (A.getString() == B.getString() ? 0 : 1);
  case Value::Kind::Set:
  case Value::Kind::Queue: {
    std::vector<Value> IA, IB;
    if (A.kind() == Value::Kind::Set) {
      IA = sortedItems(A.asSet().items());
      IB = sortedItems(B.asSet().items());
    } else {
      IA = A.asQueue().items();
      IB = B.asQueue().items();
    }
    for (size_t I = 0, E = std::min(IA.size(), IB.size()); I != E; ++I)
      if (int C = compareValues(IA[I], IB[I]))
        return C;
    return Cmp3(IA.size(), IB.size());
  }
  case Value::Kind::Map: {
    auto IA = A.asMap().items(), IB = B.asMap().items();
    auto ByKey = [](const std::pair<Value, Value> &X,
                    const std::pair<Value, Value> &Y) {
      return compareValues(X.first, Y.first) < 0;
    };
    std::sort(IA.begin(), IA.end(), ByKey);
    std::sort(IB.begin(), IB.end(), ByKey);
    for (size_t I = 0, E = std::min(IA.size(), IB.size()); I != E; ++I) {
      if (int C = compareValues(IA[I].first, IB[I].first))
        return C;
      if (int C = compareValues(IA[I].second, IB[I].second))
        return C;
    }
    return Cmp3(IA.size(), IB.size());
  }
  }
  return 0;
}

static size_t hashCombine(size_t Seed, size_t H) {
  return Seed ^ (H + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2));
}

size_t Value::hash() const {
  size_t KindSeed = static_cast<size_t>(kind()) * 0x9e3779b97f4a7c15ULL;
  switch (kind()) {
  case Kind::Unit:
    return KindSeed;
  case Kind::Bool:
    return hashCombine(KindSeed, getBool() ? 1 : 0);
  case Kind::Int:
    return hashCombine(KindSeed, std::hash<int64_t>{}(getInt()));
  case Kind::Float:
    return hashCombine(KindSeed, std::hash<double>{}(getFloat()));
  case Kind::String:
    return hashCombine(KindSeed, std::hash<std::string>{}(getString()));
  case Kind::Set: {
    // XOR: order-independent of the hash iteration order.
    size_t H = 0;
    asSet().forEach([&H](const Value &V) { H ^= V.hash(); });
    return hashCombine(KindSeed, H);
  }
  case Kind::Map: {
    size_t H = 0;
    asMap().forEach([&H](const Value &K, const Value &V) {
      H ^= hashCombine(K.hash(), V.hash());
    });
    return hashCombine(KindSeed, H);
  }
  case Kind::Queue: {
    size_t H = 0;
    asQueue().forEach(
        [&H](const Value &V) { H = hashCombine(H, V.hash()); });
    return hashCombine(KindSeed, H);
  }
  }
  return 0;
}

std::string Value::str() const {
  switch (kind()) {
  case Kind::Unit:
    return "()";
  case Kind::Bool:
    return getBool() ? "true" : "false";
  case Kind::Int:
    return std::to_string(getInt());
  case Kind::Float:
    return formatDouble(getFloat());
  case Kind::String:
    return "\"" + escapeString(getString()) + "\"";
  case Kind::Set: {
    std::vector<std::string> Parts;
    for (const Value &V : sortedItems(asSet().items()))
      Parts.push_back(V.str());
    return "{" + join(Parts, ", ") + "}";
  }
  case Kind::Map: {
    auto Items = asMap().items();
    std::sort(Items.begin(), Items.end(),
              [](const auto &X, const auto &Y) {
                return compareValues(X.first, Y.first) < 0;
              });
    std::vector<std::string> Parts;
    for (const auto &[K, V] : Items)
      Parts.push_back(K.str() + " -> " + V.str());
    return "{" + join(Parts, ", ") + "}";
  }
  case Kind::Queue: {
    std::vector<std::string> Parts;
    asQueue().forEach(
        [&Parts](const Value &V) { Parts.push_back(V.str()); });
    return "<" + join(Parts, ", ") + ">";
  }
  }
  return "?";
}
