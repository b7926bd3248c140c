//===- tessla/Runtime/Value.h - Runtime stream values ----------*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic value carried by one stream event: a scalar (unit, bool,
/// int, float, string) or an aggregate (set, map, queue). An aggregate
/// value holds its persistent structure (HAMT / banker's queue) directly,
/// so values pass between streams in O(1) and the structure's refcounted
/// root node is the one ownership layer. Reads go through immutable views
/// (asSet/asMap/asQueue) and updates through copy-on-write mutation
/// handles (setCow/mapCow/queueCow) that apply the aggregate update
/// analysis's in-place verdict as a destructive fast tier over the same
/// representation — see Runtime/Containers.h.
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_RUNTIME_VALUE_H
#define TESSLA_RUNTIME_VALUE_H

#include "tessla/Lang/Spec.h"
#include "tessla/Persistent/HAMT.h"
#include "tessla/Persistent/Queue.h"

#include <cstdint>
#include <functional>
#include <string>
#include <variant>

namespace tessla {

struct ValueHash;
class SetView;
class MapView;
class QueueView;
class SetCow;
class MapCow;
class QueueCow;

/// Runtime value. Cheap to copy (scalars by value, aggregates by root).
class Value {
public:
  enum class Kind : uint8_t { Unit, Bool, Int, Float, String, Set, Map,
                              Queue };

  /// The aggregate representations. Every aggregate value has a root
  /// node: it names the version (aggregateIdentity) and its refcount is
  /// the uniqueness test of the in-place tier.
  using SetRep = HamtSet<Value, ValueHash>;
  using MapRep = HamtMap<Value, Value, ValueHash>;
  using QueueRep = PQueue<Value>;

  /// Defaults to the unit value.
  Value() = default;
  ~Value();
  Value(const Value &) = default;
  Value(Value &&) noexcept = default;
  Value &operator=(const Value &) = default;
  Value &operator=(Value &&) noexcept = default;

  static Value unit() { return Value(); }
  static Value boolean(bool B) { return Value(Payload(B)); }
  static Value integer(int64_t I) { return Value(Payload(I)); }
  static Value floating(double D) { return Value(Payload(D)); }
  static Value string(std::string S) { return Value(Payload(std::move(S))); }

  /// Builds a value from a specification literal.
  static Value fromLiteral(const ConstantLit &Lit);

  Kind kind() const { return static_cast<Kind>(V.index()); }
  bool isAggregate() const {
    return kind() == Kind::Set || kind() == Kind::Map ||
           kind() == Kind::Queue;
  }

  bool getBool() const { return std::get<bool>(V); }
  int64_t getInt() const { return std::get<int64_t>(V); }
  double getFloat() const { return std::get<double>(V); }
  const std::string &getString() const { return std::get<std::string>(V); }

  /// Fresh empty aggregates, each with its own root node.
  static Value emptySet();
  static Value emptyMap();
  static Value emptyQueue();

  /// Immutable views onto aggregates (Runtime/Containers.h) — the only
  /// way to read one. Precondition: matching kind(). The view is valid
  /// while this value (or a copy of it) lives.
  SetView asSet() const;
  MapView asMap() const;
  QueueView asQueue() const;

  /// Copy-on-write mutation handles. \p InPlace is the mutability
  /// analysis's verdict for the updated stream family: when it proved
  /// exclusivity and this value's root node is uniquely owned, the handle
  /// updates this value's structure destructively (the paper's in-place
  /// regime); otherwise it starts from a detached copy of the root that
  /// shares every other node and every update path-copies — all other
  /// sharers are unaffected. An in-place handle refers to this value, so
  /// it must not outlive it (hence no handles on temporaries).
  /// Precondition: matching kind().
  SetCow setCow(bool InPlace) const &;
  MapCow mapCow(bool InPlace) const &;
  QueueCow queueCow(bool InPlace) const &;
  SetCow setCow(bool InPlace) const && = delete;
  MapCow mapCow(bool InPlace) const && = delete;
  QueueCow queueCow(bool InPlace) const && = delete;

  /// The root node of an aggregate (nullptr for scalars): names exactly
  /// one version of one kind, for structural-sharing detection
  /// (serialization dedup, equality fast paths, memory accounting).
  const void *aggregateIdentity() const;

  /// Memory-accounting walk: reports every persistent node of an
  /// aggregate (trie nodes; queue root and list nodes) as (pointer,
  /// resident bytes, refcount); the callback returns true to descend,
  /// false to skip a subtree it has already visited through another
  /// root. Top-level structure only — aggregates nested inside elements
  /// are not walked. No-op for scalars.
  void forEachAggregateNode(
      const std::function<bool(const void *, size_t, uint32_t)> &Callback)
      const;

  /// Deep structural equality (aggregates compared element-wise,
  /// independent of representation).
  friend bool operator==(const Value &A, const Value &B);
  friend bool operator!=(const Value &A, const Value &B) {
    return !(A == B);
  }

  /// Total order across all values: by kind, then by content. Gives
  /// aggregates a canonical (sorted) rendering so optimized and baseline
  /// monitors print byte-identical traces.
  friend int compareValues(const Value &A, const Value &B);

  /// Deep hash consistent with operator==.
  size_t hash() const;

  /// Canonical rendering: 42, 1.5, true, "s", (), {1, 2}, {1 -> 2},
  /// <1, 2, 3> (queue front first).
  std::string str() const;

private:
  friend class SetCow;
  friend class MapCow;
  friend class QueueCow;

  using Payload = std::variant<std::monostate, bool, int64_t, double,
                               std::string, SetRep, MapRep, QueueRep>;

  explicit Value(Payload P) : V(std::move(P)) {}

  Payload V;
};

/// Deep structural equality across representations.
bool operator==(const Value &A, const Value &B);
/// Total order over values (see the friend declaration above).
int compareValues(const Value &A, const Value &B);

/// Hash functor for containers of Values.
struct ValueHash {
  size_t operator()(const Value &V) const { return V.hash(); }
};

/// Human-readable kind name ("Int", "Set", ...).
std::string_view valueKindName(Value::Kind K);

} // namespace tessla

#endif // TESSLA_RUNTIME_VALUE_H
