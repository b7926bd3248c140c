//===- tessla/Runtime/Containers.h - Aggregate views and COW ---*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two faces through which the runtime touches an aggregate Value's
/// persistent structure (HAMT / banker's queue, held by the value itself):
///
///  - views (SetView/MapView/QueueView): immutable, read-only windows onto
///    the structure — the only way to inspect an aggregate.
///  - COW handles (SetCow/MapCow/QueueCow): single-use mutation handles
///    obtained from Value::setCow()/mapCow()/queueCow(). The paper's two
///    update regimes are two tiers of the one representation. When the
///    mutability analysis proved exclusivity (InPlace) *and* the value's
///    root node is uniquely owned, the handle updates the value's own
///    structure and the transient ops mutate uniquely-owned nodes
///    destructively, keeping the root (and so the value's identity).
///    Otherwise the handle starts from a detached copy of the root (one
///    node copied, every child shared) and every update path-copies the
///    O(log32 n) spine below it, leaving all sharers untouched.
///
/// Dynamic uniqueness alone is not a licence to mutate: a program can
/// re-read a slot after deriving two values from it (s2 = setAdd(s1, x);
/// s3 = setAdd(s1, y)), and at the first update the s1 root is uniquely
/// owned, yet s1 must survive. The caller supplies the missing half: the
/// interpreter (Runtime/Monitor.cpp) passes InPlace only for an argument
/// it consumed, one moved out of its slot at the slot's last read in the
/// calculation (Program::slotPlan()), so whoever else still needs the
/// version holds a handle and the refcount sees it. Under that rule a
/// wrong static verdict costs time but cannot change values.
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_RUNTIME_CONTAINERS_H
#define TESSLA_RUNTIME_CONTAINERS_H

#include "tessla/Runtime/Value.h"

#include <utility>
#include <vector>

namespace tessla {

// --- Views ----------------------------------------------------------------

/// Read-only window onto a set. Valid while the Value it came from is
/// alive and not destructively updated.
class SetView {
public:
  explicit SetView(const Value::SetRep &S) : S(&S) {}

  size_t size() const { return S->size(); }
  bool empty() const { return S->empty(); }
  bool contains(const Value &V) const { return S->contains(V); }
  /// Elements in unspecified order.
  std::vector<Value> items() const { return S->items(); }
  template <typename Fn> void forEach(Fn &&Callback) const {
    S->forEach(std::forward<Fn>(Callback));
  }

private:
  const Value::SetRep *S;
};

/// Read-only window onto a map.
class MapView {
public:
  explicit MapView(const Value::MapRep &M) : M(&M) {}

  size_t size() const { return M->size(); }
  bool empty() const { return M->empty(); }
  bool contains(const Value &Key) const { return M->contains(Key); }
  /// nullptr if absent. The pointer is invalidated by any update.
  const Value *find(const Value &Key) const { return M->find(Key); }
  /// Entries in unspecified order.
  std::vector<std::pair<Value, Value>> items() const { return M->items(); }
  template <typename Fn> void forEach(Fn &&Callback) const {
    M->forEach(std::forward<Fn>(Callback));
  }

private:
  const Value::MapRep *M;
};

/// Read-only window onto a queue.
class QueueView {
public:
  explicit QueueView(const Value::QueueRep &Q) : Q(&Q) {}

  size_t size() const { return Q->size(); }
  bool empty() const { return Q->empty(); }
  /// Oldest element. Precondition: !empty().
  const Value &front() const { return Q->front(); }
  /// Elements front (oldest) first.
  std::vector<Value> items() const {
    std::vector<Value> Out;
    Out.reserve(Q->size());
    Q->forEach([&Out](const Value &V) { Out.push_back(V); });
    return Out;
  }
  template <typename Fn> void forEach(Fn &&Callback) const {
    Q->forEach(std::forward<Fn>(Callback));
  }

private:
  const Value::QueueRep *Q;
};

// --- COW mutation handles -------------------------------------------------

/// The structure a mutation handle updates: the source value's own (in
/// place) or a detached copy of it (see the file comment).
template <typename Rep> class CowTarget {
protected:
  CowTarget(const Rep &Source, bool InPlace)
      : Shared(InPlace && Source.uniquelyOwned() ? const_cast<Rep *>(&Source)
                                                 : nullptr),
        Copy(Shared ? Rep() : Source.detached()) {}

  Rep &rep() { return Shared ? *Shared : Copy; }
  const Rep &rep() const { return Shared ? *Shared : Copy; }
  /// The updated structure; the handle is spent.
  Rep take() { return Shared ? *Shared : std::move(Copy); }

private:
  Rep *Shared;
  Rep Copy;
};

/// Single-use mutation handle for a set. Obtain via Value::setCow();
/// consume with std::move(handle).finish().
class SetCow : CowTarget<Value::SetRep> {
public:
  void add(Value V) { rep().insertMut(std::move(V)); }
  /// Returns true when the element was present.
  bool remove(const Value &V) { return rep().eraseMut(V); }

  /// The resulting value; the handle is spent.
  Value finish() && { return Value(Value::Payload(take())); }

private:
  friend class Value;
  SetCow(const Value::SetRep &Source, bool InPlace)
      : CowTarget(Source, InPlace) {}
};

/// Single-use mutation handle for a map.
class MapCow : CowTarget<Value::MapRep> {
public:
  void put(Value Key, Value Val) {
    rep().setMut(std::move(Key), std::move(Val));
  }
  /// Returns true when the key was present.
  bool remove(const Value &Key) { return rep().eraseMut(Key); }

  Value finish() && { return Value(Value::Payload(take())); }

private:
  friend class Value;
  MapCow(const Value::MapRep &Source, bool InPlace)
      : CowTarget(Source, InPlace) {}
};

/// Single-use mutation handle for a queue. The banker's queue is O(1) per
/// operation in both tiers; in place the handle reuses the root, so the
/// value keeps its identity and skips the root copy.
class QueueCow : CowTarget<Value::QueueRep> {
public:
  void enqueue(Value V) { rep().enqueueMut(std::move(V)); }
  /// Drops the oldest element. Precondition: !empty().
  void dequeue() { rep().dequeueMut(); }
  size_t size() const { return rep().size(); }

  Value finish() && { return Value(Value::Payload(take())); }

private:
  friend class Value;
  QueueCow(const Value::QueueRep &Source, bool InPlace)
      : CowTarget(Source, InPlace) {}
};

} // namespace tessla

#endif // TESSLA_RUNTIME_CONTAINERS_H
