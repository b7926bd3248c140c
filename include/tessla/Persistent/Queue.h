//===- tessla/Persistent/Queue.h - Persistent two-list queue ---*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent FIFO queue described in the paper's evaluation (§V-A):
/// "two lists, one is used for appending elements, the other one for
/// removing elements; if the list for removing elements runs empty the
/// other one is reverted". Enqueue is O(1); dequeue is amortized O(1) with
/// an O(n) reversal when the front list runs dry. The paper observes this
/// structure loses less against its mutable counterpart than the HAMT does
/// — the Queue Window speedups in Fig. 9 depend on exactly this design.
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_PERSISTENT_QUEUE_H
#define TESSLA_PERSISTENT_QUEUE_H

#include "tessla/Persistent/List.h"

namespace tessla {

/// Persistent FIFO queue. Copying is O(1). Each version has one root
/// node holding the two spines: the root names the version, and its
/// refcount decides whether a transient update (enqueueMut/dequeueMut)
/// may reuse it in place.
template <typename T> class PQueue {
  struct Root : RefCountedBase<Root> {
    PList<T> Front; // dequeue side
    PList<T> Back;  // enqueue side, stored reversed
  };

  RefCntPtr<Root> R; // null: an empty queue that never had a root

  /// The root, made uniquely owned first: reused when it already is,
  /// copied (spines shared) when another version holds it.
  Root &ownRoot() {
    if (!R.unique())
      R = R ? makeRefCnt<Root>(*R) : makeRefCnt<Root>();
    return *R;
  }

public:
  PQueue() = default;

  bool empty() const { return size() == 0; }
  size_t size() const { return R ? R->Front.size() + R->Back.size() : 0; }

  /// The root node: names this version (nullptr for a default-constructed
  /// queue).
  const void *root() const { return R.get(); }

  /// True when no other queue holds this root (see HamtMap).
  bool uniquelyOwned() const { return R.unique(); }

  /// An equal queue with a fresh root node (spines shared). O(1).
  PQueue detached() const {
    PQueue Q;
    Q.R = R ? makeRefCnt<Root>(*R) : makeRefCnt<Root>();
    return Q;
  }

  /// Transient enqueue: appends \p Value to this queue, reusing the root
  /// when it is uniquely owned. Other queues are never affected. O(1).
  void enqueueMut(T Value) {
    Root &M = ownRoot();
    M.Back = M.Back.cons(std::move(Value));
  }

  /// Transient dequeue with the same discipline. Precondition: !empty().
  /// Amortized O(1): when Front runs empty, Back is reversed once.
  void dequeueMut() {
    assert(!empty() && "dequeue of empty queue");
    Root &M = ownRoot();
    if (M.Front.empty()) {
      M.Front = M.Back.reverse();
      M.Back = PList<T>();
    }
    M.Front = M.Front.tail();
  }

  /// Returns a new queue with \p Value appended at the back. O(1).
  PQueue enqueue(T Value) const {
    PQueue Q = detached();
    Q.enqueueMut(std::move(Value));
    return Q;
  }

  /// Returns the queue without its oldest element. Precondition: !empty().
  PQueue dequeue() const {
    PQueue Q = detached();
    Q.dequeueMut();
    return Q;
  }

  /// Oldest element. Precondition: !empty(). O(n) worst case when the
  /// front list is empty (peek must look at the bottom of Back).
  const T &front() const {
    assert(!empty() && "front of empty queue");
    if (!R->Front.empty())
      return R->Front.head();
    // Reach the last element of Back (== first enqueued).
    PList<T> Cur = R->Back;
    while (!Cur.tail().empty())
      Cur = Cur.tail();
    return Cur.head();
  }

  /// Calls \p Fn on each element oldest-to-newest.
  template <typename Fn> void forEach(Fn &&Callback) const {
    if (!R)
      return;
    R->Front.forEach(Callback);
    R->Back.reverse().forEach(Callback);
  }

  /// Walks the root and both spines' nodes for memory accounting (see
  /// PList); a false return for the root skips the spines.
  template <typename Fn> void forEachNode(Fn &&Callback) const {
    if (!R || !Callback(static_cast<const void *>(R.get()), sizeof(Root),
                        static_cast<uint32_t>(R->useCount())))
      return;
    R->Front.forEachNode(Callback);
    R->Back.forEachNode(Callback);
  }

  /// Element-wise equality in queue order. O(n).
  friend bool operator==(const PQueue &A, const PQueue &B) {
    if (A.size() != B.size())
      return false;
    PQueue X = A, Y = B;
    while (!X.empty()) {
      if (!(X.front() == Y.front()))
        return false;
      X = X.dequeue();
      Y = Y.dequeue();
    }
    return true;
  }
};

} // namespace tessla

#endif // TESSLA_PERSISTENT_QUEUE_H
