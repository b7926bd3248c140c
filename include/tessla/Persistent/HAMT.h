//===- tessla/Persistent/HAMT.h - Hash-array mapped trie -------*- C++ -*-===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Persistent hash map/set as a bitmap-compressed hash-array mapped trie
/// (HAMT), following Bagwell's "Ideal Hash Trees" and the compaction rules
/// of Steindorfer & Vinju's CHAMP — the paper's references [24] and [25],
/// and the structure behind Scala's immutable HashSet/HashMap that the
/// paper's baseline monitors use.
///
/// Updates copy the O(log32 n) path from the root and share everything
/// else; old versions remain valid and unchanged. This "restructuring
/// after a modification" is precisely the overhead the aggregate-update
/// optimization removes for mutable variables (§V-A).
///
//===----------------------------------------------------------------------===//

#ifndef TESSLA_PERSISTENT_HAMT_H
#define TESSLA_PERSISTENT_HAMT_H

#include "tessla/ADT/RefCntPtr.h"

#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
#include <variant>
#include <vector>

// GCC's -Wmaybe-uninitialized mis-fires on std::vector::insert of variant
// entries holding RefCntPtr alternatives (the element-shifting moves read
// "uninitialized" freshly-grown slots). The code is sound; silence the
// false positive for this header.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace tessla {

/// Persistent hash map with structural sharing. Copying is O(1).
///
/// \tparam K key type (copyable, hashable via \p Hash, comparable via \p Eq)
/// \tparam V mapped type (copyable)
template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class HamtMap {
  static constexpr unsigned BitsPerLevel = 5;
  static constexpr uint64_t LevelMask = 31;
  // With a 64-bit hash, shifts 0,5,...,60 are usable; below that, equal
  // hashes collide into a collision node.
  static constexpr unsigned MaxShift = 60;

  struct Node;

  struct Leaf {
    K Key;
    V Val;
  };

  // An entry of a bitmap node: inline key/value pair or a subtree.
  using Entry = std::variant<Leaf, RefCntPtr<Node>>;

  struct Node : RefCountedBase<Node> {
    // Bitmap nodes: Bitmap has one bit per occupied branch and Entries is
    // popcount(Bitmap) long. Collision nodes: Bitmap == 0, Collision true,
    // all Entries are leaves whose keys share CollisionHash.
    uint32_t Bitmap = 0;
    bool Collision = false;
    uint64_t CollisionHash = 0;
    std::vector<Entry> Entries;
  };

  using NodePtr = RefCntPtr<Node>;

  NodePtr Root;
  size_t Count = 0;

  HamtMap(NodePtr Root, size_t Count) : Root(std::move(Root)), Count(Count) {}

  static uint32_t bitpos(uint64_t HashValue, unsigned Shift) {
    return uint32_t{1} << ((HashValue >> Shift) & LevelMask);
  }
  static unsigned sparseIndex(uint32_t Bitmap, uint32_t Bit) {
    return std::popcount(Bitmap & (Bit - 1));
  }

  static NodePtr singleLeafNode(Leaf L, uint64_t HashValue, unsigned Shift) {
    NodePtr N = makeRefCnt<Node>();
    N->Bitmap = bitpos(HashValue, Shift);
    N->Entries.push_back(std::move(L));
    return N;
  }

  /// Builds the smallest subtree containing two distinct keys.
  static NodePtr mergeLeaves(Leaf A, uint64_t HashA, Leaf B, uint64_t HashB,
                             unsigned Shift) {
    if (Shift > MaxShift || HashA == HashB) {
      assert(HashA == HashB && "hash fragments exhausted before full hash");
      NodePtr N = makeRefCnt<Node>();
      N->Collision = true;
      N->CollisionHash = HashA;
      N->Entries.push_back(std::move(A));
      N->Entries.push_back(std::move(B));
      return N;
    }
    uint32_t BitA = bitpos(HashA, Shift), BitB = bitpos(HashB, Shift);
    NodePtr N = makeRefCnt<Node>();
    if (BitA == BitB) {
      N->Bitmap = BitA;
      N->Entries.push_back(mergeLeaves(std::move(A), HashA, std::move(B),
                                       HashB, Shift + BitsPerLevel));
      return N;
    }
    N->Bitmap = BitA | BitB;
    if (BitA < BitB) {
      N->Entries.push_back(std::move(A));
      N->Entries.push_back(std::move(B));
    } else {
      N->Entries.push_back(std::move(B));
      N->Entries.push_back(std::move(A));
    }
    return N;
  }

  const V *findImpl(const Node *N, uint64_t HashValue, unsigned Shift,
                    const K &Key) const {
    while (N) {
      if (N->Collision) {
        if (N->CollisionHash != HashValue)
          return nullptr;
        for (const Entry &E : N->Entries) {
          const Leaf &L = std::get<Leaf>(E);
          if (Eq{}(L.Key, Key))
            return &L.Val;
        }
        return nullptr;
      }
      uint32_t Bit = bitpos(HashValue, Shift);
      if (!(N->Bitmap & Bit))
        return nullptr;
      const Entry &E = N->Entries[sparseIndex(N->Bitmap, Bit)];
      if (const Leaf *L = std::get_if<Leaf>(&E))
        return Eq{}(L->Key, Key) ? &L->Val : nullptr;
      N = std::get<NodePtr>(E).get();
      Shift += BitsPerLevel;
    }
    return nullptr;
  }

  // Returns the new subtree; sets Added=true when the key was new.
  static NodePtr insertImpl(const Node *N, uint64_t HashValue, unsigned Shift,
                            Leaf NewLeaf, bool &Added) {
    if (!N) {
      Added = true;
      return singleLeafNode(std::move(NewLeaf), HashValue, Shift);
    }
    if (N->Collision) {
      if (N->CollisionHash == HashValue) {
        NodePtr Copy = makeRefCnt<Node>(*N);
        for (Entry &E : Copy->Entries) {
          Leaf &L = std::get<Leaf>(E);
          if (Eq{}(L.Key, NewLeaf.Key)) {
            L.Val = std::move(NewLeaf.Val);
            Added = false;
            return Copy;
          }
        }
        Copy->Entries.push_back(std::move(NewLeaf));
        Added = true;
        return Copy;
      }
      // Hashes differ: split by pushing the collision node one level down.
      // (Can only happen when Shift <= MaxShift, since equal 64-bit hashes
      // are required to reach a collision node below MaxShift.)
      NodePtr Parent = makeRefCnt<Node>();
      Parent->Bitmap = bitpos(N->CollisionHash, Shift);
      Parent->Entries.push_back(NodePtr(const_cast<Node *>(N)));
      return insertImpl(Parent.get(), HashValue, Shift, std::move(NewLeaf),
                        Added);
    }
    uint32_t Bit = bitpos(HashValue, Shift);
    unsigned Idx = sparseIndex(N->Bitmap, Bit);
    NodePtr Copy = makeRefCnt<Node>(*N);
    if (!(N->Bitmap & Bit)) {
      Copy->Bitmap |= Bit;
      Copy->Entries.insert(Copy->Entries.begin() + Idx, std::move(NewLeaf));
      Added = true;
      return Copy;
    }
    Entry &E = Copy->Entries[Idx];
    if (Leaf *L = std::get_if<Leaf>(&E)) {
      if (Eq{}(L->Key, NewLeaf.Key)) {
        L->Val = std::move(NewLeaf.Val);
        Added = false;
        return Copy;
      }
      // Move the existing leaf out before overwriting the variant slot it
      // lives in.
      Leaf Existing = std::move(*L);
      uint64_t ExistingHash = Hash{}(Existing.Key);
      E = mergeLeaves(std::move(Existing), ExistingHash, std::move(NewLeaf),
                      HashValue, Shift + BitsPerLevel);
      Added = true;
      return Copy;
    }
    E = insertImpl(std::get<NodePtr>(E).get(), HashValue,
                   Shift + BitsPerLevel, std::move(NewLeaf), Added);
    return Copy;
  }

  // Result of a recursive erase: unchanged, removed-with-new-subtree,
  // removed-and-collapsed-to-single-leaf, or removed-and-now-empty.
  struct EraseResult {
    bool Removed = false;
    bool IsLeaf = false;
    bool Empty = false;
    NodePtr N;
    Leaf L{};
  };

  static EraseResult eraseImpl(const Node *N, uint64_t HashValue,
                               unsigned Shift, const K &Key) {
    EraseResult R;
    if (!N)
      return R;
    if (N->Collision) {
      if (N->CollisionHash != HashValue)
        return R;
      for (size_t I = 0, E = N->Entries.size(); I != E; ++I) {
        const Leaf &L = std::get<Leaf>(N->Entries[I]);
        if (!Eq{}(L.Key, Key))
          continue;
        R.Removed = true;
        if (N->Entries.size() == 2) {
          // Lift the surviving leaf into the parent.
          R.IsLeaf = true;
          R.L = std::get<Leaf>(N->Entries[I ^ 1]);
          return R;
        }
        NodePtr Copy = makeRefCnt<Node>(*N);
        Copy->Entries.erase(Copy->Entries.begin() + I);
        R.N = std::move(Copy);
        return R;
      }
      return R;
    }
    uint32_t Bit = bitpos(HashValue, Shift);
    if (!(N->Bitmap & Bit))
      return R;
    unsigned Idx = sparseIndex(N->Bitmap, Bit);
    const Entry &E = N->Entries[Idx];
    if (const Leaf *L = std::get_if<Leaf>(&E)) {
      if (!Eq{}(L->Key, Key))
        return R;
      R.Removed = true;
      if (N->Entries.size() == 1) {
        R.Empty = true;
        return R;
      }
      if (N->Entries.size() == 2 && Shift > 0) {
        // If the sibling is a leaf, collapse this node into it.
        if (const Leaf *Sibling =
                std::get_if<Leaf>(&N->Entries[Idx ^ 1])) {
          R.IsLeaf = true;
          R.L = *Sibling;
          return R;
        }
      }
      NodePtr Copy = makeRefCnt<Node>(*N);
      Copy->Bitmap &= ~Bit;
      Copy->Entries.erase(Copy->Entries.begin() + Idx);
      R.N = std::move(Copy);
      return R;
    }
    EraseResult Sub = eraseImpl(std::get<NodePtr>(E).get(), HashValue,
                                Shift + BitsPerLevel, Key);
    if (!Sub.Removed)
      return R;
    R.Removed = true;
    NodePtr Copy = makeRefCnt<Node>(*N);
    if (Sub.IsLeaf) {
      if (N->Entries.size() == 1 && Shift > 0) {
        // Propagate the lone leaf further up.
        R.IsLeaf = true;
        R.L = std::move(Sub.L);
        return R;
      }
      Copy->Entries[Idx] = std::move(Sub.L);
    } else {
      assert(!Sub.Empty && "child erase cannot empty a subtree");
      Copy->Entries[Idx] = std::move(Sub.N);
    }
    R.N = std::move(Copy);
    return R;
  }

  template <typename Fn> static void forEachImpl(const Node *N, Fn &Callback) {
    if (!N)
      return;
    for (const Entry &E : N->Entries) {
      if (const Leaf *L = std::get_if<Leaf>(&E))
        Callback(L->Key, L->Val);
      else
        forEachImpl(std::get<NodePtr>(E).get(), Callback);
    }
  }

  // Transient insert: mutates uniquely-owned nodes in place and falls back
  // to the persistent path-copy (insertImpl) the moment a shared node is
  // reached. Taking \p N by value preserves the caller's reference while
  // the uniqueness check runs; copied nodes retain their children, so a
  // subtree reachable from any other root can never be mutated.
  static NodePtr insertMutImpl(NodePtr N, uint64_t HashValue, unsigned Shift,
                               Leaf NewLeaf, bool &Added) {
    if (!N) {
      Added = true;
      return singleLeafNode(std::move(NewLeaf), HashValue, Shift);
    }
    if (!N.unique())
      return insertImpl(N.get(), HashValue, Shift, std::move(NewLeaf), Added);
    Node *M = N.get();
    if (M->Collision) {
      if (M->CollisionHash == HashValue) {
        for (Entry &E : M->Entries) {
          Leaf &L = std::get<Leaf>(E);
          if (Eq{}(L.Key, NewLeaf.Key)) {
            L.Val = std::move(NewLeaf.Val);
            Added = false;
            return N;
          }
        }
        M->Entries.push_back(std::move(NewLeaf));
        Added = true;
        return N;
      }
      NodePtr Parent = makeRefCnt<Node>();
      Parent->Bitmap = bitpos(M->CollisionHash, Shift);
      Parent->Entries.push_back(std::move(N));
      return insertMutImpl(std::move(Parent), HashValue, Shift,
                           std::move(NewLeaf), Added);
    }
    uint32_t Bit = bitpos(HashValue, Shift);
    unsigned Idx = sparseIndex(M->Bitmap, Bit);
    if (!(M->Bitmap & Bit)) {
      M->Bitmap |= Bit;
      M->Entries.insert(M->Entries.begin() + Idx, std::move(NewLeaf));
      Added = true;
      return N;
    }
    Entry &E = M->Entries[Idx];
    if (Leaf *L = std::get_if<Leaf>(&E)) {
      if (Eq{}(L->Key, NewLeaf.Key)) {
        L->Val = std::move(NewLeaf.Val);
        Added = false;
        return N;
      }
      Leaf Existing = std::move(*L);
      uint64_t ExistingHash = Hash{}(Existing.Key);
      E = mergeLeaves(std::move(Existing), ExistingHash, std::move(NewLeaf),
                      HashValue, Shift + BitsPerLevel);
      Added = true;
      return N;
    }
    NodePtr Child = std::move(std::get<NodePtr>(E));
    E = insertMutImpl(std::move(Child), HashValue, Shift + BitsPerLevel,
                      std::move(NewLeaf), Added);
    return N;
  }

  // Transient erase. \p Slot is the owning reference being erased through:
  // on a plain removal the new subtree is installed into it (in place when
  // uniquely owned, path-copied otherwise); collapse results (IsLeaf,
  // Empty) are reported to the caller exactly like eraseImpl, leaving the
  // caller to replace its entry.
  static EraseResult eraseMutImpl(NodePtr &Slot, uint64_t HashValue,
                                  unsigned Shift, const K &Key) {
    EraseResult R;
    Node *N = Slot.get();
    if (!N)
      return R;
    if (!Slot.unique()) {
      EraseResult S = eraseImpl(N, HashValue, Shift, Key);
      if (S.Removed && !S.IsLeaf && !S.Empty)
        Slot = std::move(S.N);
      R.Removed = S.Removed;
      R.IsLeaf = S.IsLeaf;
      R.Empty = S.Empty;
      R.L = std::move(S.L);
      return R;
    }
    if (N->Collision) {
      if (N->CollisionHash != HashValue)
        return R;
      for (size_t I = 0, E = N->Entries.size(); I != E; ++I) {
        const Leaf &L = std::get<Leaf>(N->Entries[I]);
        if (!Eq{}(L.Key, Key))
          continue;
        R.Removed = true;
        if (N->Entries.size() == 2) {
          R.IsLeaf = true;
          R.L = std::move(std::get<Leaf>(N->Entries[I ^ 1]));
          return R;
        }
        N->Entries.erase(N->Entries.begin() + I);
        return R;
      }
      return R;
    }
    uint32_t Bit = bitpos(HashValue, Shift);
    if (!(N->Bitmap & Bit))
      return R;
    unsigned Idx = sparseIndex(N->Bitmap, Bit);
    Entry &E = N->Entries[Idx];
    if (Leaf *L = std::get_if<Leaf>(&E)) {
      if (!Eq{}(L->Key, Key))
        return R;
      R.Removed = true;
      // Emptying a uniquely-owned root keeps the node (see eraseMut).
      if (N->Entries.size() == 1 && Shift > 0) {
        R.Empty = true;
        return R;
      }
      if (N->Entries.size() == 2 && Shift > 0) {
        if (Leaf *Sibling = std::get_if<Leaf>(&N->Entries[Idx ^ 1])) {
          R.IsLeaf = true;
          R.L = std::move(*Sibling);
          return R;
        }
      }
      N->Bitmap &= ~Bit;
      N->Entries.erase(N->Entries.begin() + Idx);
      return R;
    }
    NodePtr &Child = std::get<NodePtr>(E);
    EraseResult Sub = eraseMutImpl(Child, HashValue, Shift + BitsPerLevel,
                                   Key);
    if (!Sub.Removed)
      return R;
    R.Removed = true;
    assert(!Sub.Empty && "child erase cannot empty a subtree");
    if (Sub.IsLeaf) {
      if (N->Entries.size() == 1 && Shift > 0) {
        R.IsLeaf = true;
        R.L = std::move(Sub.L);
        return R;
      }
      E = std::move(Sub.L);
    }
    return R;
  }

  // Node walk for memory accounting. Callback(node pointer, resident
  // bytes, refcount) returns true to descend into the node's children —
  // returning false lets a cross-value walker skip subtrees it has
  // already visited through another root.
  template <typename Fn>
  static void forEachNodeImpl(const Node *N, Fn &Callback) {
    if (!N)
      return;
    if (!Callback(static_cast<const void *>(N),
                  sizeof(Node) + N->Entries.capacity() * sizeof(Entry),
                  static_cast<uint32_t>(N->useCount())))
      return;
    for (const Entry &E : N->Entries)
      if (const NodePtr *C = std::get_if<NodePtr>(&E))
        forEachNodeImpl(C->get(), Callback);
  }

public:
  /// The empty map.
  HamtMap() = default;

  bool empty() const { return Count == 0; }
  size_t size() const { return Count; }

  /// The root node: names this version (nullptr only for a map built by
  /// the default constructor or a persistent erase that emptied it).
  const void *root() const { return Root.get(); }

  /// True when no other map holds this root, so a transient update
  /// reuses it and the map keeps its root identity.
  bool uniquelyOwned() const { return Root.unique(); }

  /// An equal map with a fresh copy of the root node (an empty root when
  /// there is none); every other node stays shared. The copy is uniquely
  /// owned, so transient updates on it path-copy below the root and never
  /// touch this map. O(32).
  HamtMap detached() const {
    return HamtMap(Root ? makeRefCnt<Node>(*Root) : makeRefCnt<Node>(),
                   Count);
  }

  /// Pointer to the value mapped to \p Key, or nullptr. O(log32 n).
  const V *find(const K &Key) const {
    return findImpl(Root.get(), Hash{}(Key), 0, Key);
  }

  bool contains(const K &Key) const { return find(Key) != nullptr; }

  /// Returns a map where \p Key maps to \p Value (inserted or replaced).
  /// This map is unchanged. O(log32 n) copied nodes.
  HamtMap set(K Key, V Value) const {
    bool Added = false;
    // Hash before building the Leaf: the move must not race the hashing
    // within one argument list (evaluation order is unspecified).
    uint64_t H = Hash{}(Key);
    NodePtr NewRoot = insertImpl(
        Root.get(), H, 0, Leaf{std::move(Key), std::move(Value)}, Added);
    return HamtMap(std::move(NewRoot), Count + (Added ? 1 : 0));
  }

  /// Returns a map without \p Key (unchanged copy if absent).
  HamtMap erase(const K &Key) const {
    EraseResult R = eraseImpl(Root.get(), Hash{}(Key), 0, Key);
    if (!R.Removed)
      return *this;
    if (R.Empty)
      return HamtMap();
    if (R.IsLeaf) {
      uint64_t H = Hash{}(R.L.Key);
      return HamtMap(singleLeafNode(std::move(R.L), H, 0), Count - 1);
    }
    return HamtMap(std::move(R.N), Count - 1);
  }

  /// Transient insert-or-replace: mutates this map, reusing every node
  /// this map owns exclusively and path-copying shared ones. Other maps
  /// sharing structure with this one are never affected. O(log32 n).
  void setMut(K Key, V Value) {
    bool Added = false;
    uint64_t H = Hash{}(Key);
    Root = insertMutImpl(std::move(Root), H, 0,
                         Leaf{std::move(Key), std::move(Value)}, Added);
    if (Added)
      ++Count;
  }

  /// Transient erase with the same sharing discipline as setMut.
  /// Returns true when the key was present. Transient updates never
  /// leave the map without a root node: erasing the last entry keeps a
  /// uniquely-owned root (empty) and gives a shared one an empty copy.
  bool eraseMut(const K &Key) {
    EraseResult R = eraseMutImpl(Root, Hash{}(Key), 0, Key);
    if (!R.Removed)
      return false;
    if (R.Empty) {
      Root = makeRefCnt<Node>();
    } else if (R.IsLeaf) {
      uint64_t H = Hash{}(R.L.Key);
      Root = singleLeafNode(std::move(R.L), H, 0);
    }
    --Count;
    return true;
  }

  /// Calls Callback(key, value) for every entry (unspecified order).
  template <typename Fn> void forEach(Fn &&Callback) const {
    forEachImpl(Root.get(), Callback);
  }

  /// Walks the trie nodes for memory accounting; see forEachNodeImpl.
  template <typename Fn> void forEachNode(Fn &&Callback) const {
    forEachNodeImpl(Root.get(), Callback);
  }

  /// Collects all entries into a vector (unspecified order).
  std::vector<std::pair<K, V>> items() const {
    std::vector<std::pair<K, V>> Out;
    Out.reserve(Count);
    forEach([&Out](const K &Key, const V &Val) {
      Out.emplace_back(Key, Val);
    });
    return Out;
  }
};

/// Persistent hash set on top of HamtMap.
template <typename K, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
class HamtSet {
  struct Unit {};
  HamtMap<K, Unit, Hash, Eq> Map;

  explicit HamtSet(HamtMap<K, Unit, Hash, Eq> Map) : Map(std::move(Map)) {}

public:
  HamtSet() = default;

  bool empty() const { return Map.empty(); }
  size_t size() const { return Map.size(); }
  bool contains(const K &Key) const { return Map.contains(Key); }

  /// Root identity and ownership (see HamtMap).
  const void *root() const { return Map.root(); }
  bool uniquelyOwned() const { return Map.uniquelyOwned(); }
  HamtSet detached() const { return HamtSet(Map.detached()); }

  /// Returns a set containing \p Key.
  HamtSet insert(K Key) const { return HamtSet(Map.set(std::move(Key), {})); }
  /// Returns a set without \p Key.
  HamtSet erase(const K &Key) const { return HamtSet(Map.erase(Key)); }

  /// Transient insert/erase (see HamtMap::setMut/eraseMut).
  void insertMut(K Key) { Map.setMut(std::move(Key), {}); }
  bool eraseMut(const K &Key) { return Map.eraseMut(Key); }

  template <typename Fn> void forEach(Fn &&Callback) const {
    Map.forEach([&Callback](const K &Key, const auto &) { Callback(Key); });
  }

  /// Walks the trie nodes for memory accounting.
  template <typename Fn> void forEachNode(Fn &&Callback) const {
    Map.forEachNode(std::forward<Fn>(Callback));
  }

  std::vector<K> items() const {
    std::vector<K> Out;
    Out.reserve(size());
    forEach([&Out](const K &Key) { Out.push_back(Key); });
    return Out;
  }
};

} // namespace tessla

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif // TESSLA_PERSISTENT_HAMT_H
