//===- tests/Persistent/QueueTest.cpp ---------------------------------------===//
//
// Part of the tessla-aggregate-update project, MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tessla/Persistent/Queue.h"

#include <gtest/gtest.h>

#include <deque>
#include <random>

using namespace tessla;

TEST(PQueueTest, EmptyQueue) {
  PQueue<int> Q;
  EXPECT_TRUE(Q.empty());
  EXPECT_EQ(Q.size(), 0u);
}

TEST(PQueueTest, FifoOrder) {
  PQueue<int> Q;
  for (int I = 0; I != 5; ++I)
    Q = Q.enqueue(I);
  for (int I = 0; I != 5; ++I) {
    ASSERT_FALSE(Q.empty());
    EXPECT_EQ(Q.front(), I);
    Q = Q.dequeue();
  }
  EXPECT_TRUE(Q.empty());
}

TEST(PQueueTest, PersistenceOldVersionUnchanged) {
  PQueue<int> Q = PQueue<int>().enqueue(1).enqueue(2);
  PQueue<int> Dequeued = Q.dequeue();
  PQueue<int> Extended = Q.enqueue(3);
  EXPECT_EQ(Q.size(), 2u);
  EXPECT_EQ(Q.front(), 1);
  EXPECT_EQ(Dequeued.size(), 1u);
  EXPECT_EQ(Dequeued.front(), 2);
  EXPECT_EQ(Extended.size(), 3u);
  EXPECT_EQ(Extended.front(), 1);
}

TEST(PQueueTest, FrontAcrossReversalBoundary) {
  // Front list empty, back holds everything: front() must find the
  // oldest element at the bottom of the back list.
  PQueue<int> Q = PQueue<int>().enqueue(10).enqueue(20).enqueue(30);
  EXPECT_EQ(Q.front(), 10);
  Q = Q.dequeue(); // forces the reversal
  EXPECT_EQ(Q.front(), 20);
  Q = Q.enqueue(40);
  EXPECT_EQ(Q.front(), 20);
  Q = Q.dequeue();
  EXPECT_EQ(Q.front(), 30);
  Q = Q.dequeue();
  EXPECT_EQ(Q.front(), 40);
}

TEST(PQueueTest, ForEachOldestFirst) {
  PQueue<int> Q =
      PQueue<int>().enqueue(1).enqueue(2).dequeue().enqueue(3).enqueue(4);
  std::vector<int> Items;
  Q.forEach([&Items](int V) { Items.push_back(V); });
  EXPECT_EQ(Items, (std::vector<int>{2, 3, 4}));
}

TEST(PQueueTest, Equality) {
  PQueue<int> A = PQueue<int>().enqueue(1).enqueue(2);
  // Same contents through a different operation history (different
  // front/back split).
  PQueue<int> B =
      PQueue<int>().enqueue(0).enqueue(1).dequeue().enqueue(2);
  EXPECT_TRUE(A == B);
  EXPECT_FALSE(A == A.dequeue());
}

/// Property: behaves exactly like std::deque under random op sequences,
/// including persistence of snapshots.
TEST(PQueueTest, TransientOpsReuseOnlyAUniqueRoot) {
  PQueue<int> Q = PQueue<int>().enqueue(1).enqueue(2);
  const void *Root = Q.root();
  ASSERT_TRUE(Q.uniquelyOwned());
  Q.enqueueMut(3);
  Q.dequeueMut();
  EXPECT_EQ(Q.root(), Root) << "a unique root is updated in place";

  PQueue<int> Snapshot = Q;
  EXPECT_FALSE(Q.uniquelyOwned());
  Q.enqueueMut(4);
  EXPECT_NE(Q.root(), Root) << "a shared root is copied first";
  EXPECT_EQ(Snapshot.size(), 2u) << "the sharer is untouched";
  EXPECT_EQ(Snapshot.front(), 2);
  EXPECT_EQ(Q.size(), 3u);

  PQueue<int> Copy = Q.detached();
  EXPECT_NE(Copy.root(), Q.root());
  EXPECT_TRUE(Copy == Q);
  EXPECT_NE(PQueue<int>().detached().root(), nullptr);
}

TEST(PQueueTest, MatchesDequeUnderRandomOps) {
  std::mt19937 Rng(5);
  for (int Round = 0; Round != 20; ++Round) {
    PQueue<int> Q;
    std::deque<int> Ref;
    std::vector<std::pair<PQueue<int>, std::deque<int>>> Snapshots;
    for (int Op = 0; Op != 300; ++Op) {
      int Choice = Rng() % 10;
      if (Choice < 6 || Ref.empty()) {
        int V = static_cast<int>(Rng() % 1000);
        Q = Q.enqueue(V);
        Ref.push_back(V);
      } else {
        ASSERT_EQ(Q.front(), Ref.front());
        Q = Q.dequeue();
        Ref.pop_front();
      }
      if (Op % 50 == 0)
        Snapshots.push_back({Q, Ref});
      ASSERT_EQ(Q.size(), Ref.size());
    }
    // All snapshots must still match their reference copies.
    for (auto &[SnapQ, SnapRef] : Snapshots) {
      std::vector<int> Items;
      SnapQ.forEach([&Items](int V) { Items.push_back(V); });
      EXPECT_EQ(Items,
                std::vector<int>(SnapRef.begin(), SnapRef.end()));
    }
  }
}
