//===- tests/support_test.cpp - Support library tests ---------------------===//
//
// Part of PPD test suite: VarSet representations, Rng determinism,
// diagnostics, DOT writer.
//
//===----------------------------------------------------------------------===//

#include "log/RecordArena.h"
#include "support/Diagnostics.h"
#include "support/DotWriter.h"
#include "support/Rng.h"
#include "support/SmallVec.h"
#include "support/VarSet.h"

#include <gtest/gtest.h>

#include <string>

using namespace ppd;

namespace {

//===----------------------------------------------------------------------===//
// VarSet: typed tests run the same behaviour against both representations,
// since the dataflow analyses are templated over them (experiment E6).
//===----------------------------------------------------------------------===//

template <typename T> class VarSetTest : public ::testing::Test {};
using SetTypes = ::testing::Types<BitVarSet, ListVarSet>;
TYPED_TEST_SUITE(VarSetTest, SetTypes);

TYPED_TEST(VarSetTest, StartsEmpty) {
  TypeParam Set;
  EXPECT_TRUE(Set.empty());
  EXPECT_EQ(Set.size(), 0u);
  EXPECT_FALSE(Set.contains(0));
  EXPECT_TRUE(Set.toVector().empty());
}

TYPED_TEST(VarSetTest, InsertAndContains) {
  TypeParam Set;
  EXPECT_TRUE(Set.insert(5));
  EXPECT_FALSE(Set.insert(5)) << "second insert must report no change";
  EXPECT_TRUE(Set.insert(200));
  EXPECT_TRUE(Set.contains(5));
  EXPECT_TRUE(Set.contains(200));
  EXPECT_FALSE(Set.contains(6));
  EXPECT_EQ(Set.size(), 2u);
}

TYPED_TEST(VarSetTest, RemoveReportsPresence) {
  TypeParam Set;
  Set.insert(7);
  EXPECT_TRUE(Set.remove(7));
  EXPECT_FALSE(Set.remove(7));
  EXPECT_FALSE(Set.contains(7));
  EXPECT_TRUE(Set.empty());
}

TYPED_TEST(VarSetTest, UnionWithReportsChange) {
  TypeParam A, B;
  A.insert(1);
  B.insert(1);
  B.insert(64); // crosses a word boundary in the bit representation
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_FALSE(A.unionWith(B)) << "second union must be a no-op";
  EXPECT_TRUE(A.contains(64));
  EXPECT_EQ(A.size(), 2u);
}

TYPED_TEST(VarSetTest, IntersectWith) {
  TypeParam A, B;
  for (unsigned I : {1u, 2u, 3u, 100u})
    A.insert(I);
  for (unsigned I : {2u, 100u, 300u})
    B.insert(I);
  A.intersectWith(B);
  EXPECT_EQ(A.toVector(), (std::vector<unsigned>{2, 100}));
}

TYPED_TEST(VarSetTest, Subtract) {
  TypeParam A, B;
  for (unsigned I : {1u, 2u, 3u})
    A.insert(I);
  B.insert(2);
  B.insert(9);
  A.subtract(B);
  EXPECT_EQ(A.toVector(), (std::vector<unsigned>{1, 3}));
}

TYPED_TEST(VarSetTest, IntersectsIsSymmetricAndPrecise) {
  TypeParam A, B;
  A.insert(63);
  B.insert(64);
  EXPECT_FALSE(A.intersects(B));
  EXPECT_FALSE(B.intersects(A));
  B.insert(63);
  EXPECT_TRUE(A.intersects(B));
  EXPECT_TRUE(B.intersects(A));
}

TYPED_TEST(VarSetTest, ToVectorSorted) {
  TypeParam Set;
  for (unsigned I : {300u, 5u, 64u, 0u})
    Set.insert(I);
  EXPECT_EQ(Set.toVector(), (std::vector<unsigned>{0, 5, 64, 300}));
}

TYPED_TEST(VarSetTest, EqualityIgnoresCapacity) {
  TypeParam A, B;
  A.insert(500);
  A.remove(500); // A may have grown internal storage
  EXPECT_TRUE(A == B);
  A.insert(1);
  B.insert(1);
  EXPECT_TRUE(A == B);
}

// Property sweep: both representations agree on randomized workloads.
TEST(VarSetCross, RepresentationsAgreeOnRandomOps) {
  Rng R(42);
  for (int Round = 0; Round != 20; ++Round) {
    BitVarSet Bits;
    ListVarSet List;
    for (int Op = 0; Op != 200; ++Op) {
      unsigned Id = unsigned(R.nextBelow(150));
      switch (R.nextBelow(3)) {
      case 0:
        EXPECT_EQ(Bits.insert(Id), List.insert(Id));
        break;
      case 1:
        EXPECT_EQ(Bits.remove(Id), List.remove(Id));
        break;
      case 2:
        EXPECT_EQ(Bits.contains(Id), List.contains(Id));
        break;
      }
    }
    EXPECT_EQ(Bits.toVector(), List.toVector());
    EXPECT_EQ(Bits.size(), List.size());
  }
}

//===----------------------------------------------------------------------===//
// BitVarSet's trailing-zero-word trim, which keeps numWords() a tight
// bound.
//===----------------------------------------------------------------------===//

TEST(BitVarSetTest, ShrinkingOpsTrimTrailingZeroWords) {
  BitVarSet A, B;
  A.insert(2);
  A.insert(700); // ~11 words
  B.insert(2);
  A.intersectWith(B);
  EXPECT_EQ(A.numWords(), 1u) << "intersectWith must drop the zero tail";
  EXPECT_TRUE(A.contains(2));

  BitVarSet C, D;
  C.insert(1);
  C.insert(640);
  D.insert(640);
  C.subtract(D);
  EXPECT_EQ(C.numWords(), 1u) << "subtract must drop the zero tail";
  EXPECT_EQ(C.toVector(), (std::vector<unsigned>{1}));
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForSeed) {
  Rng A(7), B(7);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(7), B(8);
  bool AnyDifferent = false;
  for (int I = 0; I != 10; ++I)
    AnyDifferent |= A.next() != B.next();
  EXPECT_TRUE(AnyDifferent);
}

TEST(RngTest, NextBelowInRange) {
  Rng R(3);
  for (int I = 0; I != 1000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng R(3);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I != 2000; ++I) {
    int64_t V = R.nextInRange(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    SawLo |= V == -2;
    SawHi |= V == 2;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(DiagnosticsTest, CountsOnlyErrors) {
  DiagnosticEngine D;
  D.warning(SourceLoc(1, 1), "w");
  D.note(SourceLoc(1, 2), "n");
  EXPECT_FALSE(D.hasErrors());
  D.error(SourceLoc(2, 1), "e");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errorCount(), 1u);
  EXPECT_EQ(D.diagnostics().size(), 3u);
}

TEST(DiagnosticsTest, Formatting) {
  DiagnosticEngine D;
  D.error(SourceLoc(3, 7), "bad thing");
  EXPECT_EQ(D.diagnostics()[0].str(), "3:7: error: bad thing");
  D.clear();
  EXPECT_FALSE(D.hasErrors());
  EXPECT_TRUE(D.diagnostics().empty());
}

TEST(SourceLocTest, OrderingAndValidity) {
  EXPECT_FALSE(SourceLoc().isValid());
  EXPECT_TRUE(SourceLoc(1, 1).isValid());
  EXPECT_LT(SourceLoc(1, 9), SourceLoc(2, 1));
  EXPECT_LT(SourceLoc(2, 1), SourceLoc(2, 5));
  EXPECT_EQ(SourceLoc(4, 2).str(), "4:2");
}

//===----------------------------------------------------------------------===//
// DotWriter
//===----------------------------------------------------------------------===//

TEST(DotWriterTest, BasicStructure) {
  DotWriter W("g");
  W.node("a", "label A", {"shape=box"});
  W.edge("a", "b", {"style=dashed"});
  std::string Dot = W.str();
  EXPECT_NE(Dot.find("digraph \"g\""), std::string::npos);
  EXPECT_NE(Dot.find("\"a\" [label=\"label A\", shape=box];"),
            std::string::npos);
  EXPECT_NE(Dot.find("\"a\" -> \"b\" [style=dashed];"), std::string::npos);
}

TEST(DotWriterTest, EscapesQuotesAndNewlines) {
  EXPECT_EQ(DotWriter::escape("a\"b\nc"), "a\\\"b\\nc");
}

TEST(DotWriterTest, Clusters) {
  DotWriter W("g");
  W.beginCluster("p1", "process 1");
  W.node("x", "x");
  W.endCluster();
  std::string Dot = W.str();
  EXPECT_NE(Dot.find("subgraph \"cluster_p1\""), std::string::npos);
  EXPECT_NE(Dot.find("label=\"process 1\";"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// SmallVec: the emit path's no-allocation container.
//===----------------------------------------------------------------------===//

TEST(SmallVecTest, InlineThenSpill) {
  SmallVec<int, 4> V;
  EXPECT_TRUE(V.empty());
  for (int I = 0; I != 4; ++I)
    V.push_back(I);
  EXPECT_EQ(V.size(), 4u);
  EXPECT_EQ(V.capacity(), 4u) << "still inline";
  V.push_back(4); // spills to heap
  V.push_back(5);
  ASSERT_EQ(V.size(), 6u);
  for (int I = 0; I != 6; ++I)
    EXPECT_EQ(V[size_t(I)], I);
  EXPECT_EQ(V.back(), 5);
}

TEST(SmallVecTest, CopyAndMovePreserveElements) {
  SmallVec<std::string, 2> V;
  V.push_back("a");
  V.push_back("b");
  V.push_back("c"); // spilled

  SmallVec<std::string, 2> Copy(V);
  EXPECT_EQ(Copy, V);

  SmallVec<std::string, 2> Moved(std::move(V));
  EXPECT_EQ(Moved, Copy);

  SmallVec<std::string, 2> Assigned;
  Assigned.push_back("x");
  Assigned = Copy;
  EXPECT_EQ(Assigned, Copy);

  SmallVec<std::string, 2> Inline;
  Inline.push_back("only");
  SmallVec<std::string, 2> MovedInline(std::move(Inline));
  ASSERT_EQ(MovedInline.size(), 1u);
  EXPECT_EQ(MovedInline[0], "only");
}

TEST(SmallVecTest, AssignResizeClearAndVectorEquality) {
  std::vector<uint32_t> Src{7, 8, 9, 10, 11};
  SmallVec<uint32_t, 4> V;
  V.assign(Src.begin(), Src.end());
  EXPECT_EQ(V, Src);
  EXPECT_EQ(Src, V);

  V.resize(2);
  EXPECT_EQ(V, (std::vector<uint32_t>{7, 8}));
  V.resize(4);
  EXPECT_EQ(V, (std::vector<uint32_t>{7, 8, 0, 0}));

  V.clear();
  EXPECT_TRUE(V.empty());
  EXPECT_NE(V, Src);
}

//===----------------------------------------------------------------------===//
// RecordArena / RecordStore: stable-address chunked record storage.
//===----------------------------------------------------------------------===//

TEST(RecordStoreTest, AppendAcrossChunksKeepsAddressesStable) {
  RecordStore<int, 4> Store; // 16-element chunks for the test
  std::vector<const int *> Addrs;
  for (int I = 0; I != 100; ++I)
    Addrs.push_back(&Store.emplace_back(I));
  ASSERT_EQ(Store.size(), 100u);
  for (int I = 0; I != 100; ++I) {
    EXPECT_EQ(Store[size_t(I)], I);
    EXPECT_EQ(&Store[size_t(I)], Addrs[size_t(I)])
        << "append must never move existing records";
  }
  EXPECT_EQ(Store.back(), 99);
}

TEST(RecordStoreTest, IterationCopyAndMove) {
  RecordStore<std::string, 2> Store;
  for (int I = 0; I != 10; ++I)
    Store.emplace_back(std::to_string(I));

  int N = 0;
  for (const std::string &S : Store)
    EXPECT_EQ(S, std::to_string(N++));
  EXPECT_EQ(N, 10);

  RecordStore<std::string, 2> Copy(Store);
  ASSERT_EQ(Copy.size(), 10u);
  for (size_t I = 0; I != 10; ++I)
    EXPECT_EQ(Copy[I], Store[I]);

  RecordStore<std::string, 2> Moved(std::move(Store));
  ASSERT_EQ(Moved.size(), 10u);
  EXPECT_EQ(Moved[7], "7");

  Copy.clear();
  EXPECT_TRUE(Copy.empty());
}

TEST(RecordArenaTest, AlignedAllocationsAndReset) {
  RecordArena Arena;
  void *A = Arena.allocate(3, 1);
  void *B = Arena.allocate(8, 8);
  void *C = Arena.allocate(100000, 16); // larger than one block
  EXPECT_NE(A, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(B) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(C) % 16, 0u);
  EXPECT_GE(Arena.bytesAllocated(), size_t(100000));
  Arena.reset();
  EXPECT_EQ(Arena.bytesAllocated(), 0u);
}

} // namespace
