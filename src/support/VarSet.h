//===- support/VarSet.h - Variable-set representations ----------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sets of variables identified by dense unsigned ids, in the two
/// representations the paper's §7 compares: a bit-mask (BitVarSet) and a
/// sorted list (ListVarSet). The paper remarks that "using bit-mask
/// representations for sets of variables (as opposed to a list structure)
/// can have a large payoff"; bench/bench_varset.cpp measures exactly that
/// claim, and the data-flow analyses are templated over the representation
/// so the comparison runs the real algorithms.
///
/// Both classes implement the same interface (the VariableSet concept):
///   insert/contains/remove, unionWith/intersectWith/subtract/intersects,
///   size/empty/clear, toVector, equality.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_SUPPORT_VARSET_H
#define PPD_SUPPORT_VARSET_H

#include <algorithm>
#include <bit>
#include <cassert>
#include <concepts>
#include <cstdint>
#include <vector>

namespace ppd {

/// The operations the data-flow framework requires of a set representation.
template <typename S>
concept VariableSet = requires(S Set, const S CSet, unsigned Id) {
  { Set.insert(Id) } -> std::same_as<bool>;
  { CSet.contains(Id) } -> std::same_as<bool>;
  { Set.remove(Id) } -> std::same_as<bool>;
  { Set.unionWith(CSet) } -> std::same_as<bool>;
  { Set.intersectWith(CSet) } -> std::same_as<void>;
  { Set.subtract(CSet) } -> std::same_as<void>;
  { CSet.intersects(CSet) } -> std::same_as<bool>;
  { CSet.size() } -> std::same_as<unsigned>;
  { CSet.empty() } -> std::same_as<bool>;
  { Set.clear() } -> std::same_as<void>;
  { CSet.toVector() } -> std::same_as<std::vector<unsigned>>;
};

/// Bit-mask representation: one bit per variable id. Grows on demand; all
/// binary operations accept operands of different widths.
class BitVarSet {
public:
  BitVarSet() = default;
  explicit BitVarSet(unsigned Universe) { reserveFor(Universe); }

  /// Ensures ids in [0, Universe) can be stored without reallocation.
  void reserveFor(unsigned Universe) {
    if (Universe > 0)
      growTo(Universe - 1);
  }

  /// Inserts \p Id; returns true if it was not already present.
  bool insert(unsigned Id) {
    growTo(Id);
    uint64_t Mask = uint64_t(1) << (Id % 64);
    uint64_t &Word = Words[Id / 64];
    if (Word & Mask)
      return false;
    Word |= Mask;
    return true;
  }

  bool contains(unsigned Id) const {
    if (Id / 64 >= Words.size())
      return false;
    return (Words[Id / 64] >> (Id % 64)) & 1;
  }

  /// Removes \p Id; returns true if it was present.
  bool remove(unsigned Id) {
    if (Id / 64 >= Words.size())
      return false;
    uint64_t Mask = uint64_t(1) << (Id % 64);
    uint64_t &Word = Words[Id / 64];
    if (!(Word & Mask))
      return false;
    Word &= ~Mask;
    return true;
  }

  /// Set-union in place; returns true if this set changed.
  bool unionWith(const BitVarSet &Other) {
    if (Other.Words.size() > Words.size())
      Words.resize(Other.Words.size(), 0);
    bool Changed = false;
    for (size_t I = 0, E = Other.Words.size(); I != E; ++I) {
      uint64_t Old = Words[I];
      Words[I] |= Other.Words[I];
      Changed |= Words[I] != Old;
    }
    return Changed;
  }

  void intersectWith(const BitVarSet &Other) {
    size_t Common = std::min(Words.size(), Other.Words.size());
    for (size_t I = 0; I != Common; ++I)
      Words[I] &= Other.Words[I];
    for (size_t I = Common, E = Words.size(); I != E; ++I)
      Words[I] = 0;
    trim();
  }

  /// Removes every element of \p Other from this set.
  void subtract(const BitVarSet &Other) {
    size_t Common = std::min(Words.size(), Other.Words.size());
    for (size_t I = 0; I != Common; ++I)
      Words[I] &= ~Other.Words[I];
    trim();
  }

  /// True if the two sets share at least one element. This is the hot
  /// operation of race detection (Def 6.3: WRITE/WRITE and READ/WRITE
  /// intersection tests).
  bool intersects(const BitVarSet &Other) const {
    size_t Common = std::min(Words.size(), Other.Words.size());
    for (size_t I = 0; I != Common; ++I)
      if (Words[I] & Other.Words[I])
        return true;
    return false;
  }

  unsigned size() const {
    unsigned N = 0;
    for (uint64_t Word : Words)
      N += std::popcount(Word);
    return N;
  }

  bool empty() const {
    for (uint64_t Word : Words)
      if (Word)
        return false;
    return true;
  }

  /// Zero-fills in place, keeping capacity: hot callers (the per-edge
  /// READ/WRITE sets cleared at every sync node) reuse the same words
  /// instead of re-growing from empty on each edge. Equality and empty()
  /// already treat trailing zero words as absent.
  void clear() { std::fill(Words.begin(), Words.end(), 0); }

  /// Calls \p Callback for each element in increasing order. Lets hot
  /// consumers (race detection, sync-record capture) walk the set without
  /// materializing a vector.
  template <typename Fn> void forEach(Fn &&Callback) const {
    for (size_t I = 0, E = Words.size(); I != E; ++I) {
      uint64_t Word = Words[I];
      while (Word) {
        unsigned Bit = std::countr_zero(Word);
        Callback(unsigned(I) * 64 + Bit);
        Word &= Word - 1;
      }
    }
  }

  /// Elements in increasing order.
  std::vector<unsigned> toVector() const {
    std::vector<unsigned> Out;
    Out.reserve(size());
    forEach([&Out](unsigned Id) { Out.push_back(Id); });
    return Out;
  }

  /// Words of storage (64 ids per word). trim() guarantees no trailing
  /// zero words after shrinking ops, so this is a sound upper bound for
  /// word-wise hashing.
  size_t numWords() const { return Words.size(); }

  friend bool operator==(const BitVarSet &A, const BitVarSet &B) {
    size_t Common = std::min(A.Words.size(), B.Words.size());
    for (size_t I = 0; I != Common; ++I)
      if (A.Words[I] != B.Words[I])
        return false;
    for (size_t I = Common; I < A.Words.size(); ++I)
      if (A.Words[I])
        return false;
    for (size_t I = Common; I < B.Words.size(); ++I)
      if (B.Words[I])
        return false;
    return true;
  }

private:
  void growTo(unsigned Id) {
    size_t Need = size_t(Id) / 64 + 1;
    if (Need > Words.size())
      Words.resize(Need, 0);
  }

  /// Drops trailing zero words after shrinking operations. Equality and
  /// empty() already skip dead capacity; trimming keeps size()/forEach
  /// loops short and means any word-wise hash of Words needs no
  /// trailing-zero special case. Capacity is retained (vector resize
  /// never shrinks allocation), so hot scratch reuse stays
  /// allocation-free.
  void trim() {
    size_t Live = Words.size();
    while (Live && Words[Live - 1] == 0)
      --Live;
    Words.resize(Live);
  }

  std::vector<uint64_t> Words;
};

/// Sorted-vector ("list structure") representation, the baseline the paper
/// compares bit-masks against.
class ListVarSet {
public:
  ListVarSet() = default;
  explicit ListVarSet(unsigned /*Universe*/) {}

  void reserveFor(unsigned Universe) { Elements.reserve(Universe); }

  bool insert(unsigned Id) {
    auto It = std::lower_bound(Elements.begin(), Elements.end(), Id);
    if (It != Elements.end() && *It == Id)
      return false;
    Elements.insert(It, Id);
    return true;
  }

  bool contains(unsigned Id) const {
    return std::binary_search(Elements.begin(), Elements.end(), Id);
  }

  bool remove(unsigned Id) {
    auto It = std::lower_bound(Elements.begin(), Elements.end(), Id);
    if (It == Elements.end() || *It != Id)
      return false;
    Elements.erase(It);
    return true;
  }

  bool unionWith(const ListVarSet &Other) {
    if (Other.Elements.empty())
      return false;
    std::vector<unsigned> Merged;
    Merged.reserve(Elements.size() + Other.Elements.size());
    std::set_union(Elements.begin(), Elements.end(), Other.Elements.begin(),
                   Other.Elements.end(), std::back_inserter(Merged));
    bool Changed = Merged.size() != Elements.size();
    Elements = std::move(Merged);
    return Changed;
  }

  void intersectWith(const ListVarSet &Other) {
    std::vector<unsigned> Out;
    std::set_intersection(Elements.begin(), Elements.end(),
                          Other.Elements.begin(), Other.Elements.end(),
                          std::back_inserter(Out));
    Elements = std::move(Out);
  }

  void subtract(const ListVarSet &Other) {
    std::vector<unsigned> Out;
    std::set_difference(Elements.begin(), Elements.end(),
                        Other.Elements.begin(), Other.Elements.end(),
                        std::back_inserter(Out));
    Elements = std::move(Out);
  }

  bool intersects(const ListVarSet &Other) const {
    auto A = Elements.begin(), AEnd = Elements.end();
    auto B = Other.Elements.begin(), BEnd = Other.Elements.end();
    while (A != AEnd && B != BEnd) {
      if (*A == *B)
        return true;
      if (*A < *B)
        ++A;
      else
        ++B;
    }
    return false;
  }

  unsigned size() const { return unsigned(Elements.size()); }
  bool empty() const { return Elements.empty(); }
  void clear() { Elements.clear(); }

  template <typename Fn> void forEach(Fn &&Callback) const {
    for (unsigned Id : Elements)
      Callback(Id);
  }

  std::vector<unsigned> toVector() const { return Elements; }

  friend bool operator==(const ListVarSet &A, const ListVarSet &B) {
    return A.Elements == B.Elements;
  }

private:
  std::vector<unsigned> Elements; // sorted, unique
};

static_assert(VariableSet<BitVarSet>);
static_assert(VariableSet<ListVarSet>);

} // namespace ppd

#endif // PPD_SUPPORT_VARSET_H
