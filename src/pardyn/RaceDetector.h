//===- pardyn/RaceDetector.h - §6.4 race detection --------------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Race detection over the parallel dynamic graph, Defs 6.1–6.4: two
/// *simultaneous* internal edges (neither ordered before the other) race
/// when their shared READ/WRITE sets exhibit a read/write or write/write
/// conflict; an execution instance is race-free iff no pair of
/// simultaneous edges races. Race-freedom of the instance is what
/// validates the prelogs/unit logs for replay (§5.5).
///
/// Detection is a clock-window merge, reproducing — and then closing —
/// §7's remark that "the problem of finding all pairs of possible
/// conflicting edges is more expensive ... we are currently investigating
/// algorithms to reduce the cost". Per shared variable and process, the
/// writer edges (the graph's writer index) and the reader-only edges (an
/// index built per detect call) are ascending end-node lists. Vector
/// clocks are monotone along a process, so the partners simultaneous with
/// one edge form one contiguous window of another process's list, and
/// both window ends only move forward as the edge advances
/// (ParallelDynamicGraph::simultaneousWindow). One forward pass per
/// (variable, process, process) enumerates exactly the racing pairs,
/// already in canonical order — no E×E structure, no per-pair hash, no
/// sort.
///
/// The fuzzer's spec/race leg checks the list element for element against
/// Defs 6.1–6.4 evaluated from scratch over a fully traced run's actual
/// accesses (testing/DiffOracles.h); bench_race_detection measures its
/// scaling (experiments E4/E5).
///
//===----------------------------------------------------------------------===//

#ifndef PPD_PARDYN_RACEDETECTOR_H
#define PPD_PARDYN_RACEDETECTOR_H

#include "pardyn/ParallelDynamicGraph.h"
#include "sema/Symbols.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ppd {

enum class RaceKind : uint8_t { WriteWrite, ReadWrite };

struct Race {
  uint32_t SharedIdx = 0; ///< dense shared-variable index.
  VarId Var = InvalidId;  ///< the shared variable.
  EdgeRef First;          ///< canonical order: lower pid first.
  EdgeRef Second;
  RaceKind Kind = RaceKind::WriteWrite;

  friend bool operator==(const Race &A, const Race &B) {
    return A.SharedIdx == B.SharedIdx && A.First == B.First &&
           A.Second == B.Second && A.Kind == B.Kind;
  }
};

struct RaceDetectionResult {
  std::vector<Race> Races;
  /// Simultaneity windows opened — the ordering tests that are the cost
  /// driver §7 worries about (perfbench reports it as
  /// pardyn.pairs_examined).
  uint64_t PairsExamined = 0;
  /// Wall time spent building the per-call reader index — the whole
  /// up-front cost, since the writer index comes with the graph
  /// (perfbench's pardyn.closure_ms; pardyn.sweep_ms is the rest of the
  /// detect call).
  uint64_t ClosureBuildNs = 0;

  bool raceFree() const { return Races.empty(); } // Def 6.4
};

class RaceDetector {
public:
  RaceDetector(const ParallelDynamicGraph &Graph, const SymbolTable &Symbols);

  /// Runs one detection pass, races in canonical order: by variable, then
  /// First (lower pid, then end node), then Second. Keeps no state between
  /// calls, so it may run on several threads at once.
  RaceDetectionResult detect() const;

  /// Human-readable description naming the variable and both edges.
  std::string describe(const Race &R, const Program &P) const;

  /// Grouped report: races collapsed by (variable, kind, the two ending
  /// statements), with occurrence counts — loops otherwise repeat the
  /// same conflict once per iteration's edge.
  std::string summarize(const RaceDetectionResult &Result,
                        const Program &P) const;

private:
  const ParallelDynamicGraph &Graph;
  const SymbolTable &Symbols;
};

} // namespace ppd

#endif // PPD_PARDYN_RACEDETECTOR_H
