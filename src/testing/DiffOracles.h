//===- testing/DiffOracles.h - Cross-pipeline differential driver -*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The oracle half of the fuzzing harness: run one PPL program through
/// every pipeline the repository maintains and demand each one agree with
/// the paper's semantics or with its twin. The strongest legs check a
/// theorem of the paper against an independent run; the rest pit a fast
/// tier against a simpler one (memoized vs direct replay, paged vs whole
/// loading, three race detectors, direct vs framed debugging).
///
/// The oracle matrix (see DESIGN.md §9):
///
///   mode/*      Plain vs Logging vs FullTrace, for every program:
///               instrumentation must not perturb execution, and trace
///               instructions cost no quantum, so all three interleave
///               identically — outcome, steps, error, shared memory,
///               output, process state.
///   spec/trace  §5.5 on race-free instances: each process's FullTrace
///               trace equals its intervals' replay traces spliced in log
///               order (a nested logged call's CallSkipped expands to its
///               own intervals). Events compare on kind, statement,
///               accesses with values, predicate outcome, callee, args
///               and return value. A process the machine froze need only
///               match a prefix, its last statement cut where it stopped.
///   log/*       save → load → re-save: loaded records equal
///               the originals field-by-field, re-saved bytes equal the
///               first save byte-for-byte, interval index identical.
///   replay/*    the interpreter's replay of each interval vs the
///               memoized ParallelReplayer (serial, parallel getMany,
///               and cache re-read); on race-free instances, closed
///               intervals must verify their postlogs exactly.
///   race/*      NaiveAllPairs vs VarIndexed vs an independent
///               BFS-reachability recheck built here from the raw log.
///   flowback/*  every read in every traced interval must have a data
///               in-edge, and edges from singular writers must carry the
///               value actually read (semantic truth, not a re-run of the
///               builder's own algorithm); flowback/sync checks every
///               Sync edge against partner pairs read straight off the
///               log's Seq/PartnerSeq records, and that every pair with
///               both ends traced got its edge.
///   deadlock/*  a Deadlock outcome must produce a coherent wait-for
///               report over exactly the blocked processes.
///   server/*    a scripted DebugSession vs the same script through
///               DebugServer::handleFrame on a re-run of the same
///               program (machine determinism makes the logs identical).
///   paged/*     against the run's own records: the skim-built index
///               equals LogIndex over them, and every section a file
///               store or an in-memory store decodes equals the run's
///               ProcessLog record for record; then a session over the
///               v2 file under a seed-randomized (often starved) buffer
///               pool budget vs one over the in-memory store under an
///               unbounded pool.
///   stream/*    a re-run streamed as consistent cuts (seed-randomized
///               section threshold, down to one record) into the ingest
///               registry: the final frontier must equal the batch log
///               bit-for-bit as v2, and sampled mid-run frontiers must
///               answer tail queries exactly like a batch controller
///               over the same prefix (incremental index/graph append =
///               rebuild, prefix-closedness of live answers).
///
//===----------------------------------------------------------------------===//

#ifndef PPD_TESTING_DIFFORACLES_H
#define PPD_TESTING_DIFFORACLES_H

#include "vm/Machine.h"

#include <cstdint>
#include <string>

namespace ppd::testing {

struct DiffConfig {
  /// Step budget per machine run; generated programs terminate well under
  /// this, so hitting it shows in the harness stats.
  uint64_t MaxSteps = 2'000'000;
  /// Worker threads for the parallel-replay comparison.
  unsigned ReplayThreads = 2;
  /// Run the session-vs-server oracle (re-runs the program twice).
  bool CheckServer = true;
  /// Run the flowback-edge oracle (builds the full dynamic graph).
  bool CheckFlowback = true;
  /// Run the paged oracle (saves the log and re-opens it through a
  /// PageStore + BufferPool with a seed-randomized budget).
  bool CheckPaged = true;
  /// Run the streamed-vs-batch oracle (re-runs the program with a cut
  /// sealer hooked into scheduler rounds, ingests the cuts through an
  /// in-process IngestRegistry, and demands the final frontier equal the
  /// batch log bit-for-bit — with sampled mid-run frontiers answering
  /// tail queries exactly like a batch load of the same prefix).
  bool CheckStream = true;
  /// Directory for the on-disk log round-trips.
  std::string TempDir = "/tmp";
};

/// The verdict of one differential run.
struct DiffReport {
  bool Divergent = false;
  /// Stable oracle name ("mode/plain-vs-logging", "spec/trace", ...): the
  /// minimizer preserves it so shrinking cannot wander to a different bug.
  std::string Oracle;
  std::string Detail;
  /// Reference-run facts (the Logging run), for harness stats.
  int Outcome = 0; ///< RunResult::Status as int.
  bool RaceFree = true;
  unsigned Races = 0;
  uint64_t Steps = 0;
  unsigned Intervals = 0;
};

/// Compiles \p Source and runs the full oracle matrix with scheduling seed
/// \p SchedSeed and quantum \p Quantum. A program that fails to compile is
/// reported as Oracle == "compile" (the generator promises never to
/// produce one — so it is a generator bug, and still a finding).
DiffReport runDifferential(const std::string &Source, uint64_t SchedSeed,
                           uint32_t Quantum, const DiffConfig &Config = {});

/// The spec/trace leg on its own: runs \p Prog under Logging and FullTrace
/// with \p Opts (its Mode is ignored), replays every logged interval on the
/// interpreter, and demands each process's full trace equal its replays
/// spliced in log order (a prefix, for a process the machine froze).
/// Returns "" or the first difference. The theorem holds on race-free
/// instances only; checking race freedom is the caller's job.
std::string checkReplayTheorem(const CompiledProgram &Prog,
                               MachineOptions Opts);

} // namespace ppd::testing

#endif // PPD_TESTING_DIFFORACLES_H
