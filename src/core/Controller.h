//===- core/Controller.h - The PPD Controller -------------------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PPD Controller of the debugging phase (Fig 3.3): it reads the
/// execution log through a paged store, directs the emulation package to
/// regenerate traces for exactly the log intervals the user's queries
/// need ("incremental tracing", §5.3), and incrementally assembles the
/// dynamic program dependence graph:
///
///   * a session starts at the failure — the last prelog without a
///     matching postlog in the failed process (§5.3) — whose replay
///     re-derives the failing event as the flowback root;
///   * flowback queries walk the graph backwards; requests that leave the
///     traced region trigger further interval replays;
///   * shared reads fed by other processes are resolved through the
///     parallel dynamic graph (§6.3), pulling the producer's interval in
///     on demand — or reporting a race when the writer is simultaneous;
///   * sub-graph nodes for skipped nested intervals expand on demand
///     (Fig 5.2);
///   * what-if experiments and postlog-based state restoration implement
///     §5.7.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_CORE_CONTROLLER_H
#define PPD_CORE_CONTROLLER_H

#include "compiler/CompiledProgram.h"
#include "core/DynamicGraph.h"
#include "core/GraphBuilder.h"
#include "core/Replay.h"
#include "core/ReplayService.h"
#include "log/ExecutionLog.h"
#include "pardyn/ParallelDynamicGraph.h"
#include "pardyn/RaceDetector.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace ppd {

/// How a cross-process read was resolved.
struct CrossReadResolution {
  enum class Kind {
    Resolved,   ///< producer found and traced; edge added.
    Initial,    ///< no writer happens-before: the initial shared value.
    Race,       ///< a simultaneous writer exists — the §6.3 race case.
    Unknown     ///< producer's interval is missing from the log.
  };
  Kind Outcome = Kind::Unknown;
  DynNodeId Producer = InvalidId; ///< when Resolved.
  EdgeRef RaceEdge;               ///< when Race: the conflicting edge.
};

/// Restored global state (§5.7: accumulated postlogs).
struct RestoredState {
  std::vector<int64_t> Shared;
  std::vector<int64_t> PrivateGlobals;
};

/// Cost counters for the experiments (E2/E3/E8). Replays and
/// ReplayInstructions mirror the replay service's engine counters: cache
/// hits do not increment them — the point of memoization.
struct ControllerStats {
  uint64_t Replays = 0;
  uint64_t ReplayInstructions = 0;
  uint64_t EventsTraced = 0;
  size_t TraceBytes = 0;
};

struct PpdControllerOptions {
  /// Replay service configuration: the trace-cache budget, or a cache and
  /// single-flight table shared with other sessions. The controller's
  /// Replays counter equals exactly the intervals queries demanded that
  /// the cache did not already hold.
  ReplayServiceOptions Service;
  /// A pre-built parallel dynamic graph (the `.ppdb` sidecar's) to adopt
  /// instead of constructing one on first use. Constructing it scans
  /// every process's sync records — in paged mode that faults every
  /// section in — so adoption is what makes a warm open's first query
  /// touch only the sections it actually replays.
  std::shared_ptr<const ParallelDynamicGraph> AdoptedGraph;
};

class PpdController {
public:
  /// A session over a log a run just recorded: \p Log becomes an
  /// in-memory store with a private, unbounded pool (PagedLog::fromLog),
  /// and everything below reads it exactly as it reads a file.
  PpdController(const CompiledProgram &Prog, const ExecutionLog &Log,
                PpdControllerOptions Options = {});

  /// Record streams stay in \p Log's store and fault in through its
  /// buffer pool. \p Index may carry a pre-built index (the `.ppdb`
  /// sidecar's, or a stream's incrementally maintained one); null skims
  /// one from the store without decoding record bodies.
  PpdController(const CompiledProgram &Prog, PagedLog Log,
                std::shared_ptr<const LogIndex> Index = nullptr,
                PpdControllerOptions Options = {});

  const CompiledProgram &program() const { return Prog; }
  uint32_t numProcs() const { return Log.Store->numProcs(); }
  const LogIndex &logIndex() const { return Index; }

  /// Why the log can no longer be trusted — it changed since open, or a
  /// section is corrupt — or empty while it can. Sticky: once set, every
  /// answer the controller computed may be partial, and callers report
  /// this instead.
  std::string logFailure() const;
  DynamicGraph &graph() { return Graph; }
  const DynamicGraph &graph() const { return Graph; }
  const ControllerStats &stats() const { return Stats; }

  /// Replays interval \p IntervalIdx of \p Pid (through the replay
  /// cache) and splices its fragment into the graph. Returns null on
  /// replay divergence.
  const BuiltFragment *ensureInterval(uint32_t Pid, uint32_t IntervalIdx);

  /// The cached replay layer (cache and engine counters).
  ReplayService &replayService() { return Service; }
  const ReplayService &replayService() const { return Service; }

  /// The replay result backing a traced interval (null if not traced).
  const ReplayResult *replayOf(uint32_t Pid, uint32_t IntervalIdx) const;

  /// Starts a session at the failure point of \p Pid: replays the last
  /// open interval and returns the failing event's node (InvalidId if the
  /// process has no open interval).
  DynNodeId startAtFailure(uint32_t Pid);

  /// Starts a session at the last executed event of \p Pid's last
  /// interval (user-initiated halt).
  DynNodeId startAtLastEvent(uint32_t Pid);

  /// Backward flowback step: the dependence edges into \p Node, in the
  /// order they were added, after resolving this node's pending
  /// cross-process reads.
  DynamicGraph::EdgeRange dependencesOf(DynNodeId Node);

  /// Forward flow (the paper's §1: "the programmer can see, either forward
  /// or backward, how information flowed"): dependence edges out of
  /// \p Node within the traced region. Consumers not yet traced are not
  /// discovered — forward influence is bounded by what has been replayed.
  DynamicGraph::EdgeRange influencesOf(DynNodeId Node) const {
    return Graph.outEdges(Node);
  }

  /// Resolves every unresolved shared read of every traced fragment,
  /// pulling producer intervals in as needed. Returns the number of
  /// resolutions performed.
  unsigned resolveAllCrossReads();

  /// Expands a sub-graph node created for a skipped nested interval:
  /// replays the callee's first interval and links it in. Returns the
  /// callee fragment's entry node.
  DynNodeId expandCall(DynNodeId SubGraphNode);

  /// The parallel dynamic graph (§6.1), built on first use. If a section
  /// cannot be read or its sync records are inconsistent, the graph is
  /// empty and logFailure() says why.
  const ParallelDynamicGraph &parallelGraph();

  /// Race detection over the parallel dynamic graph (Defs 6.1–6.4); the
  /// debugger `races` command and the server's race query ride on it.
  RaceDetectionResult detectRaces();

  /// §5.7 what-if: replays an interval with value overrides. Memoized
  /// like faithful replays — the override list's fingerprint is part of
  /// the cache key, so distinct experiments never alias.
  ReplayResult whatIf(uint32_t Pid, uint32_t IntervalIdx,
                      const std::vector<ReplayOverride> &Overrides);

  /// §5.7 restoration: global state as of process \p Pid's postlog of
  /// interval \p UptoInterval, from accumulated postlogs.
  RestoredState restoreGlobals(uint32_t Pid, uint32_t UptoInterval) const;

private:
  struct CacheEntry {
    /// Shared with the replay cache; stays valid if evicted there.
    ReplayService::ReplayPtr Replay;
    BuiltFragment Fragment;
  };

  /// One past the last record of \p Pid — the open-interval end marker,
  /// from the section header.
  uint32_t recordEnd(uint32_t Pid) const;
  /// Every sync node's statement is one of the program's.
  bool stmtsInRange(const ParallelDynamicGraph &PG) const;

  CrossReadResolution resolveCrossRead(uint32_t ReaderPid,
                                       const UnresolvedRead &Read);
  /// Finds the node of the write to (Var) within \p Producer's internal
  /// edge, tracing the producer's interval.
  DynNodeId materializeWriter(EdgeRef Producer, VarId Var, int64_t Index,
                              bool &TraceOk);
  void spliceSyncEdges(uint32_t Pid, uint32_t IntervalIdx);
  DynNodeId eventNodeNear(uint32_t Pid, uint32_t RecordIdx, StmtId Stmt);

  void syncServiceStats();

  const CompiledProgram &Prog;
  PagedLog Log;
  LogIndex Index;
  ReplayService Service;
  DynamicGraph Graph;
  GraphBuilder Builder;
  std::map<std::pair<uint32_t, uint32_t>, CacheEntry> Cache;
  std::shared_ptr<const ParallelDynamicGraph> ParGraph;
  ControllerStats Stats;
};

} // namespace ppd

#endif // PPD_CORE_CONTROLLER_H
