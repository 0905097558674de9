//===- core/GraphBuilder.h - Trace → dynamic graph --------------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns one replayed interval's trace into a dynamic-graph fragment:
/// singular nodes per statement execution, sub-graph nodes per call
/// (expanded inline for inherited leaves, unexpanded CallSkipped for
/// logged callees), %n parameter nodes (Fig 4.1), data-dependence edges
/// resolved against the actual writer events, dynamic control-dependence
/// edges to the most recent execution of the governing predicate, and
/// flow edges in execution order.
///
/// Reads whose producer lies outside the interval are returned as
/// *unresolved*: locals fall back to the interval's ENTRY node (their
/// values came from the prelog); shared globals are reported to the
/// controller, which resolves them across intervals and processes (§6.3)
/// — the incremental step of incremental tracing.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_CORE_GRAPHBUILDER_H
#define PPD_CORE_GRAPHBUILDER_H

#include "compiler/CompiledProgram.h"
#include "core/DynamicGraph.h"
#include "trace/TraceEvent.h"

#include <map>
#include <vector>

namespace ppd {

/// A read whose producing write lies outside the built fragment.
struct UnresolvedRead {
  DynNodeId Node = InvalidId; ///< the reading node.
  VarId Var = InvalidId;
  int64_t Index = -1;
  int64_t Value = 0;
  /// Log-record position of the reading event (locates its internal edge
  /// for cross-process resolution).
  uint32_t LogCursor = 0;
};

/// An unexpanded sub-graph node and where its callee's records begin.
struct SkippedCall {
  DynNodeId Node = InvalidId;
  uint32_t CalleeRecordsAt = 0; ///< record index of the nested prelog.
};

struct BuiltFragment {
  DynNodeId EntryNode = InvalidId;
  /// Event index → node id (CallEnd events map to their sub-graph node).
  std::vector<DynNodeId> EventNodes;
  std::vector<UnresolvedRead> Unresolved;
  std::vector<SkippedCall> Skipped;
  /// The last event node — the failure statement when the replay re-hit
  /// the error.
  DynNodeId LastNode = InvalidId;
};

class GraphBuilder {
public:
  GraphBuilder(const CompiledProgram &Prog, DynamicGraph &Graph)
      : Prog(Prog), Graph(Graph) {}

  /// Appends the fragment for interval \p IntervalIdx of \p Pid.
  BuiltFragment addInterval(uint32_t Pid, uint32_t IntervalIdx,
                            const TraceBuffer &Events);

private:
  using WriterKey = std::pair<VarId, int64_t>; // (var, element or -1)

  struct Scope {
    uint32_t Func = InvalidId;
    DynNodeId SubGraph = InvalidId; ///< enclosing sub-graph node.
    DynNodeId Entry = InvalidId;    ///< callee-local ENTRY node.
    std::map<WriterKey, DynNodeId> LocalWriters;
    std::map<StmtId, DynNodeId> LastPredicate;
    DynNodeId LastStmtNode = InvalidId;
    const TraceEvent *LastStmtEvent = nullptr; ///< LastStmtNode's event.
  };

  /// Most recent writer of (var, index), honoring whole-array writes.
  DynNodeId lookupWriter(const std::map<WriterKey, DynNodeId> &Map,
                         VarId Var, int64_t Index) const;
  void recordWrite(std::map<WriterKey, DynNodeId> &Map, VarId Var,
                   int64_t Index, DynNodeId Node) const;

  const CompiledProgram &Prog;
  DynamicGraph &Graph;
};

} // namespace ppd

#endif // PPD_CORE_GRAPHBUILDER_H
