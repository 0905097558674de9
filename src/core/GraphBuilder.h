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

#include <string_view>
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
  GraphBuilder(const CompiledProgram &Prog, DynamicGraph &Graph);

  /// Appends the fragment for interval \p IntervalIdx of \p Pid.
  BuiltFragment addInterval(uint32_t Pid, uint32_t IntervalIdx,
                            const TraceBuffer &Events);

  /// The label of the node standing for \p Var's value from before the
  /// traced region ("initial x").
  std::string_view initialLabel(VarId Var);

private:
  /// A recorded write (or predicate execution) and when it happened.
  /// Seq grows with every write, scope and interval, so an entry older
  /// than the current scope or interval reads as absent without anything
  /// being cleared.
  struct Write {
    DynNodeId Node = InvalidId;
    uint64_t Seq = 0;
  };
  struct Scope {
    DynNodeId SubGraph = InvalidId; ///< enclosing sub-graph node.
    DynNodeId Entry = InvalidId;    ///< callee-local ENTRY node.
    uint64_t StartSeq = 0; ///< locals and predicates older are an outer's.
    DynNodeId LastStmtNode = InvalidId;
    const TraceEvent *LastStmtEvent = nullptr; ///< LastStmtNode's event.
  };
  /// The variables each argument expression of one call reads.
  struct CallSite {
    uint32_t Callee = InvalidId;
    uint32_t Next = InvalidId; ///< the statement's next call site.
    uint32_t FirstArg = 0;     ///< into ArgSpans.
    uint32_t NumArgs = 0;      ///< of the call expression.
  };

  /// Most recent writer of (var, index) at or after \p ValidFrom; an
  /// element read falls back to a later whole-variable write.
  DynNodeId lookupWriter(VarId Var, int64_t Index, uint64_t ValidFrom) const;
  /// Records \p Node as the writer of (var, index). A whole-variable
  /// write (index -1) supersedes every earlier element write.
  void recordWrite(VarId Var, int64_t Index, DynNodeId Node);
  void openScope(DynNodeId SubGraph, DynNodeId Entry);
  /// The slot of element \p Index of array \p Var (allocated on first
  /// use), or null for an index outside the array.
  Write *elementSlot(VarId Var, int64_t Index);

  uint32_t callSite(StmtId Stmt, uint32_t Callee);
  std::string_view stmtLabel(StmtId Stmt);
  std::string_view paramLabel(size_t ArgIdx);

  const CompiledProgram &Prog;
  DynamicGraph &Graph;

  uint64_t Seq = 0;
  uint64_t IntervalSeq = 0; ///< Seq when the current interval began.
  std::vector<Scope> Scopes;
  std::vector<Write> Whole;                 ///< by VarId.
  std::vector<std::vector<Write>> Elements; ///< by VarId, then index.
  std::vector<Write> LastPredicate;         ///< by StmtId.

  std::vector<uint32_t> SiteOfStmt; ///< first CallSite, by StmtId.
  std::vector<CallSite> Sites;
  std::vector<std::pair<uint32_t, uint32_t>> ArgSpans; ///< into ArgVars.
  std::vector<VarId> ArgVars;

  /// Interned labels, built on first use.
  std::vector<std::string_view> StmtLabels;                  ///< by StmtId.
  std::vector<std::string_view> CallLabels, SkippedLabels,   ///< by callee.
      EntryLabels;
  std::vector<std::string_view> ParamLabels;                 ///< %1, %2, ...
  std::vector<std::string_view> InitialLabels;               ///< by VarId.
};

} // namespace ppd

#endif // PPD_CORE_GRAPHBUILDER_H
