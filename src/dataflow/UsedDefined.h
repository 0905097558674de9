//===- dataflow/UsedDefined.h - E-block USED/DEFINED sets -------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Computes the paper's USED(i)/DEFINED(i) sets (§5.1) for an e-block,
/// viewed as a single-entry region of a function's Cfg:
///
///   USED(i)    = variables that may be read by E_i before being written —
///                the prelog contents. Computed as upward-exposed reads by
///                a backward fixpoint restricted to the region. The
///                postlog counts as a read at every region exit: it
///                captures each DEFINED variable there, and replay checks
///                the non-shared ones against it, so a variable that only
///                some paths write is exposed along the paths that skip
///                the write.
///   DEFINED(i) = variables that may be written by E_i — the postlog
///                contents. A simple union over the region.
///
/// Interprocedural refinement (this is where incremental tracing gets its
/// savings, §5.4):
///   * calls to functions that are themselves e-blocks ("logged") add
///     nothing to USED — replay applies the callee's postlog instead of
///     re-executing it (Fig 5.2) — but their MOD is still in DEFINED so
///     the outer postlog captures the final state;
///   * calls to unlogged (inherited leaf) functions add REF to reads and
///     MOD to writes: the caller logs on the leaf's behalf.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_DATAFLOW_USEDDEFINED_H
#define PPD_DATAFLOW_USEDDEFINED_H

#include "cfg/Cfg.h"
#include "dataflow/ModRef.h"
#include "sema/Accesses.h"
#include "sema/Symbols.h"
#include "support/VarSet.h"

#include <functional>
#include <vector>

namespace ppd {

template <VariableSet Set> struct RegionSummary {
  Set Used;
  Set Defined;
};

/// Computes USED/DEFINED for the region consisting of \p RegionNodes
/// (which must include \p EntryNode and be closed under the paths replay
/// can take, i.e. single-entry). \p IsLogged says whether a callee is
/// itself an e-block.
template <VariableSet Set>
RegionSummary<Set>
computeUsedDefined(const Program &P, const SymbolTable &Symbols, const Cfg &G,
                   const std::vector<CfgNodeId> &RegionNodes,
                   CfgNodeId EntryNode, const ModRefResult<Set> &MR,
                   const std::function<bool(const FuncDecl &)> &IsLogged) {
  std::vector<bool> InRegion(G.size(), false);
  for (CfgNodeId Node : RegionNodes)
    InRegion[Node] = true;
  assert(InRegion[EntryNode] && "region must contain its entry");

  // Per-node contributions.
  std::vector<Set> Reads(G.size());
  std::vector<Set> StrongKills(G.size());
  RegionSummary<Set> Result;

  for (CfgNodeId Node : RegionNodes) {
    const CfgNode &N = G.node(Node);
    if (N.Kind != CfgNodeKind::Stmt)
      continue;
    const Stmt *S = P.stmt(N.Stmt);
    StmtAccesses Acc = collectStmtAccesses(*S);
    for (VarId V : Acc.Reads)
      Reads[Node].insert(V);
    for (VarId V : Acc.Writes) {
      Result.Defined.insert(V);
      const VarInfo &Info = Symbols.var(V);
      if (!Info.isArray() || isa<VarDeclStmt>(S))
        StrongKills[Node].insert(V);
    }
    for (const FuncDecl *Callee : Acc.Callees) {
      if (!IsLogged(*Callee))
        Reads[Node].unionWith(MR.Ref[Callee->Index]);
      Result.Defined.unionWith(MR.Mod[Callee->Index]);
    }
  }

  // What the postlog reads when control leaves the region. Postlog
  // verification skips shared variables (another process may legitimately
  // write them before the capture), so they need no entry value.
  Set AtExit;
  for (unsigned V : Result.Defined.toVector())
    if (!Symbols.var(VarId(V)).isShared())
      AtExit.insert(V);

  // Backward fixpoint for upward-exposed reads:
  //   Exposed(n) = Reads(n) ∪ (Out(n) − StrongKills(n))
  //   Out(n)     = ∪_{s∈succ(n)∩region} Exposed(s), plus AtExit when n
  //                has a successor outside the region or none at all
  // Note reads of n happen before n's own writes, so Reads(n) is added
  // after subtracting kills.
  std::vector<Set> Exposed(G.size());
  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Reverse RPO approximates a backward-friendly order.
    const std::vector<CfgNodeId> &Rpo = G.reversePostOrder();
    for (auto It = Rpo.rbegin(), E = Rpo.rend(); It != E; ++It) {
      CfgNodeId Node = *It;
      if (!InRegion[Node])
        continue;
      Set NewExposed;
      const auto &Succs = G.node(Node).Succs;
      if (Succs.empty())
        NewExposed.unionWith(AtExit);
      for (const CfgSucc &Succ : Succs)
        NewExposed.unionWith(InRegion[Succ.Node] ? Exposed[Succ.Node]
                                                 : AtExit);
      NewExposed.subtract(StrongKills[Node]);
      NewExposed.unionWith(Reads[Node]);
      if (!(NewExposed == Exposed[Node])) {
        Exposed[Node] = std::move(NewExposed);
        Changed = true;
      }
    }
  }

  Result.Used = Exposed[EntryNode];
  return Result;
}

} // namespace ppd

#endif // PPD_DATAFLOW_USEDDEFINED_H
