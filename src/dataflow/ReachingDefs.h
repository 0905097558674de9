//===- dataflow/ReachingDefs.h - Def-use chains -----------------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic reaching-definitions analysis over a function's Cfg, producing
/// the def-use chains from which the static program dependence graph draws
/// its data-dependence edges (§4.1). Definition points:
///
///  * the ENTRY node defines every global and the function's own
///    parameters and locals (parameters arrive defined; globals carry
///    values from before the call; an uninitialized local read is thus
///    reported as depending on ENTRY),
///  * a statement defines the variables it writes directly,
///  * a call statement additionally defines MOD(callee) — the
///    interprocedural component the paper gets from [2].
///
/// Kills are strong only for direct scalar writes and whole-array
/// declarations; array element stores and call-MOD effects are weak (may-
/// writes), so earlier definitions keep reaching.
///
/// Templated over the set representation for experiment E6; sets here range
/// over dense definition ids, not variable ids. Nothing is sized to the
/// program's variable count: definitions are indexed by the sorted list of
/// variables this function can define (the globals and its own frame), so
/// the analysis costs O(function + globals).
///
//===----------------------------------------------------------------------===//

#ifndef PPD_DATAFLOW_REACHINGDEFS_H
#define PPD_DATAFLOW_REACHINGDEFS_H

#include "cfg/Cfg.h"
#include "dataflow/ModRef.h"
#include "sema/Accesses.h"
#include "sema/Symbols.h"
#include "support/VarSet.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace ppd {

/// One definition point: CFG node \p Node may write \p Var.
struct Definition {
  CfgNodeId Node;
  VarId Var;
  bool Strong; ///< definitely overwrites the whole variable.
};

template <VariableSet Set> class ReachingDefs {
public:
  ReachingDefs(const Program &P, const SymbolTable &Symbols, const Cfg &G,
               const ModRefResult<Set> &MR)
      : Symbols(Symbols), G(G) {
    collectDefinitions(P, MR);
    solve();
  }

  const std::vector<Definition> &definitions() const { return Defs; }

  /// Definition ids reaching the entry of \p Node.
  const Set &reachIn(CfgNodeId Node) const { return In[Node]; }

  /// The definitions of \p Var that reach the entry of \p Use — i.e. the
  /// possible sources of a read of Var at Use.
  std::vector<unsigned> reachingDefsOf(CfgNodeId Use, VarId Var) const {
    std::vector<unsigned> Out;
    size_t Idx = defIndex(Var);
    if (Idx == DefVars.size())
      return Out;
    for (unsigned DefId : DefsOfVar[Idx])
      if (In[Use].contains(DefId))
        Out.push_back(DefId);
    return Out;
  }

private:
  /// Position of \p Var in DefVars, or DefVars.size() when the function
  /// cannot define it.
  size_t defIndex(VarId Var) const {
    auto It = std::lower_bound(DefVars.begin(), DefVars.end(), Var);
    return It != DefVars.end() && *It == Var ? size_t(It - DefVars.begin())
                                             : DefVars.size();
  }

  void collectDefinitions(const Program &P, const ModRefResult<Set> &MR) {
    // A function can write only the globals and its own params and locals
    // (MOD sets hold globals only). Sema declares globals first and a
    // frame's variables in order, so that list is ascending by VarId.
    const std::vector<VarId> &Own = Symbols.frame(G.func()).Vars;
    DefVars = Symbols.Globals;
    DefVars.insert(DefVars.end(), Own.begin(), Own.end());
    DefsOfVar.resize(DefVars.size());
    Gen.resize(G.size());
    StrongKillVars.resize(G.size());

    auto AddDef = [&](CfgNodeId Node, VarId Var, bool Strong) {
      unsigned Id = unsigned(Defs.size());
      size_t Idx = defIndex(Var);
      assert(Idx != DefVars.size() && "write to a variable out of scope");
      Defs.push_back({Node, Var, Strong});
      DefsOfVar[Idx].push_back(Id);
      Gen[Node].insert(Id);
      if (Strong)
        StrongKillVars[Node].push_back(Var);
    };

    // ENTRY defines every one of them.
    for (VarId V : DefVars)
      AddDef(Cfg::EntryId, V, /*Strong=*/true);

    for (CfgNodeId Node = 0; Node != G.size(); ++Node) {
      const CfgNode &N = G.node(Node);
      if (N.Kind != CfgNodeKind::Stmt)
        continue;
      const Stmt *S = P.stmt(N.Stmt);
      StmtAccesses Acc = collectStmtAccesses(*S);
      for (VarId V : Acc.Writes) {
        const VarInfo &Info = Symbols.var(V);
        // Array element stores are weak updates; whole-array declarations
        // (zero-fill) and scalar stores are strong.
        bool Strong = !Info.isArray() || isa<VarDeclStmt>(S);
        AddDef(Node, V, Strong);
      }
      for (const FuncDecl *Callee : Acc.Callees)
        for (unsigned V : MR.Mod[Callee->Index].toVector())
          AddDef(Node, VarId(V), /*Strong=*/false);
    }
  }

  void solve() {
    In.resize(G.size());
    std::vector<Set> Out(G.size());

    // Precompute per-node kill sets (definition ids of strongly killed
    // vars, minus the node's own gens).
    std::vector<Set> Kill(G.size());
    for (CfgNodeId Node = 0; Node != G.size(); ++Node) {
      for (VarId V : StrongKillVars[Node])
        for (unsigned DefId : DefsOfVar[defIndex(V)])
          if (Defs[DefId].Node != Node)
            Kill[Node].insert(DefId);
    }

    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (CfgNodeId Node : G.reversePostOrder()) {
        Set NewIn;
        for (CfgNodeId Pred : G.node(Node).Preds)
          NewIn.unionWith(Out[Pred]);
        if (!(NewIn == In[Node])) {
          In[Node] = NewIn;
          Changed = true;
        }
        Set NewOut = NewIn;
        NewOut.subtract(Kill[Node]);
        NewOut.unionWith(Gen[Node]);
        if (!(NewOut == Out[Node])) {
          Out[Node] = std::move(NewOut);
          Changed = true;
        }
      }
    }
  }

  const SymbolTable &Symbols;
  const Cfg &G;
  std::vector<Definition> Defs;
  std::vector<VarId> DefVars;                    ///< ascending.
  std::vector<std::vector<unsigned>> DefsOfVar; ///< parallel to DefVars.
  std::vector<Set> Gen;                          ///< by node.
  std::vector<std::vector<VarId>> StrongKillVars;
  std::vector<Set> In;
};

} // namespace ppd

#endif // PPD_DATAFLOW_REACHINGDEFS_H
