//===- pdg/StaticPdg.cpp --------------------------------------------------===//
//
// Part of PPD. See StaticPdg.h.
//
//===----------------------------------------------------------------------===//

#include "pdg/StaticPdg.h"

#include "lang/AstPrinter.h"
#include "sema/Accesses.h"
#include "support/DotWriter.h"

#include <set>

using namespace ppd;

StaticPdg::StaticPdg(const Program &P, const SymbolTable &Symbols,
                     const Cfg &G, const ModRefResult<BitVarSet> &MR)
    : P(P), Symbols(Symbols), G(G), CD(G, DomTree(G, /*Post=*/true)) {
  ReachingDefs<BitVarSet> RD(P, Symbols, G, MR);

  DataIn.resize(G.size());
  for (CfgNodeId Node = 0; Node != G.size(); ++Node) {
    const CfgNode &N = G.node(Node);
    if (N.Kind != CfgNodeKind::Stmt)
      continue;
    StmtAccesses Acc = collectStmtAccesses(*P.stmt(N.Stmt));

    // Reads: the statement's own, plus REF of called functions (the callee
    // may read the global, so its value flows into the call).
    BitVarSet ReadVars;
    for (VarId V : Acc.Reads)
      ReadVars.insert(V);
    for (const FuncDecl *Callee : Acc.Callees)
      ReadVars.unionWith(MR.Ref[Callee->Index]);

    std::set<std::pair<CfgNodeId, VarId>> Seen;
    for (unsigned V : ReadVars.toVector()) {
      for (unsigned DefId : RD.reachingDefsOf(Node, VarId(V))) {
        const Definition &D = RD.definitions()[DefId];
        if (Seen.insert({D.Node, VarId(V)}).second)
          DataIn[Node].push_back({D.Node, Node, VarId(V)});
      }
    }
  }
}

std::vector<DataDep> StaticPdg::allDataDeps() const {
  std::vector<DataDep> Out;
  for (const std::vector<DataDep> &Deps : DataIn)
    Out.insert(Out.end(), Deps.begin(), Deps.end());
  return Out;
}

std::string StaticPdg::dot(const Program &P) const {
  DotWriter W("static_pdg_" + G.func().Name);
  auto NodeId = [](CfgNodeId Node) { return "n" + std::to_string(Node); };

  for (CfgNodeId Node = 0; Node != G.size(); ++Node) {
    const CfgNode &N = G.node(Node);
    switch (N.Kind) {
    case CfgNodeKind::Entry:
      W.node(NodeId(Node), "ENTRY " + G.func().Name, {"shape=box"});
      break;
    case CfgNodeKind::Exit:
      W.node(NodeId(Node), "EXIT", {"shape=box"});
      break;
    case CfgNodeKind::Stmt:
      W.node(NodeId(Node), AstPrinter::summarize(*P.stmt(N.Stmt)) + "  s" +
                               std::to_string(N.Stmt),
             {"shape=ellipse"});
      break;
    }
  }

  for (CfgNodeId Node = 0; Node != G.size(); ++Node) {
    for (const ControlDep &Dep : CD.parents(Node)) {
      std::vector<std::string> Attrs = {"style=dashed"};
      if (Dep.Label == 1)
        Attrs.push_back("label=\"T\"");
      else if (Dep.Label == 0)
        Attrs.push_back("label=\"F\"");
      W.edge(NodeId(Dep.Branch), NodeId(Node), Attrs);
    }
    for (const DataDep &Dep : DataIn[Node])
      W.edge(NodeId(Dep.From), NodeId(Dep.To),
             {"label=\"" + DotWriter::escape(Symbols.var(Dep.Var).Name) +
              "\""});
  }
  return W.str();
}
