//===- pdg/SimplifiedStaticGraph.cpp --------------------------------------===//
//
// Part of PPD. See SimplifiedStaticGraph.h.
//
//===----------------------------------------------------------------------===//

#include "pdg/SimplifiedStaticGraph.h"

#include "lang/AstPrinter.h"
#include "sema/Accesses.h"
#include "support/DotWriter.h"

#include <algorithm>
#include <deque>

using namespace ppd;

bool ppd::exprContainsRecv(const Expr &E) {
  switch (E.getKind()) {
  case ExprKind::Recv:
    return true;
  case ExprKind::IntLit:
  case ExprKind::VarRef:
  case ExprKind::Input:
    return false;
  case ExprKind::ArrayIndex:
    return exprContainsRecv(*cast<ArrayIndexExpr>(&E)->Index);
  case ExprKind::Unary:
    return exprContainsRecv(*cast<UnaryExpr>(&E)->Operand);
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(&E);
    return exprContainsRecv(*B->Lhs) || exprContainsRecv(*B->Rhs);
  }
  case ExprKind::Call: {
    const auto *C = cast<CallExpr>(&E);
    for (const ExprPtr &Arg : C->Args)
      if (exprContainsRecv(*Arg))
        return true;
    return false;
  }
  }
  return false;
}

/// True if the statement's own expressions perform a receive.
static bool stmtContainsRecv(const Stmt &S) {
  switch (S.getKind()) {
  case StmtKind::VarDecl: {
    const auto *D = cast<VarDeclStmt>(&S);
    return D->Init && exprContainsRecv(*D->Init);
  }
  case StmtKind::Assign: {
    const auto *A = cast<AssignStmt>(&S);
    return exprContainsRecv(*A->Value) ||
           (A->Index && exprContainsRecv(*A->Index));
  }
  case StmtKind::If:
    return exprContainsRecv(*cast<IfStmt>(&S)->Cond);
  case StmtKind::While:
    return exprContainsRecv(*cast<WhileStmt>(&S)->Cond);
  case StmtKind::For: {
    const auto *F = cast<ForStmt>(&S);
    return F->Cond && exprContainsRecv(*F->Cond);
  }
  case StmtKind::Return: {
    const auto *R = cast<ReturnStmt>(&S);
    return R->Value && exprContainsRecv(*R->Value);
  }
  case StmtKind::Expr:
    return exprContainsRecv(*cast<ExprStmt>(&S)->Call);
  case StmtKind::Print:
    return exprContainsRecv(*cast<PrintStmt>(&S)->Value);
  case StmtKind::Send:
    return exprContainsRecv(*cast<SendStmt>(&S)->Value);
  default:
    return false;
  }
}

SimplifiedStaticGraph::SimplifiedStaticGraph(
    const Program &P, const SymbolTable &Symbols, const Cfg &G,
    const ModRefResult<BitVarSet> &MR,
    const std::function<bool(const FuncDecl &)> &IsLogged)
    : G(G) {
  computeBoundaries(P, IsLogged);
  buildUnits(P, Symbols, MR, IsLogged);
}

void SimplifiedStaticGraph::computeBoundaries(
    const Program &P, const std::function<bool(const FuncDecl &)> &IsLogged) {
  Boundary.assign(G.size(), false);
  Branching.assign(G.size(), false);
  Boundary[Cfg::EntryId] = true;
  Boundary[Cfg::ExitId] = true;

  for (CfgNodeId Node = 0; Node != G.size(); ++Node) {
    const CfgNode &N = G.node(Node);
    if (N.Kind != CfgNodeKind::Stmt)
      continue;
    const Stmt *S = P.stmt(N.Stmt);

    switch (S->getKind()) {
    case StmtKind::P:
    case StmtKind::V:
    case StmtKind::Send:
    case StmtKind::Spawn:
      Boundary[Node] = true;
      continue;
    case StmtKind::If:
    case StmtKind::While:
    case StmtKind::For:
      Branching[Node] = true;
      break;
    default:
      break;
    }

    if (stmtContainsRecv(*S)) {
      Boundary[Node] = true;
      continue;
    }
    // Calls to logged subroutines are unit boundaries: the callee replays
    // from its own logs, so shared state may be arbitrarily stale on
    // return.
    StmtAccesses Acc = collectStmtAccesses(*S);
    for (const FuncDecl *Callee : Acc.Callees)
      if (IsLogged(*Callee))
        Boundary[Node] = true;
  }
}

void SimplifiedStaticGraph::buildUnits(
    const Program &P, const SymbolTable &Symbols,
    const ModRefResult<BitVarSet> &MR,
    const std::function<bool(const FuncDecl &)> &IsLogged) {
  for (CfgNodeId Start = 0; Start != G.size(); ++Start) {
    if (!Boundary[Start] || Start == Cfg::ExitId)
      continue;

    SyncUnit Unit;
    Unit.Id = uint32_t(Units.size());
    Unit.Start = Start;

    // BFS: include the start node and everything reachable without
    // crossing another boundary; a terminating boundary node is included
    // (its operand reads execute before its synchronization point) but not
    // expanded.
    std::vector<bool> Visited(G.size(), false);
    std::deque<CfgNodeId> Work;
    Work.push_back(Start);
    Visited[Start] = true;
    while (!Work.empty()) {
      CfgNodeId Node = Work.front();
      Work.pop_front();
      Unit.Members.push_back(Node);
      if (Boundary[Node] && Node != Start)
        continue;
      for (const CfgSucc &Succ : G.node(Node).Succs)
        if (!Visited[Succ.Node]) {
          Visited[Succ.Node] = true;
          Work.push_back(Succ.Node);
        }
    }
    std::sort(Unit.Members.begin(), Unit.Members.end());

    // Shared variables possibly read inside the unit.
    BitVarSet Shared;
    for (CfgNodeId Member : Unit.Members) {
      const CfgNode &N = G.node(Member);
      if (N.Kind != CfgNodeKind::Stmt)
        continue;
      StmtAccesses Acc = collectStmtAccesses(*P.stmt(N.Stmt));
      for (VarId V : Acc.Reads)
        if (Symbols.var(V).isShared())
          Shared.insert(V);
      for (const FuncDecl *Callee : Acc.Callees) {
        if (IsLogged(*Callee))
          continue; // the callee's own units cover its shared reads
        for (unsigned V : MR.Ref[Callee->Index].toVector())
          if (Symbols.var(VarId(V)).isShared())
            Shared.insert(V);
      }
    }
    for (unsigned V : Shared.toVector())
      Unit.SharedReads.push_back(VarId(V));

    Units.push_back(std::move(Unit));
  }
}

const SyncUnit *SimplifiedStaticGraph::unitStartingAt(CfgNodeId Node) const {
  for (const SyncUnit &U : Units)
    if (U.Start == Node)
      return &U;
  return nullptr;
}

std::string SimplifiedStaticGraph::dot(const Program &P) const {
  DotWriter W("simplified_static_" + G.func().Name);
  auto NodeId = [](CfgNodeId Node) { return "n" + std::to_string(Node); };

  // Nodes of the simplified graph: boundaries and branch predicates.
  std::vector<bool> Keep(G.size(), false);
  for (CfgNodeId Node = 0; Node != G.size(); ++Node)
    Keep[Node] = Boundary[Node] || Branching[Node];

  for (CfgNodeId Node = 0; Node != G.size(); ++Node) {
    if (!Keep[Node])
      continue;
    const CfgNode &N = G.node(Node);
    std::string Label;
    if (N.Kind == CfgNodeKind::Entry)
      Label = "ENTRY";
    else if (N.Kind == CfgNodeKind::Exit)
      Label = "EXIT";
    else
      Label = AstPrinter::summarize(*P.stmt(N.Stmt));
    // Fig 5.3 legend: squares for non-branching, circles for branching.
    W.node(NodeId(Node), Label,
           {Branching[Node] ? std::string("shape=circle")
                            : std::string("shape=box, style=filled, "
                                          "fillcolor=lightgray")});
  }

  // Flow edges: compress CFG paths between kept nodes.
  for (CfgNodeId From = 0; From != G.size(); ++From) {
    if (!Keep[From])
      continue;
    // BFS over skipped nodes to the next kept nodes.
    for (const CfgSucc &First : G.node(From).Succs) {
      std::vector<bool> Visited(G.size(), false);
      std::deque<CfgNodeId> Work;
      std::vector<std::string> Attrs;
      if (First.Label == 1)
        Attrs.push_back("label=\"T\"");
      else if (First.Label == 0)
        Attrs.push_back("label=\"F\"");
      if (Keep[First.Node]) {
        W.edge(NodeId(From), NodeId(First.Node), Attrs);
        continue;
      }
      Work.push_back(First.Node);
      Visited[First.Node] = true;
      while (!Work.empty()) {
        CfgNodeId Node = Work.front();
        Work.pop_front();
        for (const CfgSucc &Succ : G.node(Node).Succs) {
          if (Keep[Succ.Node]) {
            W.edge(NodeId(From), NodeId(Succ.Node), Attrs);
            continue;
          }
          if (!Visited[Succ.Node]) {
            Visited[Succ.Node] = true;
            Work.push_back(Succ.Node);
          }
        }
      }
    }
  }
  return W.str();
}
