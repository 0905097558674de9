//===- core/GraphBuilder.cpp ----------------------------------------------===//
//
// Part of PPD. See GraphBuilder.h.
//
//===----------------------------------------------------------------------===//

#include "core/GraphBuilder.h"

#include "lang/AstPrinter.h"
#include "sema/Accesses.h"

using namespace ppd;

DynNodeId
GraphBuilder::lookupWriter(const std::map<WriterKey, DynNodeId> &Map,
                           VarId Var, int64_t Index) const {
  auto It = Map.find({Var, Index});
  if (It != Map.end())
    return It->second;
  if (Index >= 0) {
    // An element read may be satisfied by a whole-variable write.
    It = Map.find({Var, -1});
    if (It != Map.end())
      return It->second;
  }
  return InvalidId;
}

void GraphBuilder::recordWrite(std::map<WriterKey, DynNodeId> &Map,
                               VarId Var, int64_t Index,
                               DynNodeId Node) const {
  if (Index < 0) {
    // Whole-variable write: supersedes all element entries.
    auto It = Map.lower_bound({Var, INT64_MIN});
    while (It != Map.end() && It->first.first == Var)
      It = Map.erase(It);
  }
  Map[{Var, Index}] = Node;
}

/// Finds the CallExpr in \p S whose callee is \p Callee (first match).
static const CallExpr *findCallExpr(const Expr &E, const FuncDecl *Callee) {
  switch (E.getKind()) {
  case ExprKind::Call: {
    const auto *C = cast<CallExpr>(&E);
    if (C->ResolvedFunc == Callee)
      return C;
    for (const ExprPtr &Arg : C->Args)
      if (const CallExpr *Found = findCallExpr(*Arg, Callee))
        return Found;
    return nullptr;
  }
  case ExprKind::ArrayIndex:
    return findCallExpr(*cast<ArrayIndexExpr>(&E)->Index, Callee);
  case ExprKind::Unary:
    return findCallExpr(*cast<UnaryExpr>(&E)->Operand, Callee);
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(&E);
    if (const CallExpr *Found = findCallExpr(*B->Lhs, Callee))
      return Found;
    return findCallExpr(*B->Rhs, Callee);
  }
  default:
    return nullptr;
  }
}

static const CallExpr *findCallInStmt(const Stmt &S, const FuncDecl *Callee) {
  const CallExpr *Found = nullptr;
  auto Check = [&](const Expr *E) {
    if (!Found && E)
      Found = findCallExpr(*E, Callee);
  };
  switch (S.getKind()) {
  case StmtKind::VarDecl:
    Check(cast<VarDeclStmt>(&S)->Init.get());
    break;
  case StmtKind::Assign: {
    const auto *A = cast<AssignStmt>(&S);
    Check(A->Value.get());
    Check(A->Index.get());
    break;
  }
  case StmtKind::If:
    Check(cast<IfStmt>(&S)->Cond.get());
    break;
  case StmtKind::While:
    Check(cast<WhileStmt>(&S)->Cond.get());
    break;
  case StmtKind::For:
    Check(cast<ForStmt>(&S)->Cond.get());
    break;
  case StmtKind::Return:
    Check(cast<ReturnStmt>(&S)->Value.get());
    break;
  case StmtKind::Expr:
    Check(cast<ExprStmt>(&S)->Call.get());
    break;
  case StmtKind::Print:
    Check(cast<PrintStmt>(&S)->Value.get());
    break;
  case StmtKind::Send:
    Check(cast<SendStmt>(&S)->Value.get());
    break;
  default:
    break;
  }
  return Found;
}

BuiltFragment GraphBuilder::addInterval(uint32_t Pid, uint32_t IntervalIdx,
                                        const TraceBuffer &Events) {
  BuiltFragment Out;
  const Program &P = *Prog.Ast;

  // Writers of globals are shared across scopes.
  std::map<WriterKey, DynNodeId> GlobalWriters;
  std::vector<Scope> Scopes;
  DynNodeId PrevNode = InvalidId;

  // The interval's ENTRY node.
  {
    // Identify the e-block's function for the label.
    DynNode Entry;
    Entry.Kind = DynNodeKind::Entry;
    Entry.Pid = Pid;
    Entry.Interval = IntervalIdx;
    Scopes.emplace_back();
    Out.EntryNode = InvalidId; // fill after we know the function below
    Entry.Label = "ENTRY";
    Out.EntryNode = Graph.addNode(std::move(Entry));
    Scopes.back().Entry = Out.EntryNode;
    PrevNode = Out.EntryNode;
  }

  auto ResolveRead = [&](DynNodeId Reader, VarId Var, int64_t Index,
                         int64_t Value, uint32_t LogCursor) {
    const VarInfo &Info = Prog.Symbols->var(Var);
    if (Info.isGlobal()) {
      DynNodeId Writer = lookupWriter(GlobalWriters, Var, Index);
      if (Writer != InvalidId) {
        Graph.addEdge({DynEdgeKind::Data, Writer, Reader, Var, -1});
        return;
      }
      if (Info.Kind == VarKind::SharedGlobal) {
        // Possibly produced by another process: leave to the controller.
        Out.Unresolved.push_back({Reader, Var, Index, Value, LogCursor});
        return;
      }
      // Private global from before the interval: prelog supplied it.
      Graph.addEdge(
          {DynEdgeKind::Data, Scopes.front().Entry, Reader, Var, -1});
      return;
    }
    // Locals/params resolve in the innermost scope.
    DynNodeId Writer = lookupWriter(Scopes.back().LocalWriters, Var, Index);
    if (Writer != InvalidId) {
      Graph.addEdge({DynEdgeKind::Data, Writer, Reader, Var, -1});
      return;
    }
    // From the prelog (root scope) or uninitialized: the scope's entry.
    Graph.addEdge({DynEdgeKind::Data, Scopes.back().Entry, Reader, Var, -1});
  };

  auto AddControlDeps = [&](DynNodeId Node, StmtId Stmt) {
    const FuncDecl *Func = Prog.Database->owningFunc(Stmt);
    if (!Func)
      return;
    const Cfg &G = *Prog.Cfgs[Func->Index];
    CfgNodeId Node_ = G.nodeOf(Stmt);
    if (Node_ == InvalidId)
      return;
    for (const ControlDep &Dep :
         Prog.Pdgs[Func->Index]->controlParents(Node_)) {
      if (Dep.Branch == Cfg::EntryId) {
        Graph.addEdge({DynEdgeKind::Control, Scopes.back().Entry, Node,
                       InvalidId, int8_t(-1)});
        continue;
      }
      StmtId BranchStmt = G.node(Dep.Branch).Stmt;
      auto It = Scopes.back().LastPredicate.find(BranchStmt);
      if (It != Scopes.back().LastPredicate.end() && It->second != Node)
        Graph.addEdge({DynEdgeKind::Control, It->second, Node, InvalidId,
                       int8_t(Dep.Label)});
    }
  };

  /// Creates the %n parameter nodes of a call and wires argument sources.
  auto AddParamNodes = [&](DynNodeId SubGraphNode, const TraceEvent &E,
                           const FuncDecl *Callee) {
    std::vector<DynNodeId> ParamNodes;
    const CallExpr *Call =
        E.Stmt != InvalidId ? findCallInStmt(*P.stmt(E.Stmt), Callee)
                            : nullptr;
    for (size_t ArgIdx = 0; ArgIdx != E.Args.size(); ++ArgIdx) {
      DynNode PN;
      PN.Kind = DynNodeKind::Param;
      PN.Pid = Pid;
      PN.Interval = IntervalIdx;
      PN.Stmt = E.Stmt;
      PN.Label = "%" + std::to_string(ArgIdx + 1);
      PN.Value = E.Args[ArgIdx];
      PN.HasValue = true;
      PN.Parent = SubGraphNode;
      DynNodeId PNId = Graph.addNode(std::move(PN));
      ParamNodes.push_back(PNId);
      // Wire the argument expression's reads into the %n node.
      if (Call && ArgIdx < Call->Args.size()) {
        std::vector<VarId> Reads;
        std::vector<const FuncDecl *> Callees;
        collectExprReads(*Call->Args[ArgIdx], Reads, Callees);
        for (VarId Var : Reads)
          ResolveRead(PNId, Var, -1, E.Args[ArgIdx], E.LogCursor);
      }
      Graph.addEdge({DynEdgeKind::Data, PNId, SubGraphNode, InvalidId, -1});
    }
    return ParamNodes;
  };

  // A call's events follow the event of the statement containing it, so
  // that statement's reads were resolved against the writers from before
  // the call — wrong for a read evaluated after the call returns. For
  // each global the callee may write (MOD) that the statement reads, also
  // link the writer the call left behind.
  auto RelinkReadsAfterCall = [&](uint32_t Callee) {
    const Scope &S = Scopes.back();
    if (!S.LastStmtEvent)
      return;
    for (const TraceAccess &R : S.LastStmtEvent->Reads) {
      if (!Prog.ModRef.Mod[Callee].contains(R.Var))
        continue;
      DynNodeId Writer = lookupWriter(GlobalWriters, R.Var, R.Index);
      if (Writer == InvalidId || Writer == S.LastStmtNode)
        continue;
      bool Linked = false;
      for (const DynEdge &In : Graph.inEdges(S.LastStmtNode))
        Linked |= In.From == Writer && In.Var == R.Var;
      if (!Linked)
        Graph.addEdge({DynEdgeKind::Data, Writer, S.LastStmtNode, R.Var, -1});
    }
  };

  for (const TraceEvent &E : Events.Events) {
    switch (E.Kind) {
    case TraceEventKind::Stmt: {
      DynNode N;
      N.Kind = DynNodeKind::Singular;
      N.Pid = Pid;
      N.Interval = IntervalIdx;
      N.Event = E.Index;
      N.Stmt = E.Stmt;
      N.Parent = Scopes.back().SubGraph;
      N.Label = AstPrinter::summarize(*P.stmt(E.Stmt)) + "  s" +
                std::to_string(E.Stmt);
      if (E.IsPredicate) {
        N.Value = E.BranchTaken;
        N.HasValue = true;
      } else if (!E.Writes.empty()) {
        N.Value = E.Writes.front().Value;
        N.HasValue = true;
      }
      DynNodeId Node = Graph.addNode(std::move(N));
      Out.EventNodes.push_back(Node);

      if (PrevNode != InvalidId)
        Graph.addEdge({DynEdgeKind::Flow, PrevNode, Node, InvalidId, -1});
      PrevNode = Node;

      for (const TraceAccess &R : E.Reads)
        ResolveRead(Node, R.Var, R.Index, R.Value, E.LogCursor);
      AddControlDeps(Node, E.Stmt);
      for (const TraceAccess &W : E.Writes) {
        const VarInfo &Info = Prog.Symbols->var(W.Var);
        auto &Map = Info.isGlobal() ? GlobalWriters
                                    : Scopes.back().LocalWriters;
        recordWrite(Map, W.Var, W.Index, Node);
      }
      if (E.IsPredicate)
        Scopes.back().LastPredicate[E.Stmt] = Node;
      Scopes.back().LastStmtNode = Node;
      Scopes.back().LastStmtEvent = &E;
      Out.LastNode = Node;
      break;
    }

    case TraceEventKind::CallBegin: {
      const FuncDecl *Callee = P.Funcs[E.Callee].get();
      DynNode SG;
      SG.Kind = DynNodeKind::SubGraph;
      SG.Pid = Pid;
      SG.Interval = IntervalIdx;
      SG.Event = E.Index;
      SG.Stmt = E.Stmt;
      SG.Callee = E.Callee;
      SG.Expanded = true;
      SG.Parent = Scopes.back().SubGraph;
      SG.Label = Callee->Name + "(...)";
      DynNodeId SGId = Graph.addNode(std::move(SG));
      Out.EventNodes.push_back(SGId);
      std::vector<DynNodeId> Params = AddParamNodes(SGId, E, Callee);

      // Open the callee scope with params seeded by the %n nodes.
      Scope S;
      S.Func = E.Callee;
      S.SubGraph = SGId;
      DynNode CalleeEntry;
      CalleeEntry.Kind = DynNodeKind::Entry;
      CalleeEntry.Pid = Pid;
      CalleeEntry.Interval = IntervalIdx;
      CalleeEntry.Label = "ENTRY " + Callee->Name;
      CalleeEntry.Parent = SGId;
      S.Entry = Graph.addNode(std::move(CalleeEntry));
      for (size_t ArgIdx = 0;
           ArgIdx != std::min(Params.size(), Callee->Params.size());
           ++ArgIdx)
        S.LocalWriters[{Callee->Params[ArgIdx].Var, -1}] = Params[ArgIdx];
      Scopes.push_back(std::move(S));
      break;
    }

    case TraceEventKind::CallEnd: {
      assert(Scopes.size() > 1 && "call end without matching begin");
      DynNodeId SGId = Scopes.back().SubGraph;
      Scopes.pop_back();
      DynNode &SG = Graph.node(SGId);
      SG.Value = E.Value;
      SG.HasValue = true;
      Out.EventNodes.push_back(SGId);
      // The returned value flows into the enclosing statement.
      if (Scopes.back().LastStmtNode != InvalidId)
        Graph.addEdge({DynEdgeKind::Data, SGId, Scopes.back().LastStmtNode,
                       InvalidId, -1});
      RelinkReadsAfterCall(E.Callee);
      break;
    }

    case TraceEventKind::CallSkipped: {
      const FuncDecl *Callee = P.Funcs[E.Callee].get();
      DynNode SG;
      SG.Kind = DynNodeKind::SubGraph;
      SG.Pid = Pid;
      SG.Interval = IntervalIdx;
      SG.Event = E.Index;
      SG.Stmt = E.Stmt;
      SG.Callee = E.Callee;
      SG.Expanded = false;
      SG.Parent = Scopes.back().SubGraph;
      SG.Label = Callee->Name + "(...)  [not expanded]";
      SG.Value = E.Value;
      SG.HasValue = true;
      DynNodeId SGId = Graph.addNode(std::move(SG));
      Out.EventNodes.push_back(SGId);
      Out.Skipped.push_back({SGId, E.LogCursor});
      AddParamNodes(SGId, E, Callee);

      if (Scopes.back().LastStmtNode != InvalidId)
        Graph.addEdge({DynEdgeKind::Data, SGId, Scopes.back().LastStmtNode,
                       InvalidId, -1});
      // The callee may have rewritten globals: later reads point at the
      // unexpanded node, inviting the user to expand it.
      for (unsigned G : Prog.ModRef.Mod[E.Callee].toVector())
        recordWrite(GlobalWriters, VarId(G), -1, SGId);
      RelinkReadsAfterCall(E.Callee);
      if (PrevNode != InvalidId)
        Graph.addEdge({DynEdgeKind::Flow, PrevNode, SGId, InvalidId, -1});
      PrevNode = SGId;
      break;
    }
    }
  }

  // Label the entry with the e-block's function now that events are known.
  // (The e-block's function is recorded in the interval; the controller
  // sets a nicer label.)
  return Out;
}
