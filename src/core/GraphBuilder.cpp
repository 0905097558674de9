//===- core/GraphBuilder.cpp ----------------------------------------------===//
//
// Part of PPD. See GraphBuilder.h.
//
//===----------------------------------------------------------------------===//

#include "core/GraphBuilder.h"

#include "lang/AstPrinter.h"
#include "sema/Accesses.h"
#include "sema/CallGraph.h"

using namespace ppd;

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

GraphBuilder::GraphBuilder(const CompiledProgram &Prog, DynamicGraph &Graph)
    : Prog(Prog), Graph(Graph) {
  const size_t NumVars = Prog.Symbols->Vars.size();
  const size_t NumStmts = Prog.Ast->numStmts();
  const size_t NumFuncs = Prog.Ast->Funcs.size();
  Whole.resize(NumVars);
  Elements.resize(NumVars);
  LastPredicate.resize(NumStmts);
  SiteOfStmt.assign(NumStmts, InvalidId);
  StmtLabels.resize(NumStmts);
  CallLabels.resize(NumFuncs);
  SkippedLabels.resize(NumFuncs);
  EntryLabels.resize(NumFuncs);
  InitialLabels.resize(NumVars);
}

DynNodeId GraphBuilder::lookupWriter(VarId Var, int64_t Index,
                                     uint64_t ValidFrom) const {
  const Write &W = Whole[Var];
  if (Index >= 0 && uint64_t(Index) < Elements[Var].size()) {
    // An element read may be satisfied by a later whole-variable write.
    const Write &E = Elements[Var][Index];
    if (E.Seq >= ValidFrom && E.Seq > W.Seq)
      return E.Node;
  }
  return W.Seq >= ValidFrom ? W.Node : InvalidId;
}

GraphBuilder::Write *GraphBuilder::elementSlot(VarId Var, int64_t Index) {
  // The interpreter traces an element access only after its bounds check.
  const VarInfo &Info = Prog.Symbols->var(Var);
  assert(Index < Info.ArraySize && "traced element outside its array");
  if (Index >= Info.ArraySize)
    return nullptr;
  std::vector<Write> &Slots = Elements[Var];
  if (Slots.empty())
    Slots.resize(size_t(Info.ArraySize));
  return &Slots[Index];
}

void GraphBuilder::recordWrite(VarId Var, int64_t Index, DynNodeId Node) {
  Write *Slot = Index < 0 ? &Whole[Var] : elementSlot(Var, Index);
  if (Slot)
    *Slot = {Node, ++Seq};
}

void GraphBuilder::openScope(DynNodeId SubGraph, DynNodeId Entry) {
  Scope S;
  S.SubGraph = SubGraph;
  S.Entry = Entry;
  S.StartSeq = ++Seq;
  Scopes.push_back(S);
}

uint32_t GraphBuilder::callSite(StmtId Stmt, uint32_t Callee) {
  for (uint32_t I = SiteOfStmt[Stmt]; I != InvalidId; I = Sites[I].Next)
    if (Sites[I].Callee == Callee)
      return I;
  CallSite Site;
  Site.Callee = Callee;
  Site.Next = SiteOfStmt[Stmt];
  Site.FirstArg = uint32_t(ArgSpans.size());
  if (const CallExpr *Call = findCallInStmt(*Prog.Ast->stmt(Stmt),
                                            Prog.Ast->Funcs[Callee].get())) {
    Site.NumArgs = uint32_t(Call->Args.size());
    std::vector<VarId> Reads;
    std::vector<const FuncDecl *> Callees;
    for (const ExprPtr &Arg : Call->Args) {
      Reads.clear();
      collectExprReads(*Arg, Reads, Callees);
      ArgSpans.push_back({uint32_t(ArgVars.size()), uint32_t(Reads.size())});
      ArgVars.insert(ArgVars.end(), Reads.begin(), Reads.end());
    }
  }
  SiteOfStmt[Stmt] = uint32_t(Sites.size());
  Sites.push_back(Site);
  return SiteOfStmt[Stmt];
}

/// \p Slot, interning \p Make's text into it on first use.
template <typename MakeFn>
static std::string_view interned(DynamicGraph &Graph, std::string_view &Slot,
                                 MakeFn Make) {
  if (Slot.empty())
    Slot = Graph.intern(Make());
  return Slot;
}

std::string_view GraphBuilder::stmtLabel(StmtId Stmt) {
  return interned(Graph, StmtLabels[Stmt], [&] {
    return AstPrinter::summarize(*Prog.Ast->stmt(Stmt)) + "  s" +
           std::to_string(Stmt);
  });
}

std::string_view GraphBuilder::paramLabel(size_t ArgIdx) {
  while (ParamLabels.size() <= ArgIdx)
    ParamLabels.push_back(
        Graph.intern("%" + std::to_string(ParamLabels.size() + 1)));
  return ParamLabels[ArgIdx];
}

std::string_view GraphBuilder::initialLabel(VarId Var) {
  return interned(Graph, InitialLabels[Var],
                  [&] { return "initial " + Prog.Symbols->var(Var).Name; });
}

BuiltFragment GraphBuilder::addInterval(uint32_t Pid, uint32_t IntervalIdx,
                                        const TraceBuffer &Events) {
  BuiltFragment Out;
  Out.EventNodes.reserve(Events.Events.size());
  const Program &P = *Prog.Ast;

  // Writers of globals are shared across scopes; everything recorded
  // before this point belongs to earlier fragments.
  IntervalSeq = Seq + 1;
  Scopes.clear();
  DynNodeId PrevNode = InvalidId;

  // The interval's ENTRY node; the controller relabels it with the
  // e-block's function.
  {
    DynNode Entry;
    Entry.Kind = DynNodeKind::Entry;
    Entry.Pid = Pid;
    Entry.Interval = IntervalIdx;
    Entry.Label = "ENTRY";
    Out.EntryNode = Graph.addNode(Entry);
    openScope(InvalidId, Out.EntryNode);
    PrevNode = Out.EntryNode;
  }

  auto ResolveRead = [&](DynNodeId Reader, VarId Var, int64_t Index,
                         int64_t Value, uint32_t LogCursor) {
    const VarInfo &Info = Prog.Symbols->var(Var);
    if (Info.isGlobal()) {
      DynNodeId Writer = lookupWriter(Var, Index, IntervalSeq);
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
    DynNodeId Writer = lookupWriter(Var, Index, Scopes.back().StartSeq);
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
    for (const ControlDep &Dep : Prog.Control[Func->Index].parents(Node_)) {
      if (Dep.Branch == Cfg::EntryId) {
        Graph.addEdge({DynEdgeKind::Control, Scopes.back().Entry, Node,
                       InvalidId, int8_t(-1)});
        continue;
      }
      const Write &Last = LastPredicate[G.node(Dep.Branch).Stmt];
      if (Last.Seq >= Scopes.back().StartSeq && Last.Node != Node)
        Graph.addEdge({DynEdgeKind::Control, Last.Node, Node, InvalidId,
                       int8_t(Dep.Label)});
    }
  };

  /// Creates the %n parameter nodes of a call and wires argument sources.
  /// Returns the first one; the rest follow it in id order.
  auto AddParamNodes = [&](DynNodeId SubGraphNode, const TraceEvent &E) {
    const DynNodeId First = Graph.numNodes();
    const CallSite *Site =
        E.Stmt != InvalidId ? &Sites[callSite(E.Stmt, E.Callee)] : nullptr;
    for (size_t ArgIdx = 0; ArgIdx != E.Args.size(); ++ArgIdx) {
      DynNode PN;
      PN.Kind = DynNodeKind::Param;
      PN.Pid = Pid;
      PN.Interval = IntervalIdx;
      PN.Stmt = E.Stmt;
      PN.Label = paramLabel(ArgIdx);
      PN.Value = E.Args[ArgIdx];
      PN.HasValue = true;
      PN.Parent = SubGraphNode;
      DynNodeId PNId = Graph.addNode(PN);
      // Wire the argument expression's reads into the %n node.
      if (Site && ArgIdx < Site->NumArgs) {
        auto [Begin, Count] = ArgSpans[Site->FirstArg + ArgIdx];
        for (uint32_t I = Begin; I != Begin + Count; ++I)
          ResolveRead(PNId, ArgVars[I], -1, E.Args[ArgIdx], E.LogCursor);
      }
      Graph.addEdge({DynEdgeKind::Data, PNId, SubGraphNode, InvalidId, -1});
    }
    return First;
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
      DynNodeId Writer = lookupWriter(R.Var, R.Index, IntervalSeq);
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
      N.Label = stmtLabel(E.Stmt);
      if (E.IsPredicate) {
        N.Value = E.BranchTaken;
        N.HasValue = true;
      } else if (!E.Writes.empty()) {
        N.Value = E.Writes.front().Value;
        N.HasValue = true;
      }
      DynNodeId Node = Graph.addNode(N);
      Out.EventNodes.push_back(Node);

      if (PrevNode != InvalidId)
        Graph.addEdge({DynEdgeKind::Flow, PrevNode, Node, InvalidId, -1});
      PrevNode = Node;

      for (const TraceAccess &R : E.Reads)
        ResolveRead(Node, R.Var, R.Index, R.Value, E.LogCursor);
      AddControlDeps(Node, E.Stmt);
      for (const TraceAccess &W : E.Writes)
        recordWrite(W.Var, W.Index, Node);
      if (E.IsPredicate)
        LastPredicate[E.Stmt] = {Node, ++Seq};
      Scopes.back().LastStmtNode = Node;
      Scopes.back().LastStmtEvent = &E;
      Out.LastNode = Node;
      break;
    }

    case TraceEventKind::CallBegin: {
      const FuncDecl *Callee = P.Funcs[E.Callee].get();
      // Only unlogged functions run inline, and only leaves go unlogged,
      // so no function is open twice: a callee scope never shadows an
      // outer activation's locals or predicates.
      assert(!Prog.func(E.Callee).Logged &&
             Prog.Callgraph->isLeaf(*Callee) &&
             "inline call of a logged or non-leaf function");
      DynNode SG;
      SG.Kind = DynNodeKind::SubGraph;
      SG.Pid = Pid;
      SG.Interval = IntervalIdx;
      SG.Event = E.Index;
      SG.Stmt = E.Stmt;
      SG.Callee = E.Callee;
      SG.Expanded = true;
      SG.Parent = Scopes.back().SubGraph;
      SG.Label = interned(Graph, CallLabels[E.Callee],
                          [&] { return Callee->Name + "(...)"; });
      DynNodeId SGId = Graph.addNode(SG);
      Out.EventNodes.push_back(SGId);
      DynNodeId FirstParam = AddParamNodes(SGId, E);

      // Open the callee scope with params seeded by the %n nodes.
      DynNode CalleeEntry;
      CalleeEntry.Kind = DynNodeKind::Entry;
      CalleeEntry.Pid = Pid;
      CalleeEntry.Interval = IntervalIdx;
      CalleeEntry.Label = interned(Graph, EntryLabels[E.Callee],
                                   [&] { return "ENTRY " + Callee->Name; });
      CalleeEntry.Parent = SGId;
      openScope(SGId, Graph.addNode(CalleeEntry));
      for (size_t ArgIdx = 0;
           ArgIdx != std::min(E.Args.size(), Callee->Params.size());
           ++ArgIdx)
        Whole[Callee->Params[ArgIdx].Var] = {FirstParam + DynNodeId(ArgIdx),
                                             ++Seq};
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
      DynNode SG;
      SG.Kind = DynNodeKind::SubGraph;
      SG.Pid = Pid;
      SG.Interval = IntervalIdx;
      SG.Event = E.Index;
      SG.Stmt = E.Stmt;
      SG.Callee = E.Callee;
      SG.Expanded = false;
      SG.Parent = Scopes.back().SubGraph;
      // The label keeps saying so after a later expandCall.
      SG.Label = interned(Graph, SkippedLabels[E.Callee], [&] {
        return P.Funcs[E.Callee]->Name + "(...)  [not expanded]";
      });
      SG.Value = E.Value;
      SG.HasValue = true;
      DynNodeId SGId = Graph.addNode(SG);
      Out.EventNodes.push_back(SGId);
      Out.Skipped.push_back({SGId, E.LogCursor});
      AddParamNodes(SGId, E);

      if (Scopes.back().LastStmtNode != InvalidId)
        Graph.addEdge({DynEdgeKind::Data, SGId, Scopes.back().LastStmtNode,
                       InvalidId, -1});
      // The callee may have rewritten globals: later reads point at the
      // unexpanded node, inviting the user to expand it.
      Prog.ModRef.Mod[E.Callee].forEach(
          [&](unsigned G) { recordWrite(VarId(G), -1, SGId); });
      RelinkReadsAfterCall(E.Callee);
      if (PrevNode != InvalidId)
        Graph.addEdge({DynEdgeKind::Flow, PrevNode, SGId, InvalidId, -1});
      PrevNode = SGId;
      break;
    }
    }
  }
  return Out;
}
