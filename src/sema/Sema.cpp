//===- sema/Sema.cpp ------------------------------------------------------===//
//
// Part of PPD. See Sema.h.
//
//===----------------------------------------------------------------------===//

#include "sema/Sema.h"

using namespace ppd;

Sema::Sema(Program &P, DiagnosticEngine &Diags) : P(P), Diags(Diags) {}

std::unique_ptr<SymbolTable> Sema::run() {
  Symbols = std::make_unique<SymbolTable>();
  Symbols->Frames.resize(P.Funcs.size());

  declareGlobals();
  declareSemsAndChans();

  for (auto &F : P.Funcs) {
    if (P.findFunc(F->Name) != F.get())
      Diags.error(F->Loc, "redefinition of function '" + F->Name + "'");
    checkFunction(*F);
  }

  FuncDecl *Main = P.findFunc("main");
  if (!Main)
    Diags.error(SourceLoc(), "program has no 'main' function");
  else if (!Main->Params.empty())
    Diags.error(Main->Loc, "'main' must take no parameters");

  if (Diags.hasErrors())
    return nullptr;
  return std::move(Symbols);
}

VarId Sema::declareVar(VarInfo Info) {
  Info.Id = VarId(Symbols->Vars.size());
  Symbols->Vars.push_back(std::move(Info));
  return Symbols->Vars.back().Id;
}

VarId Sema::lookupVar(const std::string &Name) const {
  for (auto It = LocalScopes.rbegin(), E = LocalScopes.rend(); It != E; ++It) {
    auto Found = It->find(Name);
    if (Found != It->end())
      return Found->second;
  }
  auto Found = GlobalScope.find(Name);
  if (Found != GlobalScope.end())
    return Found->second;
  return InvalidId;
}

void Sema::pushScope() { LocalScopes.emplace_back(); }
void Sema::popScope() { LocalScopes.pop_back(); }

void Sema::declareGlobals() {
  for (GlobalDecl &G : P.Globals) {
    if (GlobalScope.count(G.Name)) {
      Diags.error(G.Loc, "redeclaration of global '" + G.Name + "'");
      continue;
    }
    VarInfo Info;
    Info.Name = G.Name;
    Info.Kind = G.Shared ? VarKind::SharedGlobal : VarKind::PrivateGlobal;
    Info.ArraySize = G.ArraySize;
    Info.Init = G.Init;
    Info.Loc = G.Loc;
    if (G.Shared) {
      Info.Offset = Symbols->SharedMemorySize;
      Info.SharedIndex = Symbols->NumSharedVars++;
      Symbols->SharedMemorySize += Info.slotCount();
    } else {
      Info.Offset = Symbols->PrivateGlobalSize;
      Symbols->PrivateGlobalSize += Info.slotCount();
    }
    G.Var = declareVar(std::move(Info));
    GlobalScope[G.Name] = G.Var;
    Symbols->Globals.push_back(G.Var);
    if (G.Shared)
      Symbols->SharedVars.push_back(G.Var);
  }
}

void Sema::declareSemsAndChans() {
  for (SemDecl &S : P.Sems) {
    if (SemIds.count(S.Name) || GlobalScope.count(S.Name)) {
      Diags.error(S.Loc, "redeclaration of '" + S.Name + "'");
      continue;
    }
    S.Id = uint32_t(SemIds.size());
    SemIds[S.Name] = S.Id;
  }
  for (ChanDecl &C : P.Chans) {
    if (ChanIds.count(C.Name) || SemIds.count(C.Name) ||
        GlobalScope.count(C.Name)) {
      Diags.error(C.Loc, "redeclaration of '" + C.Name + "'");
      continue;
    }
    C.Id = uint32_t(ChanIds.size());
    ChanIds[C.Name] = C.Id;
  }
}

void Sema::checkFunction(FuncDecl &F) {
  FrameInfo &Frame = Symbols->Frames[F.Index];
  Frame.Func = &F;
  Frame.FrameSize = 0;
  CurrentFrame = &Frame;

  pushScope();
  for (Param &Par : F.Params) {
    if (LocalScopes.back().count(Par.Name)) {
      Diags.error(Par.Loc, "duplicate parameter '" + Par.Name + "'");
      continue;
    }
    VarInfo Info;
    Info.Name = Par.Name;
    Info.Kind = VarKind::Param;
    Info.Func = &F;
    Info.Loc = Par.Loc;
    Info.Offset = Frame.FrameSize;
    Frame.FrameSize += 1;
    Par.Var = declareVar(std::move(Info));
    Frame.Vars.push_back(Par.Var);
    LocalScopes.back()[Par.Name] = Par.Var;
  }
  checkStmt(*F.Body, F);
  popScope();
  CurrentFrame = nullptr;
}

void Sema::checkLValue(const std::string &Name, Expr *Index, SourceLoc Loc,
                       VarId &OutVar, FuncDecl &F) {
  VarId Id = lookupVar(Name);
  if (Id == InvalidId) {
    if (SemIds.count(Name) || ChanIds.count(Name))
      Diags.error(Loc, "'" + Name +
                           "' is a semaphore or channel, not a variable");
    else
      Diags.error(Loc, "use of undeclared variable '" + Name + "'");
    return;
  }
  const VarInfo &Info = Symbols->var(Id);
  if (Info.isArray() && !Index)
    Diags.error(Loc, "array '" + Name + "' must be indexed");
  if (!Info.isArray() && Index)
    Diags.error(Loc, "scalar '" + Name + "' cannot be indexed");
  if (Index)
    checkExpr(*Index, F);
  OutVar = Id;
}

void Sema::checkCallArgs(CallExpr &Call, FuncDecl &F) {
  for (ExprPtr &Arg : Call.Args)
    checkExpr(*Arg, F);

  // Builtins first.
  static const struct {
    const char *Name;
    Builtin Kind;
    unsigned Arity;
  } Builtins[] = {
      {"sqrt", Builtin::Sqrt, 1},
      {"abs", Builtin::Abs, 1},
      {"min", Builtin::Min, 2},
      {"max", Builtin::Max, 2},
  };
  for (const auto &B : Builtins) {
    if (Call.Callee != B.Name)
      continue;
    if (Call.Args.size() != B.Arity)
      Diags.error(Call.getLoc(), std::string("builtin '") + B.Name +
                                     "' takes " + std::to_string(B.Arity) +
                                     " argument(s)");
    Call.BuiltinKind = B.Kind;
    return;
  }

  FuncDecl *Callee = P.findFunc(Call.Callee);
  if (!Callee) {
    Diags.error(Call.getLoc(),
                "call to undeclared function '" + Call.Callee + "'");
    return;
  }
  if (Call.Args.size() != Callee->Params.size())
    Diags.error(Call.getLoc(), "function '" + Call.Callee + "' takes " +
                                   std::to_string(Callee->Params.size()) +
                                   " argument(s), got " +
                                   std::to_string(Call.Args.size()));
  Call.ResolvedFunc = Callee;
}

void Sema::checkExpr(Expr &E, FuncDecl &F) {
  switch (E.getKind()) {
  case ExprKind::IntLit:
  case ExprKind::Input:
    return;
  case ExprKind::VarRef: {
    auto *V = cast<VarRefExpr>(&E);
    VarId Id = lookupVar(V->Name);
    if (Id == InvalidId) {
      Diags.error(V->getLoc(), "use of undeclared variable '" + V->Name + "'");
      return;
    }
    if (Symbols->var(Id).isArray()) {
      Diags.error(V->getLoc(),
                  "array '" + V->Name + "' cannot be used as a scalar value");
      return;
    }
    V->Var = Id;
    return;
  }
  case ExprKind::ArrayIndex: {
    auto *A = cast<ArrayIndexExpr>(&E);
    checkLValue(A->Name, A->Index.get(), A->getLoc(), A->Var, F);
    return;
  }
  case ExprKind::Unary:
    checkExpr(*cast<UnaryExpr>(&E)->Operand, F);
    return;
  case ExprKind::Binary: {
    auto *B = cast<BinaryExpr>(&E);
    checkExpr(*B->Lhs, F);
    checkExpr(*B->Rhs, F);
    return;
  }
  case ExprKind::Call:
    checkCallArgs(*cast<CallExpr>(&E), F);
    return;
  case ExprKind::Recv: {
    auto *R = cast<RecvExpr>(&E);
    auto It = ChanIds.find(R->Channel);
    if (It == ChanIds.end()) {
      Diags.error(R->getLoc(),
                  "use of undeclared channel '" + R->Channel + "'");
      return;
    }
    R->Chan = It->second;
    return;
  }
  }
}

void Sema::checkStmt(Stmt &S, FuncDecl &F) {
  switch (S.getKind()) {
  case StmtKind::Block: {
    pushScope();
    for (StmtPtr &Child : cast<BlockStmt>(&S)->Body)
      checkStmt(*Child, F);
    popScope();
    return;
  }
  case StmtKind::VarDecl: {
    auto *D = cast<VarDeclStmt>(&S);
    if (D->Init)
      checkExpr(*D->Init, F);
    if (LocalScopes.back().count(D->Name)) {
      Diags.error(D->getLoc(),
                  "redeclaration of '" + D->Name + "' in the same scope");
      return;
    }
    VarInfo Info;
    Info.Name = D->Name;
    Info.Kind = VarKind::Local;
    Info.ArraySize = D->ArraySize;
    Info.Func = &F;
    Info.Loc = D->getLoc();
    Info.Offset = CurrentFrame->FrameSize;
    CurrentFrame->FrameSize += Info.slotCount();
    D->Var = declareVar(std::move(Info));
    CurrentFrame->Vars.push_back(D->Var);
    LocalScopes.back()[D->Name] = D->Var;
    return;
  }
  case StmtKind::Assign: {
    auto *A = cast<AssignStmt>(&S);
    checkExpr(*A->Value, F);
    checkLValue(A->Name, A->Index.get(), A->getLoc(), A->Var, F);
    return;
  }
  case StmtKind::If: {
    auto *I = cast<IfStmt>(&S);
    checkExpr(*I->Cond, F);
    checkStmt(*I->Then, F);
    if (I->Else)
      checkStmt(*I->Else, F);
    return;
  }
  case StmtKind::While: {
    auto *W = cast<WhileStmt>(&S);
    checkExpr(*W->Cond, F);
    checkStmt(*W->Body, F);
    return;
  }
  case StmtKind::For: {
    auto *Fo = cast<ForStmt>(&S);
    if (Fo->Init)
      checkStmt(*Fo->Init, F);
    if (Fo->Cond)
      checkExpr(*Fo->Cond, F);
    if (Fo->Step)
      checkStmt(*Fo->Step, F);
    checkStmt(*Fo->Body, F);
    return;
  }
  case StmtKind::Return: {
    auto *R = cast<ReturnStmt>(&S);
    if (R->Value)
      checkExpr(*R->Value, F);
    return;
  }
  case StmtKind::Expr: {
    auto *E = cast<ExprStmt>(&S);
    checkExpr(*E->Call, F);
    return;
  }
  case StmtKind::P: {
    auto *Ps = cast<PStmt>(&S);
    auto It = SemIds.find(Ps->Sem);
    if (It == SemIds.end()) {
      Diags.error(Ps->getLoc(),
                  "use of undeclared semaphore '" + Ps->Sem + "'");
      return;
    }
    Ps->SemId = It->second;
    return;
  }
  case StmtKind::V: {
    auto *Vs = cast<VStmt>(&S);
    auto It = SemIds.find(Vs->Sem);
    if (It == SemIds.end()) {
      Diags.error(Vs->getLoc(),
                  "use of undeclared semaphore '" + Vs->Sem + "'");
      return;
    }
    Vs->SemId = It->second;
    return;
  }
  case StmtKind::Send: {
    auto *M = cast<SendStmt>(&S);
    checkExpr(*M->Value, F);
    auto It = ChanIds.find(M->Channel);
    if (It == ChanIds.end()) {
      Diags.error(M->getLoc(),
                  "use of undeclared channel '" + M->Channel + "'");
      return;
    }
    M->Chan = It->second;
    return;
  }
  case StmtKind::Spawn: {
    auto *Sp = cast<SpawnStmt>(&S);
    for (ExprPtr &Arg : Sp->Args)
      checkExpr(*Arg, F);
    FuncDecl *Callee = P.findFunc(Sp->Callee);
    if (!Callee) {
      Diags.error(Sp->getLoc(),
                  "spawn of undeclared function '" + Sp->Callee + "'");
      return;
    }
    if (Sp->Args.size() != Callee->Params.size())
      Diags.error(Sp->getLoc(), "function '" + Sp->Callee + "' takes " +
                                    std::to_string(Callee->Params.size()) +
                                    " argument(s), got " +
                                    std::to_string(Sp->Args.size()));
    Sp->ResolvedFunc = Callee;
    return;
  }
  case StmtKind::Print: {
    checkExpr(*cast<PrintStmt>(&S)->Value, F);
    return;
  }
  }
}
