//===- tests/sema_test.cpp - Semantic analysis tests ----------------------===//
//
// Part of PPD test suite: name resolution, storage layout, accesses,
// call graph, program database.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "sema/Accesses.h"
#include "sema/CallGraph.h"
#include "sema/ProgramDatabase.h"
#include "testing/ProgramGen.h"

#include <gtest/gtest.h>

using namespace ppd;
using namespace ppd::test;

namespace {

bool semaFails(const std::string &Source) {
  DiagnosticEngine Diags;
  auto P = Parser::parse(Source, Diags);
  if (!P)
    return false; // must be a *semantic* failure
  Sema S(*P, Diags);
  return S.run() == nullptr && Diags.hasErrors();
}

TEST(SemaTest, ResolvesKindsAndSharedIndices) {
  auto C = check("shared int s1; shared int s2; int p;\n"
                 "func f(int a) { int l = a; return l; }\n"
                 "func main() { }\n");
  const SymbolTable &Sym = *C.Symbols;
  EXPECT_EQ(Sym.var(varNamed(Sym, "s1")).Kind, VarKind::SharedGlobal);
  EXPECT_EQ(Sym.var(varNamed(Sym, "s2")).Kind, VarKind::SharedGlobal);
  EXPECT_EQ(Sym.var(varNamed(Sym, "p")).Kind, VarKind::PrivateGlobal);
  EXPECT_EQ(Sym.var(varNamed(Sym, "a")).Kind, VarKind::Param);
  EXPECT_EQ(Sym.var(varNamed(Sym, "l")).Kind, VarKind::Local);
  EXPECT_EQ(Sym.NumSharedVars, 2u);
  EXPECT_EQ(Sym.var(varNamed(Sym, "s1")).SharedIndex, 0u);
  EXPECT_EQ(Sym.var(varNamed(Sym, "s2")).SharedIndex, 1u);
  EXPECT_EQ(Sym.var(varNamed(Sym, "p")).SharedIndex, InvalidId);
}

/// Symbols.Globals lists the isGlobal() variables in id order, and
/// Symbols.SharedVars maps each SharedIndex back to its variable.
void expectGlobalListsMatchScan(const std::string &Source,
                                const std::string &Label) {
  auto C = check(Source);
  ASSERT_TRUE(C.Symbols) << Label;
  const SymbolTable &Sym = *C.Symbols;
  std::vector<VarId> Globals;
  for (const VarInfo &Info : Sym.Vars)
    if (Info.isGlobal())
      Globals.push_back(Info.Id);
  EXPECT_EQ(Sym.Globals, Globals) << Label;
  ASSERT_EQ(Sym.SharedVars.size(), Sym.NumSharedVars) << Label;
  for (uint32_t I = 0; I != Sym.NumSharedVars; ++I) {
    EXPECT_TRUE(Sym.var(Sym.SharedVars[I]).isShared()) << Label;
    EXPECT_EQ(Sym.var(Sym.SharedVars[I]).SharedIndex, I) << Label;
  }
}

TEST(SemaTest, GlobalAndSharedListsMatchSymbolScan) {
  expectGlobalListsMatchScan("int p; shared int s1; int q[2];\n"
                             "shared int s2[3]; shared int s3;\n"
                             "func main() { int l; }\n",
                             "mixed");
  for (const char *Name : Corpus)
    expectGlobalListsMatchScan(readCorpusFile(Name), Name);
  for (uint64_t Seed = 1; Seed <= 60; ++Seed)
    expectGlobalListsMatchScan(ppd::testing::generateProgram(Seed).render(),
                               "seed " + std::to_string(Seed));
}

TEST(SemaTest, StorageLayout) {
  auto C = check("shared int s; shared int arr[5]; int p1; int p2;\n"
                 "func f(int a, int b) { int x; int y[3]; int z; }\n"
                 "func main() { }\n");
  const SymbolTable &Sym = *C.Symbols;
  EXPECT_EQ(Sym.SharedMemorySize, 6u); // s + arr[5]
  EXPECT_EQ(Sym.PrivateGlobalSize, 2u);
  EXPECT_EQ(Sym.var(varNamed(Sym, "arr")).Offset, 1u);
  EXPECT_EQ(Sym.var(varNamed(Sym, "p2")).Offset, 1u);
  const FrameInfo &Frame = Sym.frame(*C.Prog->Funcs[0]);
  EXPECT_EQ(Frame.FrameSize, 7u); // a b x y[3] z
  EXPECT_EQ(Sym.var(varNamed(Sym, "z")).Offset, 6u);
}

TEST(SemaTest, ScopingAndShadowing) {
  auto C = check("int g;\n"
                 "func main() { int x = g; { int g = 2; x = g; } x = g; }\n");
  // Two variables named g exist: the global and the block-local.
  EXPECT_EQ(C.Prog->numStmts() > 0, true);
  std::vector<VarId> Gs;
  for (const VarInfo &Info : C.Symbols->Vars)
    if (Info.Name == "g")
      Gs.push_back(Info.Id);
  ASSERT_EQ(Gs.size(), 2u);

  // The inner `x = g` must resolve to the local, the outer ones to the
  // global.
  const auto *MainBody = C.Prog->Funcs[0]->Body.get();
  const auto *InnerBlock = cast<BlockStmt>(MainBody->Body[1].get());
  const auto *InnerAssign = cast<AssignStmt>(InnerBlock->Body[1].get());
  const auto *InnerRef = cast<VarRefExpr>(InnerAssign->Value.get());
  EXPECT_EQ(C.Symbols->var(InnerRef->Var).Kind, VarKind::Local);
  const auto *OuterAssign = cast<AssignStmt>(MainBody->Body[2].get());
  const auto *OuterRef = cast<VarRefExpr>(OuterAssign->Value.get());
  EXPECT_EQ(C.Symbols->var(OuterRef->Var).Kind, VarKind::PrivateGlobal);
}

TEST(SemaTest, SemanticErrors) {
  EXPECT_TRUE(semaFails("func main() { x = 1; }"));
  EXPECT_TRUE(semaFails("func main() { int a[3]; a = 1; }"));
  EXPECT_TRUE(semaFails("func main() { int x; x[0] = 1; }"));
  EXPECT_TRUE(semaFails("func main() { int a[3]; int y = a; }"));
  EXPECT_TRUE(semaFails("func main() { P(s); }"));
  EXPECT_TRUE(semaFails("func main() { send(c, 1); }"));
  EXPECT_TRUE(semaFails("func main() { int y = recv(c); }"));
  EXPECT_TRUE(semaFails("func main() { f(1); }"));
  EXPECT_TRUE(semaFails("func f(int a) { } func main() { f(); }"));
  EXPECT_TRUE(semaFails("func f(int a) { } func main() { spawn f(); }"));
  EXPECT_TRUE(semaFails("func main() { int x; int x; }"));
  EXPECT_TRUE(semaFails("int g; int g; func main() { }"));
  EXPECT_TRUE(semaFails("sem s; chan s; func main() { }"));
  EXPECT_TRUE(semaFails("func f() { } func f() { } func main() { }"));
  EXPECT_TRUE(semaFails("func f() { }")) << "missing main";
  EXPECT_TRUE(semaFails("func main(int a) { }"));
  EXPECT_TRUE(semaFails("func main() { int x = sqrt(1, 2); }"));
  EXPECT_TRUE(semaFails("sem s; func main() { s = 3; }"))
      << "semaphores are not variables";
}

TEST(SemaTest, BuiltinsResolve) {
  auto C = check(
      "func main() { int x = sqrt(16) + abs(-3) + min(1, 2) + max(3, 4); }");
  const auto *Decl = cast<VarDeclStmt>(C.Prog->Funcs[0]->Body->Body[0].get());
  (void)Decl;
}

TEST(SemaTest, RedeclarationInNestedScopeAllowed) {
  auto C = check("func main() { int x; { int x; } }");
  (void)C;
}

//===----------------------------------------------------------------------===//
// Accesses
//===----------------------------------------------------------------------===//

TEST(AccessesTest, AssignReadsAndWrites) {
  auto C = check("int g;\nfunc main() { int x = 1; g = x + g; }");
  const auto *Assign = cast<AssignStmt>(C.Prog->Funcs[0]->Body->Body[1].get());
  StmtAccesses Acc = collectStmtAccesses(*Assign);
  VarId G = varNamed(*C.Symbols, "g");
  VarId X = varNamed(*C.Symbols, "x");
  EXPECT_EQ(Acc.Writes, (std::vector<VarId>{G}));
  ASSERT_EQ(Acc.Reads.size(), 2u);
  EXPECT_TRUE((Acc.Reads[0] == X && Acc.Reads[1] == G) ||
              (Acc.Reads[0] == G && Acc.Reads[1] == X));
}

TEST(AccessesTest, ArrayElementStoreIsWeakUpdate) {
  auto C = check("func main() { int a[4]; int i = 0; a[i] = 9; }");
  const auto *Assign = cast<AssignStmt>(C.Prog->Funcs[0]->Body->Body[2].get());
  StmtAccesses Acc = collectStmtAccesses(*Assign);
  VarId A = varNamed(*C.Symbols, "a");
  EXPECT_EQ(Acc.Writes, (std::vector<VarId>{A}));
  // Reads include the index variable and the array itself (weak update).
  EXPECT_NE(std::find(Acc.Reads.begin(), Acc.Reads.end(), A),
            Acc.Reads.end());
}

TEST(AccessesTest, ArrayDeclIsStrongWrite) {
  auto C = check("func main() { int a[4]; }");
  const auto *Decl = cast<VarDeclStmt>(C.Prog->Funcs[0]->Body->Body[0].get());
  StmtAccesses Acc = collectStmtAccesses(*Decl);
  EXPECT_TRUE(Acc.Reads.empty());
  EXPECT_EQ(Acc.Writes.size(), 1u);
}

TEST(AccessesTest, CallArgsReadCalleeRecorded) {
  auto C = check("func f(int a) { return a; }\n"
                 "func main() { int x = 1; int y = f(x + 2); }");
  const auto *Decl = cast<VarDeclStmt>(C.Prog->Funcs[1]->Body->Body[1].get());
  StmtAccesses Acc = collectStmtAccesses(*Decl);
  EXPECT_EQ(Acc.Reads, (std::vector<VarId>{varNamed(*C.Symbols, "x")}));
  ASSERT_EQ(Acc.Callees.size(), 1u);
  EXPECT_EQ(Acc.Callees[0]->Name, "f");
}

TEST(AccessesTest, SpawnArgsReadButTargetNotCallee) {
  auto C = check("func w(int a) { }\nfunc main() { int x = 1; spawn w(x); }");
  const auto *Spawn = cast<SpawnStmt>(C.Prog->Funcs[1]->Body->Body[1].get());
  StmtAccesses Acc = collectStmtAccesses(*Spawn);
  EXPECT_EQ(Acc.Reads, (std::vector<VarId>{varNamed(*C.Symbols, "x")}));
  EXPECT_TRUE(Acc.Callees.empty())
      << "spawned body runs in another process, not in this statement";
}

TEST(AccessesTest, ForEachStmtVisitsEverythingOnce) {
  auto C = check(R"(
func main() {
  int i = 0;
  for (i = 0; i < 3; i = i + 1) {
    if (i == 1) print(i);
    else print(0 - i);
  }
  while (i > 0) i = i - 1;
}
)");
  unsigned Count = 0;
  std::vector<bool> Seen(C.Prog->numStmts(), false);
  forEachStmt(*C.Prog->Funcs[0]->Body, [&](const Stmt &S) {
    ++Count;
    EXPECT_FALSE(Seen[S.Id]) << "statement visited twice";
    Seen[S.Id] = true;
  });
  EXPECT_EQ(Count, C.Prog->numStmts());
}

//===----------------------------------------------------------------------===//
// CallGraph
//===----------------------------------------------------------------------===//

TEST(CallGraphTest, EdgesAndLeaves) {
  auto C = check(R"(
func leaf(int x) { return x * 2; }
func mid(int x) { return leaf(x) + leaf(x + 1); }
func main() { int r = mid(3); print(r); }
)");
  CallGraph CG(*C.Prog);
  const FuncDecl *Leaf = C.Prog->findFunc("leaf");
  const FuncDecl *Mid = C.Prog->findFunc("mid");
  const FuncDecl *Main = C.Prog->findFunc("main");
  EXPECT_TRUE(CG.isLeaf(*Leaf));
  EXPECT_FALSE(CG.isLeaf(*Mid));
  ASSERT_EQ(CG.callees(*Mid).size(), 1u);
  EXPECT_EQ(CG.callees(*Mid)[0], Leaf);
  ASSERT_EQ(CG.callers(*Leaf).size(), 1u);
  EXPECT_EQ(CG.callers(*Leaf)[0], Mid);
  EXPECT_FALSE(CG.isRecursive(*Leaf));
  EXPECT_FALSE(CG.isRecursive(*Main));
}

TEST(CallGraphTest, BottomUpOrder) {
  auto C = check(R"(
func a(int x) { return x; }
func b(int x) { return a(x); }
func c(int x) { return b(x); }
func main() { print(c(1)); }
)");
  CallGraph CG(*C.Prog);
  const auto &Order = CG.bottomUpOrder();
  auto Pos = [&](const char *Name) {
    for (size_t I = 0; I != Order.size(); ++I)
      if (Order[I]->Name == Name)
        return I;
    ADD_FAILURE() << Name << " not in order";
    return size_t(0);
  };
  EXPECT_LT(Pos("a"), Pos("b"));
  EXPECT_LT(Pos("b"), Pos("c"));
  EXPECT_LT(Pos("c"), Pos("main"));
}

TEST(CallGraphTest, RecursionDetected) {
  auto C = check(R"(
func fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
func even(int n) { if (n == 0) return 1; return odd(n - 1); }
func odd(int n) { if (n == 0) return 0; return even(n - 1); }
func main() { print(fact(5) + even(4)); }
)");
  CallGraph CG(*C.Prog);
  EXPECT_TRUE(CG.isRecursive(*C.Prog->findFunc("fact")));
  EXPECT_TRUE(CG.isRecursive(*C.Prog->findFunc("even")));
  EXPECT_TRUE(CG.isRecursive(*C.Prog->findFunc("odd")));
  EXPECT_FALSE(CG.isRecursive(*C.Prog->findFunc("main")));
  EXPECT_EQ(CG.sccId(*C.Prog->findFunc("even")),
            CG.sccId(*C.Prog->findFunc("odd")));
  EXPECT_NE(CG.sccId(*C.Prog->findFunc("even")),
            CG.sccId(*C.Prog->findFunc("fact")));
}

TEST(CallGraphTest, SpawnTargets) {
  auto C = check(R"(
func w1(int x) { }
func w2(int x) { }
func helper() { spawn w2(2); }
func main() { spawn w1(1); helper(); }
)");
  CallGraph CG(*C.Prog);
  const auto &Spawned = CG.spawnTargets();
  ASSERT_EQ(Spawned.size(), 2u);
  EXPECT_EQ(Spawned[0]->Name, "w1");
  EXPECT_EQ(Spawned[1]->Name, "w2");
}

//===----------------------------------------------------------------------===//
// ProgramDatabase
//===----------------------------------------------------------------------===//

TEST(ProgramDatabaseTest, DefsAndUses) {
  auto C = check("int g;\n"
                 "func main() {\n"
                 "  g = 1;\n"        // def of g (line 3)
                 "  int x = g + g;\n" // use of g, def of x (line 4)
                 "  print(x);\n"      // use of x (line 5)
                 "}\n");
  ProgramDatabase DB(*C.Prog, *C.Symbols);
  VarId G = varNamed(*C.Symbols, "g");
  VarId X = varNamed(*C.Symbols, "x");

  const VarSites &GS = DB.sites(G);
  ASSERT_EQ(GS.Defs.size(), 1u);
  EXPECT_EQ(C.Prog->stmt(GS.Defs[0])->getLoc().Line, 3u);
  ASSERT_EQ(GS.Uses.size(), 1u) << "double read in one statement dedups? no:"
                                   " both reads are the same statement";
  EXPECT_EQ(C.Prog->stmt(GS.Uses[0])->getLoc().Line, 4u);

  const VarSites &XS = DB.sites(X);
  ASSERT_EQ(XS.Defs.size(), 1u);
  ASSERT_EQ(XS.Uses.size(), 1u);
  EXPECT_EQ(C.Prog->stmt(XS.Uses[0])->getLoc().Line, 5u);
}

TEST(ProgramDatabaseTest, LookupByNameAndOwner) {
  auto C = check("int v;\nfunc f() { int v; v = 1; }\nfunc main() { v = 2; }");
  ProgramDatabase DB(*C.Prog, *C.Symbols);
  auto Vs = DB.lookup("v");
  EXPECT_EQ(Vs.size(), 2u);
  const auto *FAssign = C.Prog->Funcs[0]->Body->Body[1].get();
  EXPECT_EQ(DB.owningFunc(FAssign->Id), C.Prog->Funcs[0].get());
  std::string Dump = DB.dump(*C.Prog);
  EXPECT_NE(Dump.find("v (global)"), std::string::npos);
  EXPECT_NE(Dump.find("v (local of f)"), std::string::npos);
}

} // namespace
