//===- tests/dataflow_test.cpp - Dataflow analysis tests ------------------===//
//
// Part of PPD test suite: MOD/REF, reaching definitions, USED/DEFINED.
// Most suites are typed over both set representations (experiment E6's
// requirement that they be interchangeable).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "cfg/Cfg.h"
#include "dataflow/ModRef.h"
#include "dataflow/ReachingDefs.h"
#include "dataflow/UsedDefined.h"
#include "sema/CallGraph.h"
#include "testing/ProgramGen.h"

#include <gtest/gtest.h>

using namespace ppd;
using namespace ppd::test;

namespace {

template <typename T> class ModRefTest : public ::testing::Test {};
using SetTypes = ::testing::Types<BitVarSet, ListVarSet>;
TYPED_TEST_SUITE(ModRefTest, SetTypes);

TYPED_TEST(ModRefTest, DirectEffects) {
  auto C = check(R"(
shared int sv;
int g;
func reader() { return sv; }
func writer() { g = 1; }
func main() { writer(); print(reader()); }
)");
  CallGraph CG(*C.Prog);
  auto MR = computeModRef<TypeParam>(*C.Prog, *C.Symbols, CG);
  VarId Sv = varNamed(*C.Symbols, "sv");
  VarId G = varNamed(*C.Symbols, "g");

  const FuncDecl *Reader = C.Prog->findFunc("reader");
  const FuncDecl *Writer = C.Prog->findFunc("writer");
  EXPECT_TRUE(MR.Ref[Reader->Index].contains(Sv));
  EXPECT_TRUE(MR.Mod[Reader->Index].empty());
  EXPECT_TRUE(MR.Mod[Writer->Index].contains(G));
  EXPECT_TRUE(MR.Ref[Writer->Index].empty());
}

TYPED_TEST(ModRefTest, TransitiveThroughCalls) {
  auto C = check(R"(
shared int sv;
func inner() { sv = sv + 1; }
func outer() { inner(); }
func main() { outer(); }
)");
  CallGraph CG(*C.Prog);
  auto MR = computeModRef<TypeParam>(*C.Prog, *C.Symbols, CG);
  VarId Sv = varNamed(*C.Symbols, "sv");
  const FuncDecl *Outer = C.Prog->findFunc("outer");
  const FuncDecl *Main = C.Prog->findFunc("main");
  EXPECT_TRUE(MR.Mod[Outer->Index].contains(Sv));
  EXPECT_TRUE(MR.Ref[Outer->Index].contains(Sv));
  EXPECT_TRUE(MR.Mod[Main->Index].contains(Sv));
}

TYPED_TEST(ModRefTest, LocalsAndParamsExcluded) {
  auto C = check("func f(int a) { int l = a * 2; return l; }\n"
                 "func main() { print(f(3)); }\n");
  CallGraph CG(*C.Prog);
  auto MR = computeModRef<TypeParam>(*C.Prog, *C.Symbols, CG);
  const FuncDecl *F = C.Prog->findFunc("f");
  EXPECT_TRUE(MR.Mod[F->Index].empty());
  EXPECT_TRUE(MR.Ref[F->Index].empty());
}

TYPED_TEST(ModRefTest, RecursionConverges) {
  auto C = check(R"(
shared int sv;
func even(int n) { if (n == 0) return 1; return odd(n - 1); }
func odd(int n) { if (n == 0) return 0; sv = sv + 1; return even(n - 1); }
func main() { print(even(4)); }
)");
  CallGraph CG(*C.Prog);
  auto MR = computeModRef<TypeParam>(*C.Prog, *C.Symbols, CG);
  VarId Sv = varNamed(*C.Symbols, "sv");
  // Mutual recursion: both functions mod/ref sv.
  EXPECT_TRUE(MR.Mod[C.Prog->findFunc("even")->Index].contains(Sv));
  EXPECT_TRUE(MR.Mod[C.Prog->findFunc("odd")->Index].contains(Sv));
  EXPECT_TRUE(MR.Ref[C.Prog->findFunc("even")->Index].contains(Sv));
}

TYPED_TEST(ModRefTest, SpawnEffectsNotInherited) {
  auto C = check(R"(
shared int sv;
func w() { sv = 1; }
func main() { spawn w(); }
)");
  CallGraph CG(*C.Prog);
  auto MR = computeModRef<TypeParam>(*C.Prog, *C.Symbols, CG);
  VarId Sv = varNamed(*C.Symbols, "sv");
  EXPECT_FALSE(MR.Mod[C.Prog->findFunc("main")->Index].contains(Sv))
      << "a spawned body runs concurrently, not as part of the caller";
}

//===----------------------------------------------------------------------===//
// Reaching definitions
//===----------------------------------------------------------------------===//

template <typename T> class ReachingDefsTest : public ::testing::Test {};
TYPED_TEST_SUITE(ReachingDefsTest, SetTypes);

/// Helper: the set of lines whose defs of Var reach the node of statement
/// at line UseLine (0 = ENTRY).
template <typename Set>
std::vector<unsigned> defLines(const Checked &C, const Cfg &G,
                               const ReachingDefs<Set> &RD, unsigned UseLine,
                               VarId Var) {
  CfgNodeId UseNode = InvalidId;
  for (StmtId Id = 0; Id != C.Prog->numStmts(); ++Id)
    if (C.Prog->stmt(Id)->getLoc().Line == UseLine &&
        G.nodeOf(Id) != InvalidId)
      UseNode = G.nodeOf(Id);
  EXPECT_NE(UseNode, InvalidId);
  std::vector<unsigned> Lines;
  for (unsigned DefId : RD.reachingDefsOf(UseNode, Var)) {
    const Definition &D = RD.definitions()[DefId];
    if (D.Node == Cfg::EntryId)
      Lines.push_back(0);
    else
      Lines.push_back(C.Prog->stmt(G.node(D.Node).Stmt)->getLoc().Line);
  }
  std::sort(Lines.begin(), Lines.end());
  return Lines;
}

TYPED_TEST(ReachingDefsTest, StrongKillsPriorDef) {
  auto C = check("func main() {\n"
                 "  int x = 1;\n" // line 2
                 "  x = 2;\n"     // line 3
                 "  print(x);\n"  // line 4
                 "}\n");
  CallGraph CG(*C.Prog);
  auto MR = computeModRef<TypeParam>(*C.Prog, *C.Symbols, CG);
  Cfg G(*C.Prog, *C.Prog->Funcs[0]);
  ReachingDefs<TypeParam> RD(*C.Prog, *C.Symbols, G, MR);
  EXPECT_EQ(defLines(C, G, RD, 4, varNamed(*C.Symbols, "x")),
            (std::vector<unsigned>{3}));
}

TYPED_TEST(ReachingDefsTest, BranchMergesDefs) {
  auto C = check("func main() {\n"
                 "  int x = input();\n" // 2
                 "  if (x > 0)\n"       // 3
                 "    x = 1;\n"         // 4
                 "  else\n"
                 "    x = 2;\n"         // 6
                 "  print(x);\n"        // 7
                 "}\n");
  CallGraph CG(*C.Prog);
  auto MR = computeModRef<TypeParam>(*C.Prog, *C.Symbols, CG);
  Cfg G(*C.Prog, *C.Prog->Funcs[0]);
  ReachingDefs<TypeParam> RD(*C.Prog, *C.Symbols, G, MR);
  EXPECT_EQ(defLines(C, G, RD, 7, varNamed(*C.Symbols, "x")),
            (std::vector<unsigned>{4, 6}));
}

TYPED_TEST(ReachingDefsTest, LoopCarriedDef) {
  auto C = check("func main() {\n"
                 "  int i = 0;\n"       // 2
                 "  while (i < 3)\n"    // 3
                 "    i = i + 1;\n"     // 4
                 "  print(i);\n"        // 5
                 "}\n");
  CallGraph CG(*C.Prog);
  auto MR = computeModRef<TypeParam>(*C.Prog, *C.Symbols, CG);
  Cfg G(*C.Prog, *C.Prog->Funcs[0]);
  ReachingDefs<TypeParam> RD(*C.Prog, *C.Symbols, G, MR);
  VarId I = varNamed(*C.Symbols, "i");
  // Both the init and the loop-carried def reach the condition...
  EXPECT_EQ(defLines(C, G, RD, 3, I), (std::vector<unsigned>{2, 4}));
  // ...and the use after the loop.
  EXPECT_EQ(defLines(C, G, RD, 5, I), (std::vector<unsigned>{2, 4}));
}

TYPED_TEST(ReachingDefsTest, ArrayWritesAreWeak) {
  auto C = check("func main() {\n"
                 "  int a[4];\n"        // 2: strong (zero-fill)
                 "  a[0] = 1;\n"        // 3: weak
                 "  a[1] = 2;\n"        // 4: weak
                 "  print(a[0]);\n"     // 5
                 "}\n");
  CallGraph CG(*C.Prog);
  auto MR = computeModRef<TypeParam>(*C.Prog, *C.Symbols, CG);
  Cfg G(*C.Prog, *C.Prog->Funcs[0]);
  ReachingDefs<TypeParam> RD(*C.Prog, *C.Symbols, G, MR);
  EXPECT_EQ(defLines(C, G, RD, 5, varNamed(*C.Symbols, "a")),
            (std::vector<unsigned>{2, 3, 4}));
}

TYPED_TEST(ReachingDefsTest, ParamUseReachesEntry) {
  auto C = check("func f(int p) {\n"
                 "  return p;\n" // 2
                 "}\n"
                 "func main() { print(f(1)); }\n");
  CallGraph CG(*C.Prog);
  auto MR = computeModRef<TypeParam>(*C.Prog, *C.Symbols, CG);
  Cfg G(*C.Prog, *C.Prog->Funcs[0]);
  ReachingDefs<TypeParam> RD(*C.Prog, *C.Symbols, G, MR);
  EXPECT_EQ(defLines(C, G, RD, 2, varNamed(*C.Symbols, "p")),
            (std::vector<unsigned>{0}));
}

TYPED_TEST(ReachingDefsTest, CallModIsWeakDef) {
  auto C = check("shared int sv;\n"
                 "func bump() { sv = sv + 1; }\n"
                 "func main() {\n"
                 "  sv = 5;\n"      // 4: strong
                 "  bump();\n"      // 5: weak def via MOD
                 "  print(sv);\n"   // 6
                 "}\n");
  CallGraph CG(*C.Prog);
  auto MR = computeModRef<TypeParam>(*C.Prog, *C.Symbols, CG);
  Cfg G(*C.Prog, *C.Prog->Funcs[1]);
  ReachingDefs<TypeParam> RD(*C.Prog, *C.Symbols, G, MR);
  // Both the direct def (weakly surviving the call) and the call's MOD def
  // reach the print.
  EXPECT_EQ(defLines(C, G, RD, 6, varNamed(*C.Symbols, "sv")),
            (std::vector<unsigned>{4, 5}));
}

/// The whole-universe formulation ReachingDefs replaced, kept as the
/// differential reference: ENTRY's definitions come from a walk over every
/// program variable, and the def lists are indexed by VarId.
template <VariableSet Set> class WholeUniverseReachingDefs {
public:
  WholeUniverseReachingDefs(const Program &P, const SymbolTable &Symbols,
                            const Cfg &G, const ModRefResult<Set> &MR)
      : G(G) {
    DefsOfVar.resize(Symbols.numVars());
    std::vector<Set> Gen(G.size());
    std::vector<std::vector<VarId>> StrongKillVars(G.size());
    auto AddDef = [&](CfgNodeId Node, VarId Var, bool Strong) {
      unsigned Id = unsigned(Defs.size());
      Defs.push_back({Node, Var, Strong});
      DefsOfVar[Var].push_back(Id);
      Gen[Node].insert(Id);
      if (Strong)
        StrongKillVars[Node].push_back(Var);
    };
    for (VarId V = 0; V != Symbols.numVars(); ++V) {
      const VarInfo &Info = Symbols.var(V);
      if (Info.isGlobal() ||
          (Info.Func == &G.func() &&
           (Info.Kind == VarKind::Param || Info.Kind == VarKind::Local)))
        AddDef(Cfg::EntryId, V, /*Strong=*/true);
    }
    for (CfgNodeId Node = 0; Node != G.size(); ++Node) {
      const CfgNode &N = G.node(Node);
      if (N.Kind != CfgNodeKind::Stmt)
        continue;
      const Stmt *S = P.stmt(N.Stmt);
      StmtAccesses Acc = collectStmtAccesses(*S);
      for (VarId V : Acc.Writes)
        AddDef(Node, V, !Symbols.var(V).isArray() || isa<VarDeclStmt>(S));
      for (const FuncDecl *Callee : Acc.Callees)
        for (unsigned V : MR.Mod[Callee->Index].toVector())
          AddDef(Node, VarId(V), /*Strong=*/false);
    }

    std::vector<Set> Kill(G.size()), Out(G.size());
    for (CfgNodeId Node = 0; Node != G.size(); ++Node)
      for (VarId V : StrongKillVars[Node])
        for (unsigned DefId : DefsOfVar[V])
          if (Defs[DefId].Node != Node)
            Kill[Node].insert(DefId);
    In.resize(G.size());
    for (bool Changed = true; Changed;) {
      Changed = false;
      for (CfgNodeId Node : G.reversePostOrder()) {
        Set NewIn;
        for (CfgNodeId Pred : G.node(Node).Preds)
          NewIn.unionWith(Out[Pred]);
        if (!(NewIn == In[Node])) {
          In[Node] = NewIn;
          Changed = true;
        }
        NewIn.subtract(Kill[Node]);
        NewIn.unionWith(Gen[Node]);
        if (!(NewIn == Out[Node])) {
          Out[Node] = std::move(NewIn);
          Changed = true;
        }
      }
    }
  }

  std::vector<unsigned> reachingDefsOf(CfgNodeId Use, VarId Var) const {
    std::vector<unsigned> Result;
    for (unsigned DefId : DefsOfVar[Var])
      if (In[Use].contains(DefId))
        Result.push_back(DefId);
    return Result;
  }

  const Cfg &G;
  std::vector<Definition> Defs;
  std::vector<std::vector<unsigned>> DefsOfVar; ///< by VarId.
  std::vector<Set> In;
};

/// Many functions, each with params, scalar and array locals (some in
/// nested scopes), writing shared and private globals and calling the next
/// function: every function's own variables are a small slice of the
/// program's.
std::string manyFunctionProgram(unsigned NumFuncs) {
  std::string Source = "shared int s0; shared int s1; shared int sa[4];\n"
                       "int g0; int ga[3];\n";
  for (unsigned F = 0; F != NumFuncs; ++F) {
    std::string Name = "f" + std::to_string(F);
    Source += "func " + Name + "(int p, int q) {\n"
              "  int a = p + s0;\n"
              "  int b[3];\n"
              "  b[1] = a + q;\n"
              "  if (a > q) { int c = a * 2; s1 = c; g0 = b[1]; }\n"
              "  while (a < 10) { a = a + 1; sa[a % 4] = a; }\n"
              "  ga[0] = g0 + q;\n";
    if (F + 1 != NumFuncs)
      Source += "  a = a + f" + std::to_string(F + 1) + "(a, b[1]);\n";
    Source += "  return a + s1;\n}\n";
  }
  Source += "func main() { print(f0(1, 2)); }\n";
  return Source;
}

/// Every function of \p Source: the per-function ReachingDefs must give
/// the reference's definitions in the same order, and the same reaching
/// definitions for every CFG node and every program variable.
template <typename Set>
void expectMatchesWholeUniverse(const std::string &Source,
                                const std::string &Label) {
  auto C = check(Source);
  ASSERT_TRUE(C.Symbols) << Label;
  CallGraph CG(*C.Prog);
  auto MR = computeModRef<Set>(*C.Prog, *C.Symbols, CG);
  for (const auto &F : C.Prog->Funcs) {
    Cfg G(*C.Prog, *F);
    ReachingDefs<Set> RD(*C.Prog, *C.Symbols, G, MR);
    WholeUniverseReachingDefs<Set> Ref(*C.Prog, *C.Symbols, G, MR);
    std::string Where = Label + " func " + F->Name;
    ASSERT_EQ(RD.definitions().size(), Ref.Defs.size()) << Where;
    for (size_t I = 0; I != Ref.Defs.size(); ++I) {
      const Definition &A = RD.definitions()[I], &B = Ref.Defs[I];
      ASSERT_EQ(A.Node, B.Node) << Where << " def " << I;
      ASSERT_EQ(A.Var, B.Var) << Where << " def " << I;
      ASSERT_EQ(A.Strong, B.Strong) << Where << " def " << I;
    }
    for (CfgNodeId Node = 0; Node != G.size(); ++Node)
      for (VarId V = 0; V != C.Symbols->numVars(); ++V)
        ASSERT_EQ(RD.reachingDefsOf(Node, V), Ref.reachingDefsOf(Node, V))
            << Where << " node " << Node << " var "
            << C.Symbols->var(V).Name;
  }
}

TYPED_TEST(ReachingDefsTest, MatchesWholeUniverseOnCorpus) {
  for (const char *Name : Corpus)
    expectMatchesWholeUniverse<TypeParam>(readCorpusFile(Name), Name);
}

TYPED_TEST(ReachingDefsTest, MatchesWholeUniverseOnGeneratedPrograms) {
  // Seed % 6 picks the generator profile, so 60 seeds cover each 10 times.
  for (uint64_t Seed = 1; Seed <= 60; ++Seed)
    expectMatchesWholeUniverse<TypeParam>(
        ppd::testing::generateProgram(Seed).render(),
        "seed " + std::to_string(Seed));
}

TYPED_TEST(ReachingDefsTest, MatchesWholeUniverseOnManyFunctions) {
  expectMatchesWholeUniverse<TypeParam>(manyFunctionProgram(40),
                                        "many functions");
}

//===----------------------------------------------------------------------===//
// USED / DEFINED (e-block summaries)
//===----------------------------------------------------------------------===//

template <typename T> class UsedDefinedTest : public ::testing::Test {};
TYPED_TEST_SUITE(UsedDefinedTest, SetTypes);

/// Computes USED/DEFINED of a whole function as one region (the paper's
/// default: one e-block per subroutine).
template <typename Set>
RegionSummary<Set> wholeFunc(const Checked &C, const Cfg &G,
                             const ModRefResult<Set> &MR,
                             bool CalleesLogged = true) {
  std::vector<CfgNodeId> Region;
  for (CfgNodeId Id = 0; Id != G.size(); ++Id)
    Region.push_back(Id);
  return computeUsedDefined<Set>(
      *C.Prog, *C.Symbols, G, Region, Cfg::EntryId, MR,
      [CalleesLogged](const FuncDecl &) { return CalleesLogged; });
}

TYPED_TEST(UsedDefinedTest, ParamsUsedLocalsNot) {
  auto C = check("func f(int p) { int l = p + 1; return l; }\n"
                 "func main() { print(f(1)); }\n");
  CallGraph CG(*C.Prog);
  auto MR = computeModRef<TypeParam>(*C.Prog, *C.Symbols, CG);
  Cfg G(*C.Prog, *C.Prog->Funcs[0]);
  auto Summary = wholeFunc<TypeParam>(C, G, MR);
  EXPECT_TRUE(Summary.Used.contains(varNamed(*C.Symbols, "p")));
  EXPECT_FALSE(Summary.Used.contains(varNamed(*C.Symbols, "l")))
      << "l is written before read: not upward-exposed, not in the prelog";
  EXPECT_TRUE(Summary.Defined.contains(varNamed(*C.Symbols, "l")));
}

TYPED_TEST(UsedDefinedTest, ReadAfterConditionalWriteIsExposed) {
  auto C = check("shared int sv;\n"
                 "func f(int p) { if (p) sv = 1; return sv; }\n"
                 "func main() { print(f(1)); }\n");
  CallGraph CG(*C.Prog);
  auto MR = computeModRef<TypeParam>(*C.Prog, *C.Symbols, CG);
  Cfg G(*C.Prog, *C.Prog->Funcs[0]);
  auto Summary = wholeFunc<TypeParam>(C, G, MR);
  EXPECT_TRUE(Summary.Used.contains(varNamed(*C.Symbols, "sv")))
      << "on the p==0 path sv is read without a prior write";
}

TYPED_TEST(UsedDefinedTest, ReadAfterUnconditionalWriteNotExposed) {
  auto C = check("shared int sv;\n"
                 "func f() { sv = 7; return sv; }\n"
                 "func main() { print(f()); }\n");
  CallGraph CG(*C.Prog);
  auto MR = computeModRef<TypeParam>(*C.Prog, *C.Symbols, CG);
  Cfg G(*C.Prog, *C.Prog->Funcs[0]);
  auto Summary = wholeFunc<TypeParam>(C, G, MR);
  EXPECT_FALSE(Summary.Used.contains(varNamed(*C.Symbols, "sv")));
  EXPECT_TRUE(Summary.Defined.contains(varNamed(*C.Symbols, "sv")));
}

TYPED_TEST(UsedDefinedTest, PartiallyWrittenVariableIsExposedToThePostlog) {
  // The postlog reads p0 at the exit on both paths; on the path that
  // skips the write it sees the entry value, so the prelog must carry it.
  // A shared variable is exempt: postlog verification skips shared values.
  auto C = check("shared int sv;\n"
                 "int p0;\n"
                 "func f(int a) { if (a == a) { } else { p0 = a; sv = a; }\n"
                 "  return a; }\n"
                 "func main() { print(f(1)); }\n");
  CallGraph CG(*C.Prog);
  auto MR = computeModRef<TypeParam>(*C.Prog, *C.Symbols, CG);
  Cfg G(*C.Prog, *C.Prog->Funcs[0]);
  auto Summary = wholeFunc<TypeParam>(C, G, MR);
  VarId P0 = varNamed(*C.Symbols, "p0"), Sv = varNamed(*C.Symbols, "sv");
  EXPECT_TRUE(Summary.Defined.contains(P0));
  EXPECT_TRUE(Summary.Used.contains(P0));
  EXPECT_TRUE(Summary.Defined.contains(Sv));
  EXPECT_FALSE(Summary.Used.contains(Sv));
}

TYPED_TEST(UsedDefinedTest, LoggedCalleeModOnOnePathIsExposed) {
  // A logged callee's MOD lands in DEFINED; when only one path calls it,
  // the other path leaves the entry value for the postlog to read.
  auto C = check("int p0;\n"
                 "func callee() { p0 = 3; return 0; }\n"
                 "func f(int a) { if (a) { int x = callee(); } return a; }\n"
                 "func main() { print(f(1)); }\n");
  CallGraph CG(*C.Prog);
  auto MR = computeModRef<TypeParam>(*C.Prog, *C.Symbols, CG);
  Cfg G(*C.Prog, *C.Prog->Funcs[1]);
  auto Summary = wholeFunc<TypeParam>(C, G, MR, /*CalleesLogged=*/true);
  EXPECT_TRUE(Summary.Used.contains(varNamed(*C.Symbols, "p0")));
}

TYPED_TEST(UsedDefinedTest, LoopReadIsExposed) {
  auto C = check("func f(int n) { int s = 0; int i = 0;\n"
                 "  while (i < n) { s = s + i; i = i + 1; } return s; }\n"
                 "func main() { print(f(3)); }\n");
  CallGraph CG(*C.Prog);
  auto MR = computeModRef<TypeParam>(*C.Prog, *C.Symbols, CG);
  Cfg G(*C.Prog, *C.Prog->Funcs[0]);
  auto Summary = wholeFunc<TypeParam>(C, G, MR);
  EXPECT_TRUE(Summary.Used.contains(varNamed(*C.Symbols, "n")));
  EXPECT_FALSE(Summary.Used.contains(varNamed(*C.Symbols, "s")));
  EXPECT_FALSE(Summary.Used.contains(varNamed(*C.Symbols, "i")));
}

TYPED_TEST(UsedDefinedTest, LoggedCalleeContributesNoReads) {
  auto C = check("shared int sv;\n"
                 "func callee() { return sv; }\n"
                 "func f() { int x = callee(); return x; }\n"
                 "func main() { print(f()); }\n");
  CallGraph CG(*C.Prog);
  auto MR = computeModRef<TypeParam>(*C.Prog, *C.Symbols, CG);
  Cfg G(*C.Prog, *C.Prog->Funcs[1]);
  VarId Sv = varNamed(*C.Symbols, "sv");

  auto Logged = wholeFunc<TypeParam>(C, G, MR, /*CalleesLogged=*/true);
  EXPECT_FALSE(Logged.Used.contains(Sv))
      << "replay applies the callee's postlog; its reads are not ours";

  auto Inherited = wholeFunc<TypeParam>(C, G, MR, /*CalleesLogged=*/false);
  EXPECT_TRUE(Inherited.Used.contains(Sv))
      << "an unlogged leaf's REF is inherited by the caller (paper §5.4)";
}

TYPED_TEST(UsedDefinedTest, CalleeModAlwaysInDefined) {
  auto C = check("shared int sv;\n"
                 "func callee() { sv = 1; }\n"
                 "func f() { callee(); }\n"
                 "func main() { f(); }\n");
  CallGraph CG(*C.Prog);
  auto MR = computeModRef<TypeParam>(*C.Prog, *C.Symbols, CG);
  Cfg G(*C.Prog, *C.Prog->Funcs[1]);
  VarId Sv = varNamed(*C.Symbols, "sv");
  for (bool LoggedFlag : {true, false}) {
    auto Summary = wholeFunc<TypeParam>(C, G, MR, LoggedFlag);
    EXPECT_TRUE(Summary.Defined.contains(Sv));
  }
}

TYPED_TEST(UsedDefinedTest, LoopRegionSummary) {
  // USED/DEFINED of just the loop, as if it were its own e-block (§5.4's
  // loop e-blocks).
  auto C = check("func f(int n) {\n"
                 "  int s = 0;\n"
                 "  int i = 0;\n"
                 "  while (i < n) {\n"
                 "    s = s + i;\n"
                 "    i = i + 1;\n"
                 "  }\n"
                 "  return s;\n"
                 "}\n"
                 "func main() { print(f(4)); }\n");
  CallGraph CG(*C.Prog);
  auto MR = computeModRef<TypeParam>(*C.Prog, *C.Symbols, CG);
  Cfg G(*C.Prog, *C.Prog->Funcs[0]);

  // Region: the while node and its body.
  std::vector<CfgNodeId> Region;
  CfgNodeId Header = InvalidId;
  for (StmtId Id = 0; Id != C.Prog->numStmts(); ++Id) {
    const Stmt *S = C.Prog->stmt(Id);
    if (G.nodeOf(Id) == InvalidId)
      continue;
    unsigned Line = S->getLoc().Line;
    if (Line >= 4 && Line <= 6) {
      Region.push_back(G.nodeOf(Id));
      if (S->getKind() == StmtKind::While)
        Header = G.nodeOf(Id);
    }
  }
  ASSERT_NE(Header, InvalidId);
  auto Summary = computeUsedDefined<TypeParam>(
      *C.Prog, *C.Symbols, G, Region, Header, MR,
      [](const FuncDecl &) { return true; });
  EXPECT_TRUE(Summary.Used.contains(varNamed(*C.Symbols, "n")));
  EXPECT_TRUE(Summary.Used.contains(varNamed(*C.Symbols, "s")));
  EXPECT_TRUE(Summary.Used.contains(varNamed(*C.Symbols, "i")));
  EXPECT_TRUE(Summary.Defined.contains(varNamed(*C.Symbols, "s")));
  EXPECT_TRUE(Summary.Defined.contains(varNamed(*C.Symbols, "i")));
  EXPECT_FALSE(Summary.Defined.contains(varNamed(*C.Symbols, "n")));
}

// Cross-representation property: both set types produce identical
// summaries on a family of generated programs.
class UsedDefinedCrossTest : public ::testing::TestWithParam<int> {};

TEST_P(UsedDefinedCrossTest, RepresentationsAgree) {
  int N = GetParam();
  std::string Source = "shared int sv;\nfunc f(int p) {\n";
  for (int I = 0; I != N; ++I) {
    Source += "  int v" + std::to_string(I) + " = p + " + std::to_string(I) +
              ";\n";
    if (I % 3 == 0)
      Source += "  if (v" + std::to_string(I) + " > 2) sv = sv + 1;\n";
  }
  Source += "  return sv;\n}\nfunc main() { print(f(1)); }\n";
  auto C = check(Source);
  ASSERT_TRUE(C.Symbols);
  CallGraph CG(*C.Prog);
  auto MRBits = computeModRef<BitVarSet>(*C.Prog, *C.Symbols, CG);
  auto MRList = computeModRef<ListVarSet>(*C.Prog, *C.Symbols, CG);
  Cfg G(*C.Prog, *C.Prog->Funcs[0]);
  std::vector<CfgNodeId> Region;
  for (CfgNodeId Id = 0; Id != G.size(); ++Id)
    Region.push_back(Id);
  auto True = [](const FuncDecl &) { return true; };
  auto Bits = computeUsedDefined<BitVarSet>(*C.Prog, *C.Symbols, G, Region,
                                            Cfg::EntryId, MRBits, True);
  auto List = computeUsedDefined<ListVarSet>(*C.Prog, *C.Symbols, G, Region,
                                             Cfg::EntryId, MRList, True);
  EXPECT_EQ(Bits.Used.toVector(), List.Used.toVector());
  EXPECT_EQ(Bits.Defined.toVector(), List.Defined.toVector());
}

INSTANTIATE_TEST_SUITE_P(Sizes, UsedDefinedCrossTest,
                         ::testing::Values(1, 4, 9, 16));

} // namespace
