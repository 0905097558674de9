//===- tests/pdg_test.cpp - Dependence graph tests ------------------------===//
//
// Part of PPD test suite: control dependence, static PDG, simplified
// static graph and synchronization units (paper Fig 5.3).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "pdg/SimplifiedStaticGraph.h"
#include "pdg/StaticPdg.h"
#include "sema/CallGraph.h"
#include "testing/ProgramGen.h"

#include <gtest/gtest.h>

using namespace ppd;
using namespace ppd::test;

namespace {

struct PdgFixture {
  Checked C;
  std::unique_ptr<CallGraph> CG;
  ModRefResult<BitVarSet> MR;
  std::unique_ptr<Cfg> G;
  std::unique_ptr<StaticPdg> Pdg;

  explicit PdgFixture(const std::string &Source, unsigned FuncIndex = 0)
      : C(check(Source)) {
    CG = std::make_unique<CallGraph>(*C.Prog);
    MR = computeModRef<BitVarSet>(*C.Prog, *C.Symbols, *CG);
    G = std::make_unique<Cfg>(*C.Prog, *C.Prog->Funcs[FuncIndex]);
    Pdg = std::make_unique<StaticPdg>(*C.Prog, *C.Symbols, *G, MR);
  }

  CfgNodeId nodeAtLine(unsigned Line) const {
    for (StmtId Id = 0; Id != C.Prog->numStmts(); ++Id)
      if (C.Prog->stmt(Id)->getLoc().Line == Line &&
          G->nodeOf(Id) != InvalidId)
        return G->nodeOf(Id);
    ADD_FAILURE() << "no node at line " << Line;
    return InvalidId;
  }

  bool hasControlParent(CfgNodeId Node, CfgNodeId Branch, int Label) const {
    for (const ControlDep &Dep : Pdg->controlParents(Node))
      if (Dep.Branch == Branch && (Label == -2 || Dep.Label == Label))
        return true;
    return false;
  }

  bool hasDataDep(CfgNodeId From, CfgNodeId To, const char *VarName) const {
    VarId Var = varNamed(*C.Symbols, VarName);
    for (const DataDep &Dep : Pdg->dataDepsOf(To))
      if (Dep.From == From && Dep.Var == Var)
        return true;
    return false;
  }
};

//===----------------------------------------------------------------------===//
// Control dependence
//===----------------------------------------------------------------------===//

TEST(ControlDepTest, IfArmsDependOnPredicate) {
  PdgFixture F("func main() {\n"
               "  int x = input();\n" // 2
               "  if (x > 0)\n"       // 3
               "    x = 1;\n"         // 4
               "  else\n"
               "    x = 2;\n"         // 6
               "  print(x);\n"        // 7
               "}\n");
  CfgNodeId If = F.nodeAtLine(3);
  EXPECT_TRUE(F.hasControlParent(F.nodeAtLine(4), If, 1));
  EXPECT_TRUE(F.hasControlParent(F.nodeAtLine(6), If, 0));
  EXPECT_FALSE(F.hasControlParent(F.nodeAtLine(7), If, -2))
      << "the join point is not control dependent on the branch";
  EXPECT_TRUE(F.hasControlParent(F.nodeAtLine(7), Cfg::EntryId, -2));
  EXPECT_TRUE(F.hasControlParent(If, Cfg::EntryId, -2));
}

TEST(ControlDepTest, NestedIf) {
  PdgFixture F("func main() {\n"
               "  int x = input();\n" // 2
               "  if (x > 0) {\n"     // 3
               "    if (x > 10)\n"    // 4
               "      x = 10;\n"      // 5
               "  }\n"
               "  print(x);\n"        // 7
               "}\n");
  EXPECT_TRUE(F.hasControlParent(F.nodeAtLine(4), F.nodeAtLine(3), 1));
  EXPECT_TRUE(F.hasControlParent(F.nodeAtLine(5), F.nodeAtLine(4), 1));
  EXPECT_FALSE(F.hasControlParent(F.nodeAtLine(5), F.nodeAtLine(3), -2))
      << "control dependence is on the immediate governing predicate only";
}

TEST(ControlDepTest, WhileBodyAndSelfDependence) {
  PdgFixture F("func main() {\n"
               "  int i = 0;\n"     // 2
               "  while (i < 3)\n"  // 3
               "    i = i + 1;\n"   // 4
               "  print(i);\n"      // 5
               "}\n");
  CfgNodeId While = F.nodeAtLine(3);
  EXPECT_TRUE(F.hasControlParent(F.nodeAtLine(4), While, 1));
  EXPECT_TRUE(F.hasControlParent(While, While, 1))
      << "whether the condition runs again depends on itself";
  EXPECT_FALSE(F.hasControlParent(F.nodeAtLine(5), While, -2));
}

//===----------------------------------------------------------------------===//
// Static PDG data dependences
//===----------------------------------------------------------------------===//

TEST(StaticPdgTest, StraightLineFlow) {
  PdgFixture F("func main() {\n"
               "  int a = 1;\n"     // 2
               "  int b = a + 1;\n" // 3
               "  print(b);\n"      // 4
               "}\n");
  EXPECT_TRUE(F.hasDataDep(F.nodeAtLine(2), F.nodeAtLine(3), "a"));
  EXPECT_TRUE(F.hasDataDep(F.nodeAtLine(3), F.nodeAtLine(4), "b"));
  EXPECT_FALSE(F.hasDataDep(F.nodeAtLine(2), F.nodeAtLine(4), "a"));
}

TEST(StaticPdgTest, BothBranchDefsReachUse) {
  PdgFixture F("func main() {\n"
               "  int x = input();\n" // 2
               "  if (x > 0)\n"       // 3
               "    x = 1;\n"         // 4
               "  else\n"
               "    x = 2;\n"         // 6
               "  print(x);\n"        // 7
               "}\n");
  EXPECT_TRUE(F.hasDataDep(F.nodeAtLine(4), F.nodeAtLine(7), "x"));
  EXPECT_TRUE(F.hasDataDep(F.nodeAtLine(6), F.nodeAtLine(7), "x"));
  EXPECT_FALSE(F.hasDataDep(F.nodeAtLine(2), F.nodeAtLine(7), "x"))
      << "the input def is strongly killed on both paths";
  // The predicate reads the input value.
  EXPECT_TRUE(F.hasDataDep(F.nodeAtLine(2), F.nodeAtLine(3), "x"));
}

TEST(StaticPdgTest, CallRefEdgeThroughGlobal) {
  PdgFixture F("shared int sv;\n"
               "func reader() { return sv; }\n"
               "func main() {\n"
               "  sv = 3;\n"            // 4
               "  print(reader());\n"   // 5
               "}\n",
               /*FuncIndex=*/1);
  EXPECT_TRUE(F.hasDataDep(F.nodeAtLine(4), F.nodeAtLine(5), "sv"))
      << "REF(reader) makes the call read sv";
}

TEST(StaticPdgTest, ParamReadsDependOnEntry) {
  PdgFixture F("func f(int p) {\n"
               "  return p + 1;\n" // 2
               "}\n"
               "func main() { print(f(1)); }\n");
  EXPECT_TRUE(F.hasDataDep(Cfg::EntryId, F.nodeAtLine(2), "p"));
}

TEST(StaticPdgTest, DotContainsLegendStyles) {
  PdgFixture F("func main() { int a = 1; if (a) print(a); }");
  std::string Dot = F.Pdg->dot(*F.C.Prog);
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos)
      << "control dependences drawn dashed (Fig 4.1 legend)";
  EXPECT_NE(Dot.find("label=\"a\""), std::string::npos)
      << "data edges labelled with the variable";
}

//===----------------------------------------------------------------------===//
// Simplified static graph and synchronization units (Fig 5.3)
//===----------------------------------------------------------------------===//

/// The paper's Fig 5.3 subroutine foo3, transcribed to PPL. The statement
/// `SV = a + b + SV` sits behind the p/q branches exactly as in the figure.
constexpr const char *Foo3 = R"(
shared int SV;
func foo3(int a, int b, int p, int q) {
  int r = 0;
  if (p == 1) {
    if (q == 1) {
      r = 1;
    } else {
      r = 2;
    }
  } else {
    SV = a + b + SV;
    r = 3;
  }
  return r;
}
func main() { print(foo3(1, 2, 3, 4)); }
)";

struct SimpFixture {
  Checked C;
  std::unique_ptr<CallGraph> CG;
  ModRefResult<BitVarSet> MR;
  std::unique_ptr<Cfg> G;
  std::unique_ptr<SimplifiedStaticGraph> Simp;

  explicit SimpFixture(const std::string &Source, unsigned FuncIndex = 0,
                       bool CalleesLogged = true)
      : C(check(Source)) {
    CG = std::make_unique<CallGraph>(*C.Prog);
    MR = computeModRef<BitVarSet>(*C.Prog, *C.Symbols, *CG);
    G = std::make_unique<Cfg>(*C.Prog, *C.Prog->Funcs[FuncIndex]);
    Simp = std::make_unique<SimplifiedStaticGraph>(
        *C.Prog, *C.Symbols, *G, MR,
        [CalleesLogged](const FuncDecl &) { return CalleesLogged; });
  }
};

TEST(SimplifiedGraphTest, Foo3HasSingleUnitCoveringAll) {
  SimpFixture F(Foo3);
  // foo3 contains no synchronization operations: only ENTRY starts a unit.
  ASSERT_EQ(F.Simp->units().size(), 1u);
  const SyncUnit &U = F.Simp->units()[0];
  EXPECT_EQ(U.Start, Cfg::EntryId);
  // The one unit's shared-read set is {SV}, because SV may be read on the
  // p!=1 path — exactly the additional prelog Fig 5.3 motivates.
  ASSERT_EQ(U.SharedReads.size(), 1u);
  EXPECT_EQ(F.C.Symbols->var(U.SharedReads[0]).Name, "SV");
}

TEST(SimplifiedGraphTest, SemaphoresSplitUnits) {
  SimpFixture F(R"(
shared int SV;
sem m = 1;
func f() {
  int x = 0;
  P(m);
  x = SV;
  V(m);
  return x;
}
func main() { print(f()); }
)");
  // Units start at ENTRY, P, and V.
  ASSERT_EQ(F.Simp->units().size(), 3u);
  const SyncUnit *EntryUnit = F.Simp->unitStartingAt(Cfg::EntryId);
  ASSERT_NE(EntryUnit, nullptr);
  EXPECT_TRUE(EntryUnit->SharedReads.empty())
      << "SV is only read after the P; the entry unit logs nothing";

  // Exactly one unit reads SV: the one starting at P(m).
  unsigned UnitsReadingSv = 0;
  for (const SyncUnit &U : F.Simp->units())
    if (!U.SharedReads.empty())
      ++UnitsReadingSv;
  EXPECT_EQ(UnitsReadingSv, 1u);
}

TEST(SimplifiedGraphTest, UnitsMayOverlap) {
  // Two paths join: the statement after the join is reachable from both
  // boundary nodes without crossing another boundary — so it belongs to
  // two units, like e8/e9 in Fig 5.3.
  SimpFixture F(R"(
shared int SV;
sem m;
func f(int p) {
  if (p == 1) {
    P(m);
  } else {
    V(m);
  }
  SV = SV + 1;
}
func main() { f(1); }
)");
  VarId Sv = varNamed(*F.C.Symbols, "SV");
  unsigned UnitsWithSv = 0;
  for (const SyncUnit &U : F.Simp->units())
    for (VarId V : U.SharedReads)
      if (V == Sv)
        ++UnitsWithSv;
  EXPECT_GE(UnitsWithSv, 2u) << "the SV read is in both the P-unit and the "
                                "V-unit (overlap like Fig 5.3)";
}

TEST(SimplifiedGraphTest, LoggedCallIsBoundaryUnloggedIsNot) {
  const char *Source = R"(
shared int SV;
func callee() { return SV; }
func f() {
  int x = callee();
  return x + SV;
}
func main() { print(f()); }
)";
  {
    SimpFixture F(Source, /*FuncIndex=*/1, /*CalleesLogged=*/true);
    EXPECT_EQ(F.Simp->units().size(), 2u)
        << "the logged call starts a second unit";
  }
  {
    SimpFixture F(Source, /*FuncIndex=*/1, /*CalleesLogged=*/false);
    ASSERT_EQ(F.Simp->units().size(), 1u);
    // The inlined callee's shared REF is inherited into the entry unit.
    ASSERT_EQ(F.Simp->units()[0].SharedReads.size(), 1u);
    EXPECT_EQ(F.C.Symbols->var(F.Simp->units()[0].SharedReads[0]).Name, "SV");
  }
}

TEST(SimplifiedGraphTest, SendRecvSpawnAreBoundaries) {
  SimpFixture F(R"(
chan c;
func w(int x) { send(c, x); }
func main() {
  spawn w(1);
  int v = recv(c);
  print(v);
}
)",
                /*FuncIndex=*/1);
  // main: ENTRY, spawn, recv-assign are unit starts.
  EXPECT_EQ(F.Simp->units().size(), 3u);
}

TEST(SimplifiedGraphTest, DotHasFig53Legend) {
  SimpFixture F(Foo3);
  std::string Dot = F.Simp->dot(*F.C.Prog);
  EXPECT_NE(Dot.find("shape=circle"), std::string::npos)
      << "branching nodes drawn as circles";
  EXPECT_NE(Dot.find("shape=box"), std::string::npos)
      << "non-branching nodes drawn as boxes";
  EXPECT_NE(Dot.find("ENTRY"), std::string::npos);
  EXPECT_NE(Dot.find("EXIT"), std::string::npos);
}

// The DOT text of every static PDG of each shipped example — what
// `ppd compile --dump-pdg` prints — is pinned by its FNV-1a hash, so a change
// to how the analyses are computed cannot move a single edge.
TEST(StaticPdgTest, CorpusDotIsPinned) {
  const struct {
    const char *Name;
    uint64_t Hash;
  } Pins[] = {
      {"bank_race.ppl", 0xa16f9f9c26d3e5e5ull},
      {"bounded_buffer.ppl", 0x580d2c13c83bea51ull},
      {"crash.ppl", 0x6b9ac4010fcd2ef3ull},
      {"deadlock.ppl", 0x0e93f4fd47beb680ull},
      {"fig41.ppl", 0xec364f0ef8620ccdull},
  };
  for (const auto &Pin : Pins) {
    auto Prog = compileOk(readCorpusFile(Pin.Name));
    ASSERT_TRUE(Prog != nullptr) << Pin.Name;
    std::string Dump;
    for (const auto &F : Prog->Ast->Funcs)
      Dump += "\n" + StaticPdg(*Prog->Ast, *Prog->Symbols,
                                *Prog->Cfgs[F->Index], Prog->ModRef)
                          .dot(*Prog->Ast);
    uint64_t Hash = 1469598103934665603ull;
    for (unsigned char Ch : Dump) {
      Hash ^= Ch;
      Hash *= 1099511628211ull;
    }
    EXPECT_EQ(Hash, Pin.Hash) << Pin.Name << ": 0x" << std::hex << Hash;
  }
}

/// Every function of \p Source: the control parents the compiler keeps must
/// equal the full StaticPdg's, element for element, at every CFG node.
void expectCompiledControlMatches(const std::string &Source,
                                  const std::string &Label) {
  auto Prog = compileOk(Source);
  ASSERT_TRUE(Prog != nullptr) << Label;
  ASSERT_EQ(Prog->Control.size(), Prog->Ast->Funcs.size()) << Label;
  for (const auto &F : Prog->Ast->Funcs) {
    const Cfg &G = *Prog->Cfgs[F->Index];
    StaticPdg Pdg(*Prog->Ast, *Prog->Symbols, G, Prog->ModRef);
    for (CfgNodeId Node = 0; Node != G.size(); ++Node) {
      const std::vector<ControlDep> &Got =
          Prog->Control[F->Index].parents(Node);
      const std::vector<ControlDep> &Want = Pdg.controlParents(Node);
      std::string Where = Label + " func " + F->Name + " node " +
                          std::to_string(Node);
      ASSERT_EQ(Got.size(), Want.size()) << Where;
      for (size_t I = 0; I != Want.size(); ++I) {
        EXPECT_EQ(Got[I].Branch, Want[I].Branch) << Where << " parent " << I;
        EXPECT_EQ(Got[I].Label, Want[I].Label) << Where << " parent " << I;
      }
    }
  }
}

// The compiled program keeps only the control dependences of each static
// PDG; they must be exactly the ones the full graph computes.
TEST(StaticPdgTest, CompiledControlMatchesStaticPdg) {
  for (const char *Name : Corpus)
    expectCompiledControlMatches(readCorpusFile(Name), Name);
  for (uint64_t Seed = 1; Seed <= 200; ++Seed)
    expectCompiledControlMatches(
        ppd::testing::generateProgram(Seed).render(),
        "seed " + std::to_string(Seed));
}

} // namespace
