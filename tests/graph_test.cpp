//===- tests/graph_test.cpp - Dynamic graph construction tests ------------===//
//
// Part of PPD test suite: DynamicGraph storage, GraphBuilder fragment
// construction — node kinds (§4.2), %n parameter nodes, scoped writer
// maps (recursion), element-precise array dependences, flow edges.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Controller.h"
#include "sema/Accesses.h"

#include <gtest/gtest.h>

using namespace ppd;
using namespace ppd::test;

namespace {

/// Builds a controller over a finished run and traces everything needed.
struct Session {
  Ran R;
  std::unique_ptr<PpdController> C;

  explicit Session(const std::string &Source, uint64_t Seed = 1,
                   CompileOptions COpts = {}, MachineOptions MOpts = {},
                   bool ExpectCompleted = true) {
    R = runProgram(Source, Seed, MOpts, COpts, ExpectCompleted);
    C = std::make_unique<PpdController>(*R.Prog, std::move(R.Log));
  }

  std::vector<DynNodeId> nodesLabelled(const std::string &Text) const {
    std::vector<DynNodeId> Out;
    for (uint32_t Id = 0; Id != C->graph().numNodes(); ++Id)
      if (C->graph().node(Id).Label.find(Text) != std::string::npos)
        Out.push_back(Id);
    return Out;
  }

  bool hasDataEdge(DynNodeId From, DynNodeId To) const {
    for (const DynEdge &E : C->graph().outEdges(From))
      if (E.To == To && (E.Kind == DynEdgeKind::Data ||
                         E.Kind == DynEdgeKind::CrossData))
        return true;
    return false;
  }
};

TEST(DynamicGraphTest, NodeAndEdgeStorage) {
  DynamicGraph G;
  DynNode A;
  A.Kind = DynNodeKind::Entry;
  A.Label = "entry";
  DynNodeId IdA = G.addNode(A);
  DynNode B;
  B.Kind = DynNodeKind::Singular;
  B.Pid = 0;
  B.Interval = 0;
  B.Event = 0;
  DynNodeId IdB = G.addNode(B);

  G.addEdge({DynEdgeKind::Data, IdA, IdB, 3, -1});
  EXPECT_EQ(G.numNodes(), 2u);
  ASSERT_EQ(G.inEdges(IdB).size(), 1u);
  EXPECT_EQ(G.inEdges(IdB).front().From, IdA);
  ASSERT_EQ(G.outEdges(IdA).size(), 1u);
  EXPECT_TRUE(G.inEdges(IdA).empty());
  EXPECT_EQ(G.nodeOfEvent(0, 0, 0), IdB);
  EXPECT_EQ(G.nodeOfEvent(0, 0, 1), InvalidId);
  EXPECT_FALSE(G.hasInterval(0, 0));
  G.markInterval(0, 0);
  EXPECT_TRUE(G.hasInterval(0, 0));
}

TEST(GraphBuilderTest, FlowEdgesChainEventsInOrder) {
  Session S("func main() { int a = 1; int b = 2; print(a + b); }");
  S.C->startAtLastEvent(0);
  // Flow edges: ENTRY → a → b → print.
  unsigned FlowEdges = 0;
  for (const DynEdge &E : S.C->graph().edges())
    FlowEdges += E.Kind == DynEdgeKind::Flow;
  EXPECT_EQ(FlowEdges, 3u);
}

TEST(GraphBuilderTest, ElementPreciseArrayDependences) {
  Session S(R"(
func main() {
  int a[4];
  a[0] = 10;
  a[1] = 20;
  print(a[0]);
}
)");
  DynNodeId Print = S.C->startAtLastEvent(0);
  auto W0 = S.nodesLabelled("a[0] = 10");
  auto W1 = S.nodesLabelled("a[1] = 20");
  ASSERT_EQ(W0.size(), 1u);
  ASSERT_EQ(W1.size(), 1u);
  EXPECT_TRUE(S.hasDataEdge(W0[0], Print))
      << "the read of a[0] depends on the a[0] write";
  EXPECT_FALSE(S.hasDataEdge(W1[0], Print))
      << "...but not on the a[1] write (element precision)";
}

TEST(GraphBuilderTest, WholeArrayWriteSupersedesElementWriters) {
  // Redeclaration in an inner scope zero-fills: a fresh variable whose
  // whole-array write is the only writer.
  Session S(R"(
func f(int k) {
  int a[4];
  a[0] = k;
  return a[0];
}
func main() {
  int x = f(1);
  int y = f(2);
  print(x + y);
}
)");
  S.C->startAtLastEvent(0);
  (void)S;
}

TEST(GraphBuilderTest, RecursionGetsScopedWriterMaps) {
  // Inline-replayed recursion happens in FullTrace mode: every frame's
  // params live in their own scope, so p in the outer frame is not
  // confused with p in the inner frame.
  CompileOptions COpts;
  MachineOptions MOpts;
  MOpts.Mode = RunMode::FullTrace;
  auto R = runProgram(
      "func fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }\n"
      "func main() { print(fact(4)); }",
      1, MOpts, COpts);
  EXPECT_EQ(R.PrintedValues, (std::vector<int64_t>{24}));
  // (The FullTrace buffers feed the same builder; the assertion here is
  // that the run and the nested CallBegin/CallEnd bracketing completed
  // without tripping the builder's scope assertions in debug builds.)
  unsigned Begins = 0, Ends = 0;
  // main's process trace is index 0.
  // Count bracket balance.
  // Note: traces()[0] only exists while the machine lives; runProgram
  // already dropped it, so re-run quickly here.
  auto Prog = compileOk(
      "func fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }\n"
      "func main() { print(fact(4)); }");
  MachineOptions M2;
  M2.Mode = RunMode::FullTrace;
  Machine M(*Prog, M2);
  M.run();
  for (const TraceEvent &E : M.traces()[0].Events) {
    Begins += E.Kind == TraceEventKind::CallBegin;
    Ends += E.Kind == TraceEventKind::CallEnd;
  }
  EXPECT_EQ(Begins, 4u) << "fact(4) → fact(3) → fact(2) → fact(1)";
  EXPECT_EQ(Begins, Ends);
}

TEST(GraphBuilderTest, InlineCalleeParamNodesSeedScope) {
  CompileOptions COpts;
  COpts.EBlocks.LeafInheritance = true;
  Session S(R"(
func leaf(int v) { return v + 100; }
func main() {
  int x = 7;
  print(leaf(x));
}
)",
            1, COpts);
  DynNodeId Print = S.C->startAtLastEvent(0);
  (void)Print;

  // The %1 node carries x's value and feeds the sub-graph; inside the
  // callee, `return v + 100` reads v from the %1 node.
  auto Params = S.nodesLabelled("%1");
  ASSERT_EQ(Params.size(), 1u);
  const DynNode &P1 = S.C->graph().node(Params[0]);
  EXPECT_TRUE(P1.HasValue);
  EXPECT_EQ(P1.Value, 7);

  auto Returns = S.nodesLabelled("return v + 100");
  ASSERT_EQ(Returns.size(), 1u);
  EXPECT_TRUE(S.hasDataEdge(Params[0], Returns[0]))
      << "v's value flows from the %1 binding node";

  // And the x that fed %1 resolves to `int x = 7`.
  auto XDef = S.nodesLabelled("int x = 7");
  ASSERT_EQ(XDef.size(), 1u);
  EXPECT_TRUE(S.hasDataEdge(XDef[0], Params[0]));
}

TEST(GraphBuilderTest, SkippedCallRedirectsGlobalReads) {
  Session S(R"(
shared int g;
func setter() { g = 5; }
func main() {
  setter();
  print(g);
}
)");
  DynNodeId Print = S.C->startAtLastEvent(0);
  // g's read resolves (within the same interval) to the *unexpanded*
  // sub-graph node, inviting expansion.
  auto Subs = S.nodesLabelled("setter(...)");
  ASSERT_EQ(Subs.size(), 1u);
  EXPECT_TRUE(S.hasDataEdge(Subs[0], Print));
  EXPECT_FALSE(S.C->graph().node(Subs[0]).Expanded);

  // Expansion pulls in the callee's `g = 5` statement.
  DynNodeId Entry = S.C->expandCall(Subs[0]);
  ASSERT_NE(Entry, InvalidId);
  EXPECT_EQ(S.nodesLabelled("g = 5").size(), 1u);
}

TEST(GraphBuilderTest, PredicateValuesAndBranchLabels) {
  Session S(R"(
func main() {
  int x = 3;
  if (x > 5) print(1);
  else print(2);
  while (x > 0) x = x - 1;
}
)");
  S.C->startAtLastEvent(0);
  auto Ifs = S.nodesLabelled("if (x > 5)");
  ASSERT_EQ(Ifs.size(), 1u);
  EXPECT_TRUE(S.C->graph().node(Ifs[0]).HasValue);
  EXPECT_EQ(S.C->graph().node(Ifs[0]).Value, 0);

  // Four while-predicate events: 3, 2, 1, 0 — each a separate node; the
  // body executions are control dependent on the *previous* evaluation.
  auto Whiles = S.nodesLabelled("while (x > 0)");
  EXPECT_EQ(Whiles.size(), 4u);
  auto Decs = S.nodesLabelled("x = x - 1");
  EXPECT_EQ(Decs.size(), 3u);
  for (DynNodeId Dec : Decs) {
    bool HasWhileParent = false;
    for (const DynEdge &E : S.C->graph().inEdges(Dec))
      if (E.Kind == DynEdgeKind::Control)
        HasWhileParent |= S.C->graph().node(E.From).Label.find("while") !=
                          std::string::npos;
    EXPECT_TRUE(HasWhileParent);
  }
}

TEST(GraphBuilderTest, EveryReadHasADependenceSource) {
  // Graph completeness invariant: every value a singular node read arrived
  // through some incoming data/cross edge (possibly from ENTRY or an
  // Initial node).
  Session S(R"(
shared int g = 5;
func main() {
  int x = g + 2;
  int y = x * x;
  if (y > 10) y = y - g;
  print(y);
}
)");
  DynNodeId Last = S.C->startAtLastEvent(0);
  S.C->resolveAllCrossReads();
  (void)Last;
  for (uint32_t Id = 0; Id != S.C->graph().numNodes(); ++Id) {
    const DynNode &N = S.C->graph().node(Id);
    if (N.Kind != DynNodeKind::Singular)
      continue;
    // Reconstruct how many distinct variables this statement read.
    StmtAccesses Acc = collectStmtAccesses(*S.R.Prog->Ast->stmt(N.Stmt));
    if (Acc.Reads.empty())
      continue;
    unsigned DataIn = 0;
    for (const DynEdge &E : S.C->graph().inEdges(Id))
      DataIn += E.Kind == DynEdgeKind::Data ||
                E.Kind == DynEdgeKind::CrossData;
    EXPECT_GE(DataIn, 1u) << "node " << N.Label << " reads "
                          << Acc.Reads.size() << " vars but has no source";
  }
}

TEST(GraphBuilderTest, SliceDotContainsOnlyAncestors) {
  Session S(R"(
func main() {
  int used = 1;
  int unused = 999;
  print(used);
}
)");
  DynNodeId Last = S.C->startAtLastEvent(0);
  std::string Dot = S.C->graph().dot(*S.R.Prog->Ast, {Last});
  EXPECT_NE(Dot.find("int used = 1"), std::string::npos);
  EXPECT_EQ(Dot.find("int unused = 999"), std::string::npos)
      << "the backward slice excludes irrelevant statements";
}

} // namespace
