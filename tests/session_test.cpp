//===- tests/session_test.cpp - DebugSession command tests ----------------===//
//
// Part of PPD test suite: the text-command debugging session backing the
// `ppd debug` REPL — the user-facing surface the paper's §7 interface
// discussion asks for.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/DebugSession.h"

#include <gtest/gtest.h>

using namespace ppd;
using namespace ppd::test;

namespace {

struct SessionFixture {
  Ran R;
  std::unique_ptr<PpdController> Controller;
  std::unique_ptr<DebugSession> Session;

  explicit SessionFixture(const std::string &Source, uint64_t Seed = 1,
                          bool ExpectCompleted = true) {
    R = runProgram(Source, Seed, {}, {}, ExpectCompleted);
    Controller =
        std::make_unique<PpdController>(*R.Prog, std::move(R.Log));
    Session = std::make_unique<DebugSession>(*R.Prog, *Controller);
  }

  std::string run(const std::string &Command) {
    return Session->execute(Command);
  }
};

TEST(SessionTest, HelpListsEveryCommand) {
  SessionFixture S("func main() { print(1); }");
  std::string Help = S.run("help");
  for (const char *Cmd : {"where", "node", "back", "fwd", "expand", "races",
                          "restore", "whatif", "list", "graphdot", "pardot",
                          "stats"})
    EXPECT_NE(Help.find(Cmd), std::string::npos) << Cmd;
}

TEST(SessionTest, UnknownCommandGivesHint) {
  SessionFixture S("func main() { print(1); }");
  EXPECT_NE(S.run("frobnicate").find("unknown command"), std::string::npos);
  EXPECT_EQ(S.run(""), "");
}

TEST(SessionTest, WhereFocusesLastEventWithSourceLine) {
  SessionFixture S("func main() {\n  int x = 1;\n  print(x);\n}");
  std::string Out = S.run("where 0");
  EXPECT_NE(Out.find("print(x)"), std::string::npos);
  EXPECT_NE(Out.find("(line 3)"), std::string::npos);
  EXPECT_NE(S.Session->current(), InvalidId);
}

TEST(SessionTest, WhereRejectsBadPid) {
  SessionFixture S("func main() { print(1); }");
  EXPECT_NE(S.run("where 9").find("no such process"), std::string::npos);
}

TEST(SessionTest, BackFollowsDataDependence) {
  SessionFixture S("func main() {\n"
                   "  int a = 5;\n"
                   "  int b = a * 2;\n"
                   "  print(b);\n"
                   "}");
  S.run("where 0");
  EXPECT_NE(S.run("back").find("int b = a * 2"), std::string::npos);
  EXPECT_NE(S.run("back").find("int a = 5"), std::string::npos);
  EXPECT_NE(S.run("back").find("no data dependence"), std::string::npos);
}

TEST(SessionTest, FwdReversesBack) {
  SessionFixture S("func main() { int a = 5; int b = a + 1; print(b); }");
  S.run("where 0");
  DynNodeId Print = S.Session->current();
  S.run("back");
  EXPECT_NE(S.Session->current(), Print);
  S.run("fwd");
  EXPECT_EQ(S.Session->current(), Print);
}

TEST(SessionTest, BackRequiresFocus) {
  SessionFixture S("func main() { print(1); }");
  EXPECT_NE(S.run("back").find("use 'where' first"), std::string::npos);
  EXPECT_NE(S.run("fwd").find("use 'where' first"), std::string::npos);
}

TEST(SessionTest, ExpandSubGraphNode) {
  SessionFixture S("func sq(int v) { return v * v; }\n"
                   "func main() { print(sq(6)); }");
  S.run("where 0");
  // Find the sub-graph node id.
  DynNodeId Sub = InvalidId;
  for (uint32_t Id = 0; Id != S.Controller->graph().numNodes(); ++Id)
    if (S.Controller->graph().node(Id).Kind == DynNodeKind::SubGraph)
      Sub = Id;
  ASSERT_NE(Sub, InvalidId);
  std::string Out = S.run("expand " + std::to_string(Sub));
  EXPECT_NE(Out.find("expanded; callee detail begins"), std::string::npos);
  EXPECT_NE(S.run("expand " + std::to_string(Sub))
                .find("not an unexpanded sub-graph node"),
            std::string::npos)
      << "double expansion is rejected";
}

TEST(SessionTest, RacesCommand) {
  SessionFixture Racy(R"(
shared int sv;
chan done;
func w(int x) { sv = sv + x; send(done, 1); }
func main() {
  spawn w(1);
  spawn w(2);
  int a = recv(done);
  int b = recv(done);
}
)");
  EXPECT_NE(Racy.run("races").find("race on shared variable 'sv'"),
            std::string::npos);

  SessionFixture Clean("func main() { print(1); }");
  EXPECT_NE(Clean.run("races").find("race-free"), std::string::npos);
}

TEST(SessionTest, RestoreShowsGlobals) {
  SessionFixture S(R"(
shared int total;
func add(int v) { total = total + v; }
func main() {
  add(10);
  add(32);
  print(total);
}
)");
  EXPECT_NE(S.run("restore 0 1").find("total = 10"), std::string::npos);
  EXPECT_NE(S.run("restore 0 2").find("total = 42"), std::string::npos);
  EXPECT_NE(S.run("restore 0 99").find("no such interval"),
            std::string::npos);
}

TEST(SessionTest, WhatIfCommand) {
  SessionFixture S("func main() {\n"
                   "  int x = 10;\n"
                   "  if (x > 5) print(111);\n"
                   "  else print(222);\n"
                   "}");
  std::string Out = S.run("whatif 0 0 1 x 0");
  EXPECT_NE(Out.find("222"), std::string::npos);
  EXPECT_NE(S.run("whatif 0 0 1 nosuchvar 0").find("usage:"),
            std::string::npos);

  // VAR names what the interval's root function sees: f's local g must
  // not capture the override of the global g that main reads.
  SessionFixture Shadow("int g = 1;\n"
                        "func f() { int g = 7; return g; }\n"
                        "func main() { int a = g + 1; print(a); print(f()); }");
  EXPECT_NE(Shadow.run("whatif 0 0 0 g 100").find("printed: 101 7"),
            std::string::npos);
  // EVENT past the interval's last event: the override would never fire,
  // so there is no what-if result to print (the parent printed the
  // unmodified run, "printed: 2 7").
  EXPECT_EQ(Shadow.run("whatif 0 0 999 g 100"),
            "no such event: interval 0 of process 0 has 4 events\n");
  // Event 3 is the skipped call to f: no statement begins there, so the
  // override never fires (the parent printed the unmodified "printed: 2
  // 7" as the what-if result).
  EXPECT_EQ(Shadow.run("whatif 0 0 3 g 100"),
            "event 3 of interval 0 is a CallSkipped event; an override "
            "applies where a statement begins\n");
  // A VALUE that is not a number is a usage error, not 0 (the parent ran
  // it as 0 and printed "printed: 1 7").
  EXPECT_NE(Shadow.run("whatif 0 0 0 g abc").find("usage:"),
            std::string::npos);
  EXPECT_NE(Shadow.run("whatif 0 0 0 g 100x").find("usage:"),
            std::string::npos);
  // A local of another function is not visible from the root.
  SessionFixture Other("func f() { int h = 7; return h; }\n"
                       "func main() { print(f()); }");
  EXPECT_NE(Other.run("whatif 0 0 0 h 1").find("usage:"), std::string::npos);
}

TEST(SessionTest, ListShowsSource) {
  SessionFixture S("shared int sv;\nfunc main() { sv = 3; print(sv); }");
  std::string Out = S.run("list");
  EXPECT_NE(Out.find("shared int sv;"), std::string::npos);
  EXPECT_NE(Out.find("func main()"), std::string::npos);
}

TEST(SessionTest, DotCommands) {
  SessionFixture S("func main() { int a = 1; print(a); }");
  S.run("where 0");
  EXPECT_NE(S.run("graphdot").find("digraph"), std::string::npos);
  EXPECT_NE(S.run("pardot").find("digraph"), std::string::npos);
}

TEST(SessionTest, FailureSessionWalksToTheBug) {
  // The paper's end-to-end story: failure → flowback → bug.
  SessionFixture S("func main() {\n"
                   "  int d = 4;\n"
                   "  int z = d - 4;\n" // the bug: z becomes 0
                   "  print(d / z);\n"  // the failure
                   "}",
                   1, /*ExpectCompleted=*/false);
  std::string Where = S.run("where 0");
  EXPECT_NE(Where.find("print(d / z)"), std::string::npos);
  // The focused node's dependence list already names both sources — the
  // faulty assignment among them, with the erroneous value visible one
  // `node` hop away.
  EXPECT_NE(Where.find("int z = d - 4"), std::string::npos)
      << "the dependence list names the faulty assignment";
  std::string Back = S.run("back");
  EXPECT_NE(Back.find("int d = 4"), std::string::npos)
      << "back follows the first data dependence (the divisor's left arm)";
}

} // namespace
