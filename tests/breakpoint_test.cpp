//===- tests/breakpoint_test.cpp - Breakpoints and stop markers -----------===//
//
// Part of PPD test suite. The paper's debugging phase begins "when the
// program halts, due to either an error or user intervention" (§3.2.2);
// breakpoints are the user-intervention path. The machine freezes all
// co-operating processes and writes Stop markers so replay reconstructs
// each process's history exactly up to where it actually stopped — the
// timely-halt concern §5.7 raises (citing [24]).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Controller.h"
#include "core/Replay.h"

#include <gtest/gtest.h>

using namespace ppd;
using namespace ppd::test;

namespace {

/// The StmtId of the first statement on \p Line.
StmtId stmtAtLine(const Program &P, unsigned Line) {
  for (StmtId Id = 0; Id != P.numStmts(); ++Id)
    if (P.stmt(Id)->getLoc().Line == Line && !isa<BlockStmt>(P.stmt(Id)))
      return Id;
  ADD_FAILURE() << "no statement at line " << Line;
  return InvalidId;
}

TEST(BreakpointTest, HaltsBeforeTheStatementExecutes) {
  auto Prog = compileOk("shared int g;\n"
                        "func main() {\n"
                        "  g = 1;\n"  // line 3
                        "  g = 2;\n"  // line 4 ← break here
                        "  g = 3;\n"  // line 5
                        "}\n");
  MachineOptions MOpts;
  MOpts.Breakpoints = {stmtAtLine(*Prog->Ast, 4)};
  Machine M(*Prog, MOpts);
  RunResult Result = M.run();
  ASSERT_EQ(int(Result.Outcome), int(RunResult::Status::Breakpoint));
  EXPECT_EQ(Result.BreakPid, 0u);
  EXPECT_EQ(Result.BreakStmt, stmtAtLine(*Prog->Ast, 4));
  // g = 2 did NOT execute.
  EXPECT_EQ(M.sharedMemory()[0], 1);
}

TEST(BreakpointTest, StopMarkerWritten) {
  auto Prog = compileOk("func main() { int a = 1; print(a); }");
  MachineOptions MOpts;
  MOpts.Breakpoints = {stmtAtLine(*Prog->Ast, 1)};
  Machine M(*Prog, MOpts);
  ASSERT_EQ(int(M.run().Outcome), int(RunResult::Status::Breakpoint));
  const auto &Records = M.log().Procs[0].Records;
  ASSERT_FALSE(Records.empty());
  EXPECT_EQ(int(Records.back().Kind), int(LogRecordKind::Stop));
  EXPECT_NE(Records.back().Stmt, InvalidId);
}

TEST(BreakpointTest, ReplayStopsExactlyAtTheBreak) {
  auto Prog = compileOk("shared int g;\n"
                        "func main() {\n"
                        "  g = 1;\n"
                        "  g = 2;\n"
                        "  g = 3;\n" // line 5 ← break here
                        "  g = 4;\n"
                        "}\n");
  StmtId Break = stmtAtLine(*Prog->Ast, 5);
  MachineOptions MOpts;
  MOpts.Breakpoints = {Break};
  Machine M(*Prog, MOpts);
  ASSERT_EQ(int(M.run().Outcome), int(RunResult::Status::Breakpoint));

  PpdController Controller(*Prog, M.takeLog());
  DynNodeId Last = Controller.startAtLastEvent(0);
  ASSERT_NE(Last, InvalidId);
  // The session's focus is g = 2 — the last statement that *executed*.
  EXPECT_NE(Controller.graph().node(Last).Label.find("g = 2"),
            std::string::npos);
  // No node for g = 3 or g = 4 exists: replay must not fabricate events
  // past the freeze.
  for (uint32_t Id = 0; Id != Controller.graph().numNodes(); ++Id) {
    EXPECT_EQ(Controller.graph().node(Id).Label.find("g = 3"),
              std::string::npos);
    EXPECT_EQ(Controller.graph().node(Id).Label.find("g = 4"),
              std::string::npos);
  }
}

TEST(BreakpointTest, BreakInsideLoopStopsAtSomeOccurrence) {
  auto Prog = compileOk("shared int g;\n"
                        "func main() {\n"
                        "  int i = 0;\n"
                        "  while (i < 5) {\n"
                        "    g = g + 1;\n" // line 5 ← break
                        "    i = i + 1;\n"
                        "  }\n"
                        "}\n");
  MachineOptions MOpts;
  MOpts.Breakpoints = {stmtAtLine(*Prog->Ast, 5)};
  Machine M(*Prog, MOpts);
  RunResult Result = M.run();
  ASSERT_EQ(int(Result.Outcome), int(RunResult::Status::Breakpoint));
  // Breaks on the first iteration, before the first increment.
  EXPECT_EQ(M.sharedMemory()[0], 0);
}

TEST(BreakpointTest, OtherProcessesFreezeWithStopMarkers) {
  auto Prog = compileOk(R"(
shared int g;
chan pace;
func spinner() {
  int i = 0;
  for (i = 0; i < 1000000; i = i + 1) g = g + 1;
}
func main() {
  spawn spinner();
  int j = 0;
  j = j + 1;
  j = j + 2;
  print(j);
}
)");
  // Break on main's print; the spinner freezes mid-loop.
  StmtId Break = InvalidId;
  for (StmtId Id = 0; Id != Prog->Ast->numStmts(); ++Id)
    if (isa<PrintStmt>(Prog->Ast->stmt(Id)))
      Break = Id;
  ASSERT_NE(Break, InvalidId);
  MachineOptions MOpts;
  MOpts.Breakpoints = {Break};
  Machine M(*Prog, MOpts);
  ASSERT_EQ(int(M.run().Outcome), int(RunResult::Status::Breakpoint));

  // Both processes carry Stop markers.
  for (uint32_t Pid = 0; Pid != 2; ++Pid)
    EXPECT_EQ(int(M.log().Procs[Pid].Records.back().Kind),
              int(LogRecordKind::Stop))
        << "pid " << Pid;

  // The spinner's replay is partial and bounded: it must not run the
  // remaining hundreds of thousands of iterations.
  ExecutionLog Log = M.takeLog();
  LogIndex Index(Log);
  const LogInterval *Open = Index.lastOpenInterval(1);
  ASSERT_NE(Open, nullptr);
  ReplayEngine Engine(*Prog);
  ReplayResult Res = Engine.replay(Log, 1, *Open);
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_TRUE(Res.Partial);
}

TEST(BreakpointTest, NoBreakpointsMeansNormalCompletion) {
  auto R = runProgram("func main() { print(42); }");
  EXPECT_EQ(R.PrintedValues, (std::vector<int64_t>{42}));
}

TEST(BreakpointTest, StopMarkersSurviveSerialization) {
  auto Prog = compileOk("func main() { int a = 1; int b = 2; print(a); }");
  MachineOptions MOpts;
  for (StmtId Id = 0; Id != Prog->Ast->numStmts(); ++Id)
    if (isa<PrintStmt>(Prog->Ast->stmt(Id)))
      MOpts.Breakpoints = {Id};
  Machine M(*Prog, MOpts);
  ASSERT_EQ(int(M.run().Outcome), int(RunResult::Status::Breakpoint));

  ScopedTempDir TmpDir;
  std::string Path = TmpDir.file("log.bin");
  ASSERT_TRUE(M.log().save(Path));
  ExecutionLog Loaded;
  ASSERT_TRUE(ExecutionLog::load(Path, Loaded));
  EXPECT_EQ(int(Loaded.Procs[0].Records.back().Kind),
            int(LogRecordKind::Stop));
}

} // namespace
