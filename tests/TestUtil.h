//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of PPD test suite.
//
//===----------------------------------------------------------------------===//

#ifndef PPD_TESTS_TESTUTIL_H
#define PPD_TESTS_TESTUTIL_H

#include "compiler/Compiler.h"
#include "lang/Parser.h"
#include "pardyn/ParallelDynamicGraph.h"
#include "sema/Sema.h"
#include "support/Diagnostics.h"
#include "vm/Machine.h"

#include <gtest/gtest.h>

#include <stdlib.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace ppd::test {

/// A parsed and semantically checked program.
struct Checked {
  std::unique_ptr<Program> Prog;
  std::unique_ptr<SymbolTable> Symbols;
  DiagnosticEngine Diags;
};

/// Parses and runs sema on \p Source, failing the current test on any
/// diagnostic.
inline Checked check(const std::string &Source) {
  Checked Out;
  Out.Prog = Parser::parse(Source, Out.Diags);
  EXPECT_TRUE(Out.Prog != nullptr) << Out.Diags.str();
  if (!Out.Prog)
    return Out;
  Sema S(*Out.Prog, Out.Diags);
  Out.Symbols = S.run();
  EXPECT_TRUE(Out.Symbols != nullptr) << Out.Diags.str();
  return Out;
}

/// Finds the unique variable named \p Name, failing the test if absent or
/// ambiguous... returns InvalidId on failure.
inline VarId varNamed(const SymbolTable &Symbols, const std::string &Name) {
  VarId Found = InvalidId;
  for (const VarInfo &Info : Symbols.Vars) {
    if (Info.Name != Name)
      continue;
    EXPECT_EQ(Found, InvalidId) << "ambiguous variable name " << Name;
    Found = Info.Id;
  }
  EXPECT_NE(Found, InvalidId) << "no variable named " << Name;
  return Found;
}

/// Compiles \p Source, failing the test on diagnostics.
inline std::unique_ptr<CompiledProgram>
compileOk(const std::string &Source, const CompileOptions &Options = {}) {
  DiagnosticEngine Diags;
  auto Prog = Compiler::compile(Source, Options, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  return Prog;
}

/// One compiled-and-executed program.
struct Ran {
  std::unique_ptr<CompiledProgram> Prog;
  RunResult Result;
  ExecutionLog Log;
  std::vector<int64_t> PrintedValues;
};

/// Compiles and runs \p Source; by default expects successful completion.
inline Ran runProgram(const std::string &Source, uint64_t Seed = 1,
                      MachineOptions MOpts = {},
                      const CompileOptions &COpts = {},
                      bool ExpectCompleted = true) {
  Ran Out;
  Out.Prog = compileOk(Source, COpts);
  if (!Out.Prog)
    return Out;
  MOpts.Seed = Seed;
  Machine M(*Out.Prog, MOpts);
  Out.Result = M.run();
  if (ExpectCompleted) {
    EXPECT_EQ(int(Out.Result.Outcome), int(RunResult::Status::Completed))
        << Out.Result.Error.str();
  }
  Out.Log = M.takeLog();
  for (const OutputRecord &O : Out.Log.Output)
    Out.PrintedValues.push_back(O.Value);
  return Out;
}

/// Field-for-field equality of two parallel dynamic graphs, including
/// the finalize()-derived vector clocks: a graph built by skim, adopted
/// from a sidecar or extended cut by cut must be indistinguishable from
/// one built over the run's log.
inline void expectGraphEqual(const ParallelDynamicGraph &A,
                             const ParallelDynamicGraph &B,
                             const std::string &Label) {
  ASSERT_EQ(A.numProcs(), B.numProcs()) << Label;
  auto Vec = [](auto Range) {
    return std::vector<uint32_t>(Range.begin(), Range.end());
  };
  for (uint32_t Pid = 0; Pid != A.numProcs(); ++Pid) {
    const std::vector<SyncNode> &NA = A.nodes(Pid);
    const std::vector<SyncNode> &NB = B.nodes(Pid);
    ASSERT_EQ(NA.size(), NB.size()) << Label << " pid " << Pid;
    for (uint32_t I = 0; I != NA.size(); ++I) {
      EXPECT_EQ(int(NA[I].Kind), int(NB[I].Kind)) << Label;
      EXPECT_EQ(NA[I].Object, NB[I].Object) << Label;
      EXPECT_EQ(NA[I].Seq, NB[I].Seq) << Label;
      EXPECT_EQ(NA[I].PartnerSeq, NB[I].PartnerSeq) << Label;
      EXPECT_EQ(NA[I].Stmt, NB[I].Stmt) << Label;
      EXPECT_EQ(NA[I].RecordIdx, NB[I].RecordIdx) << Label;
      EXPECT_EQ(Vec(A.clock({Pid, I})), Vec(B.clock({Pid, I})))
          << Label << " clock pid " << Pid << " node " << I;
    }
    ASSERT_EQ(A.edges(Pid).size(), B.edges(Pid).size())
        << Label << " pid " << Pid;
    for (size_t I = 0; I != A.edges(Pid).size(); ++I) {
      InternalEdge EA = A.edges(Pid)[I], EB = B.edges(Pid)[I];
      EXPECT_EQ(EA.Pid, EB.Pid) << Label;
      EXPECT_EQ(EA.EndNode, EB.EndNode) << Label;
      EXPECT_EQ(EA.Reads.toVector(), EB.Reads.toVector()) << Label;
      EXPECT_EQ(EA.Writes.toVector(), EB.Writes.toVector()) << Label;
    }
  }
}

/// A fresh directory under ::testing::TempDir(), removed with everything
/// in it when the object goes out of scope. ctest runs every case as its
/// own process, concurrently; a test that writes files names them inside
/// one of these so no two cases ever share a path.
class ScopedTempDir {
public:
  ScopedTempDir() {
    std::string Pattern = ::testing::TempDir() + "/ppd-XXXXXX";
    if (::mkdtemp(Pattern.data()))
      Dir = Pattern;
    EXPECT_FALSE(Dir.empty()) << "cannot create a directory like " << Pattern;
  }
  ~ScopedTempDir() {
    std::error_code Ignored;
    if (!Dir.empty())
      std::filesystem::remove_all(Dir, Ignored);
  }
  ScopedTempDir(const ScopedTempDir &) = delete;
  ScopedTempDir &operator=(const ScopedTempDir &) = delete;

  const std::string &path() const { return Dir; }
  /// The path of \p Name inside the directory.
  std::string file(const std::string &Name) const { return Dir + "/" + Name; }

private:
  std::string Dir;
};

#ifdef PPD_EXAMPLES_DIR
/// The shipped example programs: each covers a distinct engine aspect
/// (races, semaphores+channels, a runtime failure, a deadlock, the paper's
/// Fig 4.1).
inline const char *const Corpus[] = {
    "bank_race.ppl", "bounded_buffer.ppl", "crash.ppl",
    "deadlock.ppl",  "fig41.ppl",
};

inline std::string readCorpusFile(const std::string &Name) {
  std::ifstream In(std::string(PPD_EXAMPLES_DIR) + "/" + Name);
  EXPECT_TRUE(In.good()) << "cannot open corpus file " << Name;
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}
#endif

} // namespace ppd::test

#endif // PPD_TESTS_TESTUTIL_H
