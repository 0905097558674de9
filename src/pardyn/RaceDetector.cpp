//===- pardyn/RaceDetector.cpp --------------------------------------------===//
//
// Part of PPD. See RaceDetector.h.
//
//===----------------------------------------------------------------------===//

#include "pardyn/RaceDetector.h"

#include "lang/AstPrinter.h"

#include <chrono>
#include <map>
#include <utility>

using namespace ppd;

RaceDetector::RaceDetector(const ParallelDynamicGraph &Graph,
                           const SymbolTable &Symbols)
    : Graph(Graph), Symbols(Symbols) {}

RaceDetectionResult RaceDetector::detect() const {
  RaceDetectionResult Result;
  auto Start = std::chrono::steady_clock::now();
  const uint32_t P = Graph.numProcs();
  const uint32_t NumShared = Symbols.NumSharedVars;

  // Reader-only index, a CSR keyed SharedIdx * P + pid like the graph's
  // writer index: the ascending end nodes of the edges that read a
  // variable without writing it. An edge doing both classifies as
  // write/write there (Def 6.3: a write/write conflict subsumes a
  // read/write one), so keeping it off this list gives every conflict
  // exactly one kind.
  auto ForEachReadOnly = [&](const InternalEdge &E, auto &&Fn) {
    E.Reads.forEach([&](unsigned S) {
      if (S < NumShared && !E.Writes.contains(S))
        Fn(size_t(S) * P + E.Pid);
    });
  };
  std::vector<uint32_t> ReadersAt(size_t(NumShared) * P + 1, 0);
  for (uint32_t Pid = 0; Pid != P; ++Pid)
    for (const InternalEdge &E : Graph.edges(Pid))
      ForEachReadOnly(E, [&](size_t Key) { ++ReadersAt[Key + 1]; });
  for (size_t K = 1; K < ReadersAt.size(); ++K)
    ReadersAt[K] += ReadersAt[K - 1];
  std::vector<uint32_t> ReaderEnds(ReadersAt.back());
  {
    std::vector<uint32_t> Fill(ReadersAt.begin(), ReadersAt.end() - 1);
    for (uint32_t Pid = 0; Pid != P; ++Pid)
      for (const InternalEdge &E : Graph.edges(Pid))
        ForEachReadOnly(
            E, [&](size_t Key) { ReaderEnds[Fill[Key]++] = E.EndNode; });
  }
  Result.ClosureBuildNs =
      uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - Start)
                   .count());

  // Per variable, every racing pair is enumerated once, from its
  // lower-pid edge First = (Q, e): Q ascending, e ascending (a merge of
  // Q's writer and reader lists), then each later process's partners in
  // ascending end order. That is the canonical order, so the list needs
  // no sort. For each later process the partners simultaneous with First
  // are one window of its writer list (and, when First writes, of its
  // reader list); the windows only move forward as e ascends.
  using Window = ParallelDynamicGraph::Window;
  struct Lists {
    std::span<const uint32_t> Writers, Readers;
    Window InWriters, InReaders;
  };
  std::vector<Lists> Of(P);
  std::vector<uint32_t> Active; // processes touching the variable.
  for (uint32_t S = 0; S != NumShared; ++S) {
    Active.clear();
    bool AnyWriter = false;
    for (uint32_t Pid = 0; Pid != P; ++Pid) {
      Lists &L = Of[Pid];
      L.Writers = Graph.writerEnds(S, Pid);
      const size_t Key = size_t(S) * P + Pid;
      L.Readers = {ReaderEnds.data() + ReadersAt[Key],
                   ReaderEnds.data() + ReadersAt[Key + 1]};
      AnyWriter |= !L.Writers.empty();
      if (!L.Writers.empty() || !L.Readers.empty())
        Active.push_back(Pid);
    }
    if (!AnyWriter)
      continue;

    auto Emit = [&](EdgeRef First, EdgeRef Second, RaceKind Kind) {
      Result.Races.push_back(
          Race{S, Symbols.SharedVars[S], First, Second, Kind});
    };
    for (size_t QI = 0; QI != Active.size(); ++QI) {
      const uint32_t Q = Active[QI];
      for (size_t PI = QI + 1; PI != Active.size(); ++PI) {
        Lists &L = Of[Active[PI]];
        L.InWriters = {L.Writers.data(), L.Writers.data()};
        L.InReaders = {L.Readers.data(), L.Readers.data()};
      }
      std::span<const uint32_t> Ws = Of[Q].Writers, Rs = Of[Q].Readers;
      size_t I = 0, J = 0;
      while (I != Ws.size() || J != Rs.size()) {
        const bool Writes =
            J == Rs.size() || (I != Ws.size() && Ws[I] < Rs[J]);
        const EdgeRef First{Q, Writes ? Ws[I++] : Rs[J++]};
        for (size_t PI = QI + 1; PI != Active.size(); ++PI) {
          const uint32_t Pid = Active[PI];
          Lists &L = Of[Pid];
          if (!L.Writers.empty()) {
            ++Result.PairsExamined;
            L.InWriters = Graph.simultaneousWindow(
                First, Pid, L.InWriters, L.Writers.data() + L.Writers.size());
          }
          Window W = L.InWriters, R{nullptr, nullptr};
          if (Writes && !L.Readers.empty()) {
            ++Result.PairsExamined;
            L.InReaders = R = Graph.simultaneousWindow(
                First, Pid, L.InReaders, L.Readers.data() + L.Readers.size());
          }
          // An edge is a writer or a reader-only of S, never both, so the
          // two windows interleave without ties.
          while (W.Lo != W.Hi || R.Lo != R.Hi) {
            if (R.Lo == R.Hi || (W.Lo != W.Hi && *W.Lo < *R.Lo))
              Emit(First, {Pid, *W.Lo++},
                   Writes ? RaceKind::WriteWrite : RaceKind::ReadWrite);
            else
              Emit(First, {Pid, *R.Lo++}, RaceKind::ReadWrite);
          }
        }
      }
    }
  }
  return Result;
}

std::string RaceDetector::describe(const Race &R, const Program &P) const {
  std::string Out = R.Kind == RaceKind::WriteWrite ? "write/write"
                                                   : "read/write";
  Out += " race on shared variable '";
  Out += Symbols.var(R.Var).Name;
  Out += "' between process " + std::to_string(R.First.Pid);
  const SyncNode &N1 = Graph.node({R.First.Pid, R.First.EndNode});
  if (N1.Stmt != InvalidId)
    Out += " (edge ending at " + AstPrinter::summarize(*P.stmt(N1.Stmt)) +
           ")";
  Out += " and process " + std::to_string(R.Second.Pid);
  const SyncNode &N2 = Graph.node({R.Second.Pid, R.Second.EndNode});
  if (N2.Stmt != InvalidId)
    Out += " (edge ending at " + AstPrinter::summarize(*P.stmt(N2.Stmt)) +
           ")";
  return Out;
}

std::string RaceDetector::summarize(const RaceDetectionResult &Result,
                                    const Program &P) const {
  if (Result.raceFree())
    return "race-free execution instance (Def 6.4)\n";

  // Group by (variable, kind, the statements ending the two edges): the
  // many per-iteration edges of a loop collapse into one line.
  std::map<std::tuple<VarId, uint8_t, StmtId, StmtId>, unsigned> Groups;
  for (const Race &R : Result.Races) {
    StmtId S1 = Graph.node({R.First.Pid, R.First.EndNode}).Stmt;
    StmtId S2 = Graph.node({R.Second.Pid, R.Second.EndNode}).Stmt;
    if (S2 < S1)
      std::swap(S1, S2);
    ++Groups[{R.Var, uint8_t(R.Kind), S1, S2}];
  }

  std::string Out;
  for (const auto &[Key, Count] : Groups) {
    const auto &[Var, Kind, S1, S2] = Key;
    Out += RaceKind(Kind) == RaceKind::WriteWrite ? "write/write"
                                                  : "read/write";
    Out += " race on shared variable '" + Symbols.var(Var).Name + "'";
    if (S1 != InvalidId)
      Out += " near " + AstPrinter::summarize(*P.stmt(S1));
    if (S2 != InvalidId && S2 != S1)
      Out += " / " + AstPrinter::summarize(*P.stmt(S2));
    Out += "  (x" + std::to_string(Count) + ")\n";
  }
  return Out;
}
