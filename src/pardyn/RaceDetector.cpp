//===- pardyn/RaceDetector.cpp --------------------------------------------===//
//
// Part of PPD. See RaceDetector.h.
//
//===----------------------------------------------------------------------===//

#include "pardyn/RaceDetector.h"

#include "lang/AstPrinter.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <unordered_set>

using namespace ppd;

const char *ppd::raceAlgorithmName(RaceAlgorithm Algorithm) {
  switch (Algorithm) {
  case RaceAlgorithm::NaiveAllPairs:
    return "naive";
  case RaceAlgorithm::VarIndexed:
    return "indexed";
  case RaceAlgorithm::Interval:
    return "interval";
  }
  return "unknown";
}

bool ppd::parseRaceAlgorithm(const std::string &Name, RaceAlgorithm &Out) {
  if (Name == "naive")
    Out = RaceAlgorithm::NaiveAllPairs;
  else if (Name == "indexed")
    Out = RaceAlgorithm::VarIndexed;
  else if (Name == "interval")
    Out = RaceAlgorithm::Interval;
  else
    return false;
  return true;
}

RaceDetector::RaceDetector(const ParallelDynamicGraph &Graph,
                           const SymbolTable &Symbols)
    : Graph(Graph), Symbols(Symbols) {
  ScratchWW.reserveFor(Symbols.NumSharedVars);
  ScratchRW.reserveFor(Symbols.NumSharedVars);
  ScratchWR.reserveFor(Symbols.NumSharedVars);
}

Race RaceDetector::makeRace(EdgeRef A, EdgeRef B, uint32_t SharedIdx,
                            RaceKind Kind) const {
  // Canonical order so both algorithms produce identical race lists.
  if (B.Pid < A.Pid || (B.Pid == A.Pid && B.EndNode < A.EndNode))
    std::swap(A, B);
  Race R;
  R.SharedIdx = SharedIdx;
  R.Var = Symbols.SharedVars[SharedIdx];
  R.First = A;
  R.Second = B;
  R.Kind = Kind;
  return R;
}

void RaceDetector::classifyPair(EdgeRef A, EdgeRef B,
                                std::vector<Race> &Out) const {
  const InternalEdge &EA = Graph.edge(A);
  const InternalEdge &EB = Graph.edge(B);

  // Fused pretest: most simultaneous pairs don't conflict at all; one
  // early-exit pass over (W_A ∪ R_A) ∩ ... words rejects them before the
  // three classifying intersections below.
  if (!EA.Writes.intersectsAny(EB.Writes, EB.Reads) &&
      !EB.Writes.intersects(EA.Reads))
    return;

  // Def 6.3: write/write and read/write conflicts per shared variable.
  // The scratch members are sized to the shared universe once, so these
  // assignments reuse capacity instead of allocating three sets per pair.
  BitVarSet &WW = ScratchWW;
  WW.assignIntersection(EA.Writes, EB.Writes);
  WW.forEach([&](unsigned S) {
    Out.push_back(makeRace(A, B, S, RaceKind::WriteWrite));
  });

  BitVarSet &RW = ScratchRW;
  RW.assignIntersection(EA.Reads, EB.Writes);
  RW.forEach([&](unsigned S) {
    if (!WW.contains(S))
      Out.push_back(makeRace(A, B, S, RaceKind::ReadWrite));
  });

  BitVarSet &WR = ScratchWR;
  WR.assignIntersection(EA.Writes, EB.Reads);
  WR.forEach([&](unsigned S) {
    if (!WW.contains(S) && !RW.contains(S))
      Out.push_back(makeRace(A, B, S, RaceKind::ReadWrite));
  });
}

void RaceDetector::canonicalize(RaceDetectionResult &Result) {
  // Canonical result order, independent of discovery order — this is what
  // makes the three algorithms' race lists byte-comparable.
  std::sort(Result.Races.begin(), Result.Races.end(),
            [](const Race &A, const Race &B) {
              auto KeyOf = [](const Race &R) {
                return std::make_tuple(R.SharedIdx, R.First.Pid,
                                       R.First.EndNode, R.Second.Pid,
                                       R.Second.EndNode, uint8_t(R.Kind));
              };
              return KeyOf(A) < KeyOf(B);
            });
  Result.Races.erase(std::unique(Result.Races.begin(), Result.Races.end()),
                     Result.Races.end());
}

RaceDetectionResult RaceDetector::detect(RaceAlgorithm Algorithm) const {
  if (Algorithm == RaceAlgorithm::Interval)
    return detectInterval();

  RaceDetectionResult Result;
  std::vector<EdgeRef> All = Graph.allEdges();

  if (Algorithm == RaceAlgorithm::NaiveAllPairs) {
    for (size_t I = 0; I != All.size(); ++I) {
      for (size_t J = I + 1; J != All.size(); ++J) {
        if (All[I].Pid == All[J].Pid)
          continue;
        ++Result.PairsExamined;
        if (!Graph.simultaneous(All[I], All[J]))
          continue;
        classifyPair(All[I], All[J], Result.Races);
      }
    }
  } else {
    // VarIndexed: bucket edges by the shared variables they access; only
    // pairs sharing a variable with a potential conflict are ordered.
    std::vector<std::vector<EdgeRef>> ReadersOf(Symbols.NumSharedVars);
    std::vector<std::vector<EdgeRef>> WritersOf(Symbols.NumSharedVars);
    for (const EdgeRef &E : All) {
      const InternalEdge &Edge = Graph.edge(E);
      Edge.Reads.forEach([&](unsigned S) { ReadersOf[S].push_back(E); });
      Edge.Writes.forEach([&](unsigned S) { WritersOf[S].push_back(E); });
    }

    // A pair may conflict on several variables; examine it once. Edges
    // pack into 32 bits (pid in the high byte), pairs into 64 — a hashed
    // set keeps the dedup off the critical path.
    std::unordered_set<uint64_t> Seen;
    Seen.reserve(All.size() * 4);
    auto Pack = [](EdgeRef E) {
      return (uint64_t(E.Pid) << 24) | E.EndNode;
    };
    auto Key = [&](EdgeRef A, EdgeRef B) {
      uint64_t KA = Pack(A), KB = Pack(B);
      return KA < KB ? (KA << 32) | KB : (KB << 32) | KA;
    };

    for (uint32_t S = 0; S != Symbols.NumSharedVars; ++S) {
      auto Examine = [&](EdgeRef A, EdgeRef B) {
        if (A.Pid == B.Pid)
          return;
        if (!Seen.insert(Key(A, B)).second)
          return;
        ++Result.PairsExamined;
        if (!Graph.simultaneous(A, B))
          return;
        classifyPair(A, B, Result.Races);
      };
      for (size_t I = 0; I != WritersOf[S].size(); ++I)
        for (size_t J = I + 1; J != WritersOf[S].size(); ++J)
          Examine(WritersOf[S][I], WritersOf[S][J]);
      for (const EdgeRef &W : WritersOf[S])
        for (const EdgeRef &R : ReadersOf[S])
          Examine(W, R);
    }
  }

  canonicalize(Result);
  return Result;
}

//===----------------------------------------------------------------------===//
// Interval: a clock-window merge over per-variable writer/reader lists.
//===----------------------------------------------------------------------===//

RaceDetectionResult RaceDetector::detectInterval() const {
  RaceDetectionResult Result;
  auto Start = std::chrono::steady_clock::now();
  const uint32_t P = Graph.numProcs();
  const uint32_t NumShared = Symbols.NumSharedVars;

  // Reader-only index, a CSR keyed SharedIdx * P + pid like the graph's
  // writer index: the ascending end nodes of the edges that read a
  // variable without writing it. An edge doing both classifies as
  // write/write there, so keeping it off this list gives every conflict
  // exactly one kind — the one classifyPair picks.
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
