//===- log/ProgramDb.cpp - Persisted program database sidecar -------------===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//

#include "log/ProgramDb.h"

#include "compiler/CompiledProgram.h"
#include "lang/Ast.h"
#include "log/LogIO.h"
#include "log/PageStore.h"
#include "pardyn/ParallelDynamicGraph.h"

#include <cstdio>

using namespace ppd;

namespace {

constexpr uint32_t DbMagic = 0x42445050u; // "PPDB" on disk (little-endian).
constexpr uint32_t DbVersion = 4; // v4: the hash covers global initializers.

/// The program fingerprint, one 64-bit word per step: xor the word in,
/// multiply by an odd constant, fold the high half down. Both halves of a
/// step are bijections, so two streams that differ in one word always end
/// in different states. Fields are packed into words explicitly, never
/// read as a struct's bytes (its padding is indeterminate).
struct WordHash {
  uint64_t H = 0xcbf29ce484222325ull;
  void u64(uint64_t V) {
    H = (H ^ V) * 0x9e3779b97f4a7c15ull;
    H ^= H >> 32;
  }
  void str(const std::string &S) {
    u64(S.size());
    for (size_t I = 0; I < S.size(); I += 8) {
      uint64_t W = 0;
      for (size_t J = I; J != S.size() && J != I + 8; ++J)
        W |= uint64_t(uint8_t(S[J])) << (8 * (J - I));
      u64(W);
    }
  }
  template <typename T> void vec(const std::vector<T> &V) {
    u64(V.size());
    for (const T &E : V)
      u64(uint64_t(E));
  }
  /// Three words per instruction: opcode | statement, A | B, immediate.
  void chunk(const Chunk &C) {
    u64(C.size());
    for (uint32_t Pc = 0; Pc != C.size(); ++Pc) {
      const Instr &I = C.at(Pc);
      u64(uint64_t(I.Opcode) | uint64_t(C.stmtAt(Pc)) << 32);
      u64(uint64_t(uint32_t(I.A)) | uint64_t(uint32_t(I.B)) << 32);
      u64(uint64_t(I.Imm));
    }
  }
};

/// InvalidId (~0u) → 0, everything else shifts up one: the common "no
/// record / no parent" sentinel costs one varint byte.
uint64_t idCode(uint32_t Id) { return uint64_t(uint32_t(Id + 1)); }
uint32_t idDecode(uint64_t Code) { return uint32_t(Code) - 1; }

void writeIdVec(LogWriter &W, const std::vector<uint32_t> &V) {
  W.varint(V.size());
  for (uint32_t Id : V)
    W.varint(Id);
}

bool readIdVec(ByteReader &R, std::vector<uint32_t> &V) {
  uint64_t N = R.varint();
  if (!R.plausibleCount(N))
    return false;
  V.resize(N);
  for (uint32_t &Id : V)
    Id = uint32_t(R.varint());
  return R.ok();
}

/// The persisted index's row check, applied by the writer and the reader
/// alike: interval \p I's records lie inside the section's \p NumRecords,
/// its parent comes earlier in the table, and its e-block is one of the
/// program's.
bool intervalValid(const LogInterval &Iv, uint64_t I, uint64_t NumRecords,
                   const CompiledProgram &Prog) {
  return Iv.PrelogRecord < NumRecords &&
         (Iv.PostlogRecord == InvalidId || Iv.PostlogRecord < NumRecords) &&
         (Iv.Parent == InvalidId || Iv.Parent < I) &&
         Iv.EBlock < Prog.EBlocks.size();
}

} // namespace

std::string ppd::programDbPathFor(const std::string &LogPath) {
  return LogPath + ".ppdb";
}

const char *ppd::programDbStatusName(ProgramDbStatus Status) {
  switch (Status) {
  case ProgramDbStatus::Ok:
    return "ok";
  case ProgramDbStatus::Missing:
    return "missing";
  case ProgramDbStatus::Stale:
    return "stale";
  case ProgramDbStatus::Corrupt:
    return "corrupt";
  }
  return "?";
}

uint64_t ppd::programHash(const CompiledProgram &Prog) {
  WordHash F;
  F.u64(Prog.Funcs.size());
  for (const CompiledFunction &Fn : Prog.Funcs) {
    F.str(Fn.Name);
    F.u64(Fn.Index);
    F.u64(Fn.NumParams);
    F.u64(Fn.FrameSize);
    F.u64(Fn.Logged);
    F.chunk(Fn.Object);
    F.chunk(Fn.Emu);
  }
  F.u64(Prog.EBlocks.size());
  for (const EBlockInfo &EB : Prog.EBlocks) {
    F.u64(EB.Id);
    F.u64(EB.Func);
    F.u64(uint64_t(EB.Kind));
    F.u64(EB.ObjectEntryPc);
    F.u64(EB.EmuEntryPc);
    F.vec(EB.Used);
    F.vec(EB.Defined);
  }
  F.u64(Prog.Units.size());
  for (const UnitInfo &U : Prog.Units) {
    F.u64(U.Id);
    F.u64(U.Func);
    F.vec(U.SharedReads);
  }
  // Global initial values live in the symbol table, not the bytecode, and
  // the machine starts every run from them.
  for (VarId V : Prog.Symbols->Globals)
    F.u64(uint64_t(Prog.Symbols->var(V).Init));
  F.vec(Prog.SemInit);
  F.vec(Prog.ChanCapacity);
  F.u64(Prog.MainIndex);
  F.u64(Prog.Options.Instrument);
  return F.H;
}

bool ppd::writeProgramDb(const std::string &Path, const CompiledProgram &Prog,
                         const PageStore &Store, const LogIndex &Index,
                         const ParallelDynamicGraph *Graph) {
  LogWriter W;
  W.u32(DbMagic);
  W.u32(DbVersion);
  W.u64(programHash(Prog));

  // Def/use sites — the paper's program database proper.
  uint32_t NumVars = Prog.Symbols->numVars();
  W.varint(NumVars);
  for (VarId Var = 0; Var != NumVars; ++Var) {
    const VarSites &S = Prog.Database->sites(Var);
    writeIdVec(W, S.Defs);
    writeIdVec(W, S.Uses);
  }

  // E-block USED/DEFINED sets and static-graph unit edges.
  W.varint(Prog.EBlocks.size());
  for (const EBlockInfo &EB : Prog.EBlocks) {
    writeIdVec(W, EB.Used);
    writeIdVec(W, EB.Defined);
  }
  W.varint(Prog.Units.size());
  for (const UnitInfo &U : Prog.Units) {
    W.varint(U.Func);
    writeIdVec(W, U.SharedReads);
  }

  // Log shape: keys the sidecar to one exact log file.
  W.varint(Store.fileBytes());
  W.varint(Store.numProcs());
  for (uint32_t Pid = 0; Pid != Store.numProcs(); ++Pid) {
    const PageStore::SectionMeta &M = Store.section(Pid);
    W.varint(M.Pid);
    W.varint(M.RootFunc);
    W.varint(M.Args.size());
    for (int64_t A : M.Args)
      W.svarint(A);
    W.varint(M.NumRecords);
    W.varint(M.PrelogCount);
    W.varint(M.EncodedBytes);
    W.varint(M.Offset);
  }

  // The persisted index: the expensive-to-derive artifact a warm open
  // adopts instead of skimming every section.
  for (uint32_t Pid = 0; Pid != Store.numProcs(); ++Pid) {
    const std::vector<LogInterval> &Ivs = Index.intervals(Pid);
    W.varint(Ivs.size());
    for (const LogInterval &Iv : Ivs) {
      if (!intervalValid(Iv, Iv.Index, Store.section(Pid).NumRecords, Prog)) {
        Store.markCorrupt("section " + std::to_string(Pid) +
                          ": an interval does not fit the program");
        return false;
      }
      W.varint(Iv.EBlock);
      W.varint(Iv.PrelogRecord);
      W.varint(idCode(Iv.PostlogRecord));
      W.varint(idCode(Iv.Parent));
      W.varint(Iv.Depth);
      W.u8(Iv.ExitsFunction ? 1 : 0);
    }
    writeIdVec(W, Index.openIntervals(Pid));
  }

  // The persisted parallel dynamic graph (§6): per-process sync-node
  // rows and internal-edge READ/WRITE sets. Clocks and the seq lookup
  // are recomputed on adoption, so only what construction read from the
  // records is stored. Building it here (when the caller has none) takes
  // the rows from a skim of each section — no record is decoded — so a
  // warm open never scans record streams at all. Either way the rows
  // pass the check the reader applies, so what is written reads back.
  const uint32_t NumStmts = Prog.Ast->numStmts();
  std::unique_ptr<ParallelDynamicGraph> Built;
  if (!Graph) {
    Built = ParallelDynamicGraph::fromStore(
        Store, Prog.Symbols->NumSharedVars, NumStmts);
    if (!Built)
      return false;
    Graph = Built.get();
  } else if (!Graph->rowsValid(NumStmts, Store)) {
    Store.markCorrupt("sync records are inconsistent");
    return false;
  }
  // A failed store's index may be missing sections (LogIndex leaves a
  // failed skim's tables empty); never persist it.
  if (Store.failed())
    return false;
  for (uint32_t Pid = 0; Pid != Store.numProcs(); ++Pid) {
    const std::vector<SyncNode> &Ns = Graph->nodes(Pid);
    W.varint(Ns.size());
    for (const SyncNode &N : Ns) {
      W.u8(uint8_t(N.Kind));
      W.varint(N.Object);
      W.varint(N.Seq);
      W.varint(N.PartnerSeq == NoPartner ? 0 : N.PartnerSeq + 1);
      W.varint(idCode(N.Stmt));
      W.varint(N.RecordIdx);
    }
    for (const InternalEdge &E : Graph->edges(Pid))
      for (VarSetView Set : {E.Reads, E.Writes}) {
        W.varint(Set.size());
        Set.forEach([&](unsigned S) { W.varint(S); });
      }
  }

  // Atomic publish: a reader never sees a half-written sidecar.
  return W.writeFile(Path);
}

ProgramDbStatus
ppd::readProgramDb(const std::string &Path, const CompiledProgram &Prog,
                   const PageStore &Store,
                   std::shared_ptr<const LogIndex> &IndexOut,
                   std::shared_ptr<const ParallelDynamicGraph> *GraphOut) {
  std::vector<uint8_t> Bytes;
  {
    FileHandle Probe(Path, "rb");
    if (!Probe)
      return ProgramDbStatus::Missing;
  }
  if (!readFileBytes(Path, Bytes))
    return ProgramDbStatus::Corrupt;

  ByteReader R(Bytes.data(), Bytes.size());
  if (R.u32() != DbMagic || !R.ok())
    return ProgramDbStatus::Corrupt;
  if (R.u32() != DbVersion)
    return ProgramDbStatus::Stale; // older tool wrote it; rebuild.
  if (R.u64() != programHash(Prog) || !R.ok())
    return ProgramDbStatus::Stale;

  // Every analysis table is compared field-for-field against the fresh
  // compile — the hash gates the fast path, the comparison makes a
  // collision harmless. Structural failures (bad counts, truncation) are
  // Corrupt; clean mismatches are Stale.
  uint64_t NumVars = R.varint();
  if (!R.plausibleCount(NumVars))
    return ProgramDbStatus::Corrupt;
  if (NumVars != Prog.Symbols->numVars())
    return ProgramDbStatus::Stale;
  std::vector<uint32_t> Ids;
  for (VarId Var = 0; Var != NumVars; ++Var) {
    const VarSites &S = Prog.Database->sites(Var);
    if (!readIdVec(R, Ids))
      return ProgramDbStatus::Corrupt;
    if (Ids != S.Defs)
      return ProgramDbStatus::Stale;
    if (!readIdVec(R, Ids))
      return ProgramDbStatus::Corrupt;
    if (Ids != S.Uses)
      return ProgramDbStatus::Stale;
  }

  uint64_t NumEBlocks = R.varint();
  if (!R.plausibleCount(NumEBlocks))
    return ProgramDbStatus::Corrupt;
  if (NumEBlocks != Prog.EBlocks.size())
    return ProgramDbStatus::Stale;
  for (const EBlockInfo &EB : Prog.EBlocks) {
    if (!readIdVec(R, Ids))
      return ProgramDbStatus::Corrupt;
    if (Ids != EB.Used)
      return ProgramDbStatus::Stale;
    if (!readIdVec(R, Ids))
      return ProgramDbStatus::Corrupt;
    if (Ids != EB.Defined)
      return ProgramDbStatus::Stale;
  }
  uint64_t NumUnits = R.varint();
  if (!R.plausibleCount(NumUnits))
    return ProgramDbStatus::Corrupt;
  if (NumUnits != Prog.Units.size())
    return ProgramDbStatus::Stale;
  for (const UnitInfo &U : Prog.Units) {
    uint64_t Func = R.varint();
    if (!R.ok())
      return ProgramDbStatus::Corrupt;
    if (Func != U.Func)
      return ProgramDbStatus::Stale;
    if (!readIdVec(R, Ids))
      return ProgramDbStatus::Corrupt;
    if (Ids != U.SharedReads)
      return ProgramDbStatus::Stale;
  }

  // Log shape: any difference means the sidecar describes another log
  // (or another version of this one).
  if (R.varint() != Store.fileBytes() || !R.ok())
    return R.ok() ? ProgramDbStatus::Stale : ProgramDbStatus::Corrupt;
  uint64_t NumProcs = R.varint();
  if (!R.plausibleCount(NumProcs))
    return ProgramDbStatus::Corrupt;
  if (NumProcs != Store.numProcs())
    return ProgramDbStatus::Stale;
  for (uint32_t Pid = 0; Pid != Store.numProcs(); ++Pid) {
    const PageStore::SectionMeta &M = Store.section(Pid);
    if (R.varint() != M.Pid || R.varint() != M.RootFunc)
      return R.ok() ? ProgramDbStatus::Stale : ProgramDbStatus::Corrupt;
    uint64_t NumArgs = R.varint();
    if (!R.plausibleCount(NumArgs))
      return ProgramDbStatus::Corrupt;
    if (NumArgs != M.Args.size())
      return ProgramDbStatus::Stale;
    for (int64_t A : M.Args)
      if (R.svarint() != A)
        return R.ok() ? ProgramDbStatus::Stale : ProgramDbStatus::Corrupt;
    if (R.varint() != M.NumRecords || R.varint() != M.PrelogCount ||
        R.varint() != M.EncodedBytes || R.varint() != M.Offset)
      return R.ok() ? ProgramDbStatus::Stale : ProgramDbStatus::Corrupt;
  }

  // The persisted index. Sanity-check structural invariants so a corrupt
  // tail can never hand replay out-of-range record indices.
  std::vector<std::vector<LogInterval>> Intervals(Store.numProcs());
  std::vector<std::vector<uint32_t>> Open(Store.numProcs());
  for (uint32_t Pid = 0; Pid != Store.numProcs(); ++Pid) {
    uint64_t NumRecords = Store.section(Pid).NumRecords;
    uint64_t NumIvs = R.varint();
    if (!R.plausibleCount(NumIvs))
      return ProgramDbStatus::Corrupt;
    if (NumIvs != Store.section(Pid).PrelogCount)
      return ProgramDbStatus::Stale;
    Intervals[Pid].resize(NumIvs);
    for (uint64_t I = 0; I != NumIvs; ++I) {
      LogInterval &Iv = Intervals[Pid][I];
      Iv.Index = uint32_t(I);
      Iv.EBlock = uint32_t(R.varint());
      Iv.PrelogRecord = uint32_t(R.varint());
      Iv.PostlogRecord = idDecode(R.varint());
      Iv.Parent = idDecode(R.varint());
      Iv.Depth = uint32_t(R.varint());
      Iv.ExitsFunction = R.u8() != 0;
      if (!R.ok() || !intervalValid(Iv, I, NumRecords, Prog))
        return ProgramDbStatus::Corrupt;
    }
    if (!readIdVec(R, Open[Pid]))
      return ProgramDbStatus::Corrupt;
    for (uint32_t Idx : Open[Pid])
      if (Idx >= Intervals[Pid].size())
        return ProgramDbStatus::Corrupt;
  }
  // The persisted parallel dynamic graph, read into sync rows and adopted.
  // The rows pass the same check the writer applied (rowsValid: kind
  // range, statements inside the program, record indices inside the
  // section and ascending, shared ids inside the shared segment);
  // finalize() checks the sequence numbers (distinct, dense, partners
  // earlier) in the passes it makes anyway.
  uint32_t NumShared = Prog.Symbols->NumSharedVars;
  auto PG = std::make_shared<ParallelDynamicGraph>(NumShared,
                                                   Store.numProcs());
  for (uint32_t Pid = 0; Pid != Store.numProcs(); ++Pid) {
    uint64_t NumNodes = R.varint();
    if (!R.plausibleCount(NumNodes) ||
        NumNodes > Store.section(Pid).NumRecords)
      return ProgramDbStatus::Corrupt;
    SyncRows Rows;
    Rows.Nodes.resize(NumNodes);
    for (SyncNode &N : Rows.Nodes) {
      N.Kind = SyncKind(R.u8());
      N.Object = uint32_t(R.varint());
      N.Seq = R.varint();
      uint64_t Partner = R.varint();
      N.PartnerSeq = Partner == 0 ? NoPartner : Partner - 1;
      N.Stmt = idDecode(R.varint());
      N.RecordIdx = uint32_t(R.varint());
    }
    // The first node starts no edge: its READ/WRITE runs are empty.
    Rows.IdsAt.assign(NumNodes ? 3 : 1, 0);
    for (uint64_t I = 1; I < NumNodes; ++I)
      for (int Set = 0; Set != 2; ++Set) {
        uint64_t Num = R.varint();
        if (!R.plausibleCount(Num))
          return ProgramDbStatus::Corrupt;
        for (uint64_t K = 0; K != Num; ++K)
          Rows.Ids.push_back(uint32_t(R.varint()));
        Rows.endIds();
      }
    if (!R.ok())
      return ProgramDbStatus::Corrupt;
    PG->adoptProcess(Pid, std::move(Rows));
  }
  if (!R.ok() || !R.atEnd())
    return ProgramDbStatus::Corrupt;
  if (!PG->rowsValid(Prog.Ast->numStmts(), Store) || !PG->finalize())
    return ProgramDbStatus::Corrupt;
  if (GraphOut)
    *GraphOut = std::move(PG);
  IndexOut = std::make_shared<const LogIndex>(std::move(Intervals),
                                              std::move(Open));
  return ProgramDbStatus::Ok;
}
