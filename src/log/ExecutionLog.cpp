//===- log/ExecutionLog.cpp -----------------------------------------------===//
//
// Part of PPD. See ExecutionLog.h, LogRecord.h, and LogIO.h.
//
// The on-disk format ("PPDL" magic, version 2): LEB128 varints, zigzag
// for signed values, per-process Seq delta coding, PartnerSeq coded as a
// distance from Seq, and one length-prefixed section per process so a
// reader can skip to, and decode, any one section alone. Each record serializes exactly
// the fields its kind carries (the same field sets byteSize() accounts).
//
// Loads decode into a scratch log and commit to the caller's output only
// after full validation: a truncated or corrupt file can never leave
// partial state behind.
//
//===----------------------------------------------------------------------===//

#include "log/ExecutionLog.h"

#include "bytecode/Instr.h"
#include "log/LogFormatV2.h"
#include "log/LogIO.h"


using namespace ppd;

const char *ppd::syncKindName(SyncKind Kind) {
  switch (Kind) {
  case SyncKind::ProcStart:
    return "ProcStart";
  case SyncKind::ProcEnd:
    return "ProcEnd";
  case SyncKind::SemAcquire:
    return "P";
  case SyncKind::SemSignal:
    return "V";
  case SyncKind::ChanSend:
    return "send";
  case SyncKind::ChanSendUnblock:
    return "send-unblock";
  case SyncKind::ChanRecv:
    return "recv";
  case SyncKind::SpawnChild:
    return "spawn";
  case SyncKind::Stopped:
    return "stopped";
  }
  return "?";
}

size_t LogRecord::byteSize() const {
  // Approximate a compact binary encoding: 1-byte kind tag plus the fields
  // each kind actually needs.
  size_t Size = 1;
  switch (Kind) {
  case LogRecordKind::Prelog:
  case LogRecordKind::UnitLog:
    Size += 4; // id
    break;
  case LogRecordKind::Postlog:
    Size += 4 + 1; // id + flags
    if (Flags & PostlogExitsFunction)
      Size += 8; // return value
    break;
  case LogRecordKind::Input:
    Size += 8;
    break;
  case LogRecordKind::SyncEvent:
    Size += 1 + 4 + 8 + 8 + 8 + 4; // sync, id, seq, partner, value, stmt
    Size += 4 * (ReadSet.size() + WriteSet.size());
    break;
  case LogRecordKind::Stop:
    break; // tag only
  }
  for (const VarValue &V : Vars)
    Size += 4 + 8 * V.Values.size();
  return Size;
}

size_t ProcessLog::byteSize() const {
  size_t Size = 4 + 4 + 8 * Args.size();
  for (const LogRecord &R : Records)
    Size += R.byteSize();
  return Size;
}

size_t ExecutionLog::byteSize() const {
  size_t Size = 0;
  for (const ProcessLog &P : Procs)
    Size += P.byteSize();
  return Size;
}

//===----------------------------------------------------------------------===//
// The v2 record/section codec (shared interface: LogFormatV2.h)
//===----------------------------------------------------------------------===//

void ppd::v2::writeRecord(LogWriter &W, const LogRecord &R,
                          uint64_t &PrevSeq) {
  // One capacity check covers the whole record: 10 bytes per worst-case
  // varint over every field the record can carry, so the per-field
  // emitters below run branch-free on capacity.
  size_t Bound = 2 + 6 * 10 + 10 * (R.ReadSet.size() + R.WriteSet.size());
  for (const VarValue &V : R.Vars)
    Bound += 2 * 10 + 10 * V.Values.size();
  W.ensureBytes(Bound);

  W.u8Unchecked(uint8_t(R.Kind));
  auto Vars = [&] {
    W.varintUnchecked(R.Vars.size());
    for (const VarValue &V : R.Vars) {
      W.varintUnchecked(V.Var);
      W.varintUnchecked(V.Values.size());
      for (int64_t Value : V.Values)
        W.svarintUnchecked(Value);
    }
  };
  switch (R.Kind) {
  case LogRecordKind::Prelog:
  case LogRecordKind::UnitLog:
    W.varintUnchecked(R.Id);
    Vars();
    break;
  case LogRecordKind::Postlog:
    W.varintUnchecked(R.Id);
    W.varintUnchecked(R.Flags);
    if (R.Flags & PostlogExitsFunction)
      W.svarintUnchecked(R.Value);
    Vars();
    break;
  case LogRecordKind::Input:
    W.svarintUnchecked(R.Value);
    break;
  case LogRecordKind::SyncEvent: {
    W.u8Unchecked(uint8_t(R.Sync));
    W.varintUnchecked(R.Id);
    W.varintUnchecked(stmtCode(R.Stmt));
    W.svarintUnchecked(R.Value);
    // Seqs of one process are a monotone subsequence of the global
    // counter; the gap since the process's previous sync event is small.
    W.svarintUnchecked(int64_t(R.Seq - PrevSeq));
    PrevSeq = R.Seq;
    // PartnerSeq, when present, is a recent event: code its distance from
    // Seq. 0 flags "no partner"; otherwise bit 0 is set above the zigzag
    // distance.
    if (R.PartnerSeq == NoPartner)
      W.varintUnchecked(0);
    else
      // Unsigned subtraction: wraps mod 2^64, so any partner value —
      // even an implausible one from a hand-built log — round-trips.
      W.varintUnchecked((zigzagEncode(int64_t(R.Seq - R.PartnerSeq)) << 1) |
                        1);
    W.varintUnchecked(R.ReadSet.size());
    for (uint32_t S : R.ReadSet)
      W.varintUnchecked(S);
    W.varintUnchecked(R.WriteSet.size());
    for (uint32_t S : R.WriteSet)
      W.varintUnchecked(S);
    break;
  }
  case LogRecordKind::Stop:
    W.varintUnchecked(stmtCode(R.Stmt));
    break;
  }
}

bool ppd::v2::readRecord(ByteReader &R, LogRecord &Out, uint64_t &PrevSeq) {
  Out.Kind = LogRecordKind(R.u8());
  auto Vars = [&] {
    uint64_t NumVars = R.varint();
    if (!R.plausibleCount(NumVars))
      return false;
    Out.Vars.resize(NumVars);
    for (VarValue &V : Out.Vars) {
      V.Var = VarId(R.varint());
      uint64_t NumValues = R.varint();
      if (!R.plausibleCount(NumValues))
        return false;
      V.Values.resize(NumValues);
      for (int64_t &Value : V.Values)
        Value = R.svarint();
    }
    return true;
  };
  switch (Out.Kind) {
  case LogRecordKind::Prelog:
  case LogRecordKind::UnitLog:
    Out.Id = uint32_t(R.varint());
    if (!Vars())
      return false;
    break;
  case LogRecordKind::Postlog:
    Out.Id = uint32_t(R.varint());
    Out.Flags = uint32_t(R.varint());
    if (Out.Flags & PostlogExitsFunction)
      Out.Value = R.svarint();
    if (!Vars())
      return false;
    break;
  case LogRecordKind::Input:
    Out.Value = R.svarint();
    break;
  case LogRecordKind::SyncEvent: {
    Out.Sync = SyncKind(R.u8());
    Out.Id = uint32_t(R.varint());
    Out.Stmt = stmtDecode(R.varint());
    Out.Value = R.svarint();
    Out.Seq = PrevSeq + uint64_t(R.svarint());
    PrevSeq = Out.Seq;
    uint64_t Partner = R.varint();
    Out.PartnerSeq = Partner == 0
                         ? NoPartner
                         : Out.Seq - uint64_t(zigzagDecode(Partner >> 1));
    uint64_t NumRead = R.varint();
    if (!R.plausibleCount(NumRead))
      return false;
    Out.ReadSet.resize(NumRead);
    for (uint32_t &S : Out.ReadSet)
      S = uint32_t(R.varint());
    uint64_t NumWrite = R.varint();
    if (!R.plausibleCount(NumWrite))
      return false;
    Out.WriteSet.resize(NumWrite);
    for (uint32_t &S : Out.WriteSet)
      S = uint32_t(R.varint());
    break;
  }
  case LogRecordKind::Stop:
    Out.Stmt = stmtDecode(R.varint());
    break;
  default:
    R.fail();
    return false;
  }
  return R.ok();
}

bool ppd::v2::readSectionHeader(ByteReader &R, SectionHeader &Out,
                                uint64_t Extent) {
  Out.Pid = uint32_t(R.varint());
  Out.RootFunc = uint32_t(R.varint());
  uint64_t NumArgs = R.varint();
  if (!R.plausibleCount(NumArgs))
    return false;
  Out.Args.resize(NumArgs);
  for (int64_t &A : Out.Args)
    A = R.svarint();
  // Every record costs at least one byte of the section.
  auto Plausible = [&](uint64_t N) {
    return N <= Extent && N <= (uint64_t(1) << 28);
  };
  Out.NumRecords = R.varint();
  Out.PrelogCount = R.varint();
  return R.ok() && Plausible(Out.NumRecords) && Plausible(Out.PrelogCount);
}

bool ppd::v2::decodeSection(ByteReader R, ProcessLog &P) {
  SectionHeader Header;
  if (!readSectionHeader(R, Header, R.remaining()))
    return false;
  P.Pid = Header.Pid;
  P.RootFunc = Header.RootFunc;
  P.Args = std::move(Header.Args);
  P.Records.reserve(Header.NumRecords);
  uint64_t PrevSeq = 0;
  for (uint64_t I = 0; I != Header.NumRecords; ++I) {
    LogRecord &Rec = P.Records.emplace_back();
    if (!readRecord(R, Rec, PrevSeq))
      return false;
    if (Rec.Kind == LogRecordKind::Prelog)
      ++P.PrelogCount;
  }
  // The header's prelog count is the LogIndex reservation; reject files
  // whose sections disagree with their own headers.
  return R.ok() && R.atEnd() && P.PrelogCount == Header.PrelogCount;
}

bool ppd::v2::skimSection(ByteReader R, std::vector<LogInterval> &Intervals,
                          std::vector<uint32_t> &Open, SyncRows *Sync) {
  SectionHeader Header;
  if (!readSectionHeader(R, Header, R.remaining()))
    return false;
  Intervals.reserve(Header.PrelogCount);
  std::vector<uint32_t> Stack; // interval indices

  // Skips one captured-variables list (the Vars of Prelog/Postlog/UnitLog
  // records) without materializing values.
  auto SkipVars = [&] {
    uint64_t NumVars = R.varint();
    if (!R.plausibleCount(NumVars))
      return false;
    for (uint64_t V = 0; V != NumVars; ++V) {
      R.varint(); // variable id
      uint64_t NumValues = R.varint();
      if (!R.plausibleCount(NumValues))
        return false;
      for (uint64_t I = 0; I != NumValues; ++I)
        R.svarint();
    }
    return R.ok();
  };

  uint64_t Prelogs = 0;
  uint64_t PrevSeq = 0;
  for (uint64_t Idx = 0; Idx != Header.NumRecords; ++Idx) {
    switch (LogRecordKind(R.u8())) {
    case LogRecordKind::Prelog: {
      uint32_t EBlock = uint32_t(R.varint());
      if (!SkipVars())
        return false;
      LogInterval Interval;
      Interval.Index = uint32_t(Intervals.size());
      Interval.EBlock = EBlock;
      Interval.PrelogRecord = uint32_t(Idx);
      Interval.PostlogRecord = InvalidId;
      Interval.Parent = Stack.empty() ? InvalidId : Stack.back();
      Interval.Depth = uint32_t(Stack.size());
      Stack.push_back(Interval.Index);
      Intervals.push_back(Interval);
      ++Prelogs;
      break;
    }
    case LogRecordKind::Postlog: {
      uint32_t EBlock = uint32_t(R.varint());
      uint32_t Flags = uint32_t(R.varint());
      if (Flags & PostlogExitsFunction)
        R.svarint(); // return value
      if (!SkipVars())
        return false;
      // Unlike the in-memory index build (which asserts), a skim reads
      // untrusted file bytes: structural violations fail the load.
      if (Stack.empty() || Intervals[Stack.back()].EBlock != EBlock)
        return false;
      LogInterval &Interval = Intervals[Stack.back()];
      Interval.PostlogRecord = uint32_t(Idx);
      Interval.ExitsFunction = (Flags & PostlogExitsFunction) != 0;
      Stack.pop_back();
      break;
    }
    case LogRecordKind::UnitLog:
      R.varint(); // unit id
      if (!SkipVars())
        return false;
      break;
    case LogRecordKind::Input:
      R.svarint();
      break;
    case LogRecordKind::SyncEvent: {
      SyncNode N;
      N.Kind = SyncKind(R.u8());
      N.Object = uint32_t(R.varint());
      N.Stmt = stmtDecode(R.varint());
      R.svarint(); // value
      N.Seq = PrevSeq + uint64_t(R.svarint());
      PrevSeq = N.Seq;
      uint64_t Partner = R.varint();
      N.PartnerSeq = Partner == 0
                         ? NoPartner
                         : N.Seq - uint64_t(zigzagDecode(Partner >> 1));
      N.RecordIdx = uint32_t(Idx);
      // The READ ids, then the WRITE ids.
      for (int Set = 0; Set != 2; ++Set) {
        uint64_t Num = R.varint();
        if (!R.plausibleCount(Num))
          return false;
        for (uint64_t I = 0; I != Num; ++I) {
          uint32_t S = uint32_t(R.varint());
          if (Sync)
            Sync->Ids.push_back(S);
        }
        if (Sync)
          Sync->endIds();
      }
      if (Sync)
        Sync->Nodes.push_back(N);
      break;
    }
    case LogRecordKind::Stop:
      R.varint(); // stmt
      break;
    default:
      return false;
    }
    if (!R.ok())
      return false;
  }
  Open = std::move(Stack);
  return R.ok() && R.atEnd() && Prelogs == Header.PrelogCount;
}

void ppd::v2::writeOutput(LogWriter &W, const std::vector<OutputRecord> &Out) {
  W.varint(Out.size());
  for (const OutputRecord &O : Out) {
    W.varint(O.Pid);
    W.svarint(O.Value);
    W.varint(stmtCode(O.Stmt));
  }
}

bool ppd::v2::readOutput(ByteReader &R, std::vector<OutputRecord> &Out) {
  uint64_t NumOutput = R.varint();
  if (!R.plausibleCount(NumOutput))
    return false;
  Out.resize(NumOutput);
  for (OutputRecord &O : Out) {
    O.Pid = uint32_t(R.varint());
    O.Value = R.svarint();
    O.Stmt = stmtDecode(R.varint());
  }
  return R.ok();
}

void ppd::v2::writeLog(LogWriter &W, const ExecutionLog &Log) {
  W.u32(v2::FileMagic);
  W.u32(uint32_t(LogFormat::V2));
  W.varint(Log.Procs.size());
  // Each section is encoded on its own so its byte length can precede it.
  std::vector<LogWriter> Sections(Log.Procs.size());
  for (size_t I = 0; I != Sections.size(); ++I) {
    const ProcessLog &P = Log.Procs[I];
    LogWriter &S = Sections[I];
    // Typical records encode to ~10 bytes; reserving up front turns ~a
    // dozen doubling-and-copy growths per section into at most one.
    S.reserve(64 + 16 * P.Records.size());
    S.varint(P.Pid);
    S.varint(P.RootFunc);
    S.varint(P.Args.size());
    for (int64_t A : P.Args)
      S.svarint(A);
    S.varint(P.Records.size());
    // The prelog count the header must carry (the LogIndex reservation) is
    // recounted rather than trusting ProcessLog::PrelogCount, so
    // hand-built logs with a stale counter still save correctly.
    uint32_t Prelogs = 0;
    for (const LogRecord &R : P.Records)
      if (R.Kind == LogRecordKind::Prelog)
        ++Prelogs;
    S.varint(Prelogs);
    uint64_t PrevSeq = 0;
    for (const LogRecord &R : P.Records)
      v2::writeRecord(S, R, PrevSeq);
  }
  for (const LogWriter &S : Sections) {
    // The byte length lets the loader skip to the next section without
    // decoding this one — the handle a paged store faults sections in by.
    W.varint(S.size());
    W.bytes(S);
  }
  v2::writeOutput(W, Log.Output);
}

namespace {

bool loadV2(ByteReader &R, ExecutionLog &Out) {
  uint64_t NumProcs = R.varint();
  if (!R.plausibleCount(NumProcs))
    return false;
  Out.Procs.resize(NumProcs);

  // Pass 1: slice the file into per-process sections (cheap — one varint
  // plus a bounds-checked skip per process).
  std::vector<ByteReader> Sections;
  Sections.reserve(NumProcs);
  for (uint64_t I = 0; I != NumProcs; ++I) {
    uint64_t Len = R.varint();
    if (!R.ok() || Len > R.remaining())
      return false;
    Sections.push_back(R.sub(size_t(Len)));
  }
  if (!R.ok())
    return false;

  // Pass 2: decode the sections.
  for (size_t I = 0; I != Sections.size(); ++I)
    if (!v2::decodeSection(Sections[I], Out.Procs[I]))
      return false;

  if (!v2::readOutput(R, Out.Output))
    return false;
  return R.ok() && R.atEnd();
}

} // namespace

bool ExecutionLog::save(const std::string &Path, LogFormat) const {
  LogWriter W;
  v2::writeLog(W, *this);
  return W.writeFile(Path);
}

bool ExecutionLog::load(const std::string &Path, ExecutionLog &Out) {
  // Slurp the file and decode in memory.
  std::vector<uint8_t> Bytes;
  if (!readFileBytes(Path, Bytes))
    return false;
  ByteReader R(Bytes.data(), Bytes.size());
  if (R.u32() != v2::FileMagic || R.u32() != uint32_t(LogFormat::V2) ||
      !R.ok())
    return false;

  // Decode into scratch; commit only a fully validated log.
  ExecutionLog Scratch;
  if (!loadV2(R, Scratch))
    return false;
  Out = std::move(Scratch);
  return true;
}

//===----------------------------------------------------------------------===//
// LogIndex
//===----------------------------------------------------------------------===//

namespace {

/// Builds one process's interval tree from its record stream.
void buildProcIndex(const ProcessLog &P, std::vector<LogInterval> &Intervals,
                    std::vector<uint32_t> &Open) {
  Intervals.reserve(P.PrelogCount);
  std::vector<uint32_t> Stack; // interval indices
  const RecordSeq &Records = P.Records;
  for (uint32_t Idx = 0; Idx != Records.size(); ++Idx) {
    const LogRecord &R = Records[Idx];
    if (R.Kind == LogRecordKind::Prelog) {
      LogInterval Interval;
      Interval.Index = uint32_t(Intervals.size());
      Interval.EBlock = R.Id;
      Interval.PrelogRecord = Idx;
      Interval.PostlogRecord = InvalidId;
      Interval.Parent = Stack.empty() ? InvalidId : Stack.back();
      Interval.Depth = uint32_t(Stack.size());
      Stack.push_back(Interval.Index);
      Intervals.push_back(Interval);
    } else if (R.Kind == LogRecordKind::Postlog) {
      assert(!Stack.empty() && "postlog without open interval");
      LogInterval &Interval = Intervals[Stack.back()];
      assert(Interval.EBlock == R.Id && "postlog/prelog e-block mismatch");
      Interval.PostlogRecord = Idx;
      Interval.ExitsFunction = (R.Flags & PostlogExitsFunction) != 0;
      Stack.pop_back();
    }
  }
  Open = std::move(Stack);
}

} // namespace

LogIndex::LogIndex(const ExecutionLog &Log) {
  size_t NumProcs = Log.Procs.size();
  Intervals.resize(NumProcs);
  OpenIntervals.resize(NumProcs);
  for (size_t Pid = 0; Pid != NumProcs; ++Pid)
    buildProcIndex(Log.Procs[Pid], Intervals[Pid], OpenIntervals[Pid]);
}

const LogInterval *LogIndex::intervalAtRecord(uint32_t Pid,
                                              uint32_t RecordIdx) const {
  for (const LogInterval &Interval : Intervals[Pid])
    if (Interval.PrelogRecord == RecordIdx)
      return &Interval;
  return nullptr;
}

const LogInterval *LogIndex::enclosing(uint32_t Pid,
                                       uint32_t RecordIdx) const {
  const LogInterval *Best = nullptr;
  for (const LogInterval &Interval : Intervals[Pid]) {
    if (Interval.PrelogRecord > RecordIdx)
      break;
    uint32_t End = Interval.PostlogRecord == InvalidId
                       ? ~0u
                       : Interval.PostlogRecord;
    if (RecordIdx <= End)
      if (!Best || Interval.Depth >= Best->Depth)
        Best = &Interval;
  }
  return Best;
}

const LogInterval *LogIndex::lastOpenInterval(uint32_t Pid) const {
  if (OpenIntervals[Pid].empty())
    return nullptr;
  return &Intervals[Pid][OpenIntervals[Pid].back()];
}

bool LogIndex::appendRecords(uint32_t Pid, const ProcessLog &PL,
                             uint32_t FromRecord) {
  if (Pid > Intervals.size() || FromRecord > PL.Records.size())
    return false;
  if (Pid == Intervals.size()) {
    Intervals.emplace_back();
    OpenIntervals.emplace_back();
  }
  // Same algorithm as buildProcIndex, resumed: the saved open-interval
  // stack is exactly the builder's stack at the point the previous
  // records ended, so continuing from it yields the tables a full
  // rebuild would.
  std::vector<LogInterval> &Ivs = Intervals[Pid];
  std::vector<uint32_t> Stack = std::move(OpenIntervals[Pid]);
  const RecordSeq &Records = PL.Records;
  for (uint32_t Idx = FromRecord; Idx != Records.size(); ++Idx) {
    const LogRecord &R = Records[Idx];
    if (R.Kind == LogRecordKind::Prelog) {
      LogInterval Interval;
      Interval.Index = uint32_t(Ivs.size());
      Interval.EBlock = R.Id;
      Interval.PrelogRecord = Idx;
      Interval.PostlogRecord = InvalidId;
      Interval.Parent = Stack.empty() ? InvalidId : Stack.back();
      Interval.Depth = uint32_t(Stack.size());
      Stack.push_back(Interval.Index);
      Ivs.push_back(Interval);
    } else if (R.Kind == LogRecordKind::Postlog) {
      if (Stack.empty())
        return false;
      LogInterval &Interval = Ivs[Stack.back()];
      if (Interval.EBlock != R.Id)
        return false;
      Interval.PostlogRecord = Idx;
      Interval.ExitsFunction = (R.Flags & PostlogExitsFunction) != 0;
      Stack.pop_back();
    }
  }
  OpenIntervals[Pid] = std::move(Stack);
  return true;
}
