//===- stream/Ingest.cpp --------------------------------------------------===//
//
// Part of PPD. See Ingest.h.
//
//===----------------------------------------------------------------------===//

#include "stream/Ingest.h"

#include "core/DebugSession.h"
#include "log/BufferPool.h"
#include "log/LogFormatV2.h"

#include <cstdio>
#include <sstream>

using namespace ppd;
using namespace ppd::stream;

namespace {

Response makeAck(uint64_t StreamId, uint32_t Credits) {
  Response Resp;
  Resp.Type = RespType::Ack;
  Resp.StreamId = StreamId;
  Resp.Credits = Credits;
  return Resp;
}

Response makeError(ErrCode Code, std::string Msg) {
  Response Resp;
  Resp.Type = RespType::Error;
  Resp.Code = Code;
  Resp.Text = std::move(Msg);
  return Resp;
}

Response makeBusy() {
  Response Resp;
  Resp.Type = RespType::Busy;
  return Resp;
}

Response makeResult(std::string Text) {
  Response Resp;
  Resp.Type = RespType::Result;
  Resp.Text = std::move(Text);
  return Resp;
}

} // namespace

/// One live (or finished) ingest session. All log/index/graph state is
/// guarded by M; the registry map itself by the registry's Mutex.
struct IngestRegistry::IngestStream {
  IngestStream(unsigned NumShared)
      : Index(ExecutionLog()), Graph(NumShared, 0) {}

  uint64_t Id = 0;
  uint32_t ProgramIndex = 0;
  const CompiledProgram *Prog = nullptr;

  mutable std::mutex M;
  ExecutionLog Accum;          ///< the frontier: every applied cut.
  LogIndex Index;              ///< extended per cut via appendRecords.
  ParallelDynamicGraph Graph;  ///< extended per cut via appendProcess.
  /// Every sync Seq applied so far is < NextSeqFloor; new cuts must stay
  /// at or above it. Starts at 0 — the first sync record of a run has
  /// Seq 0, so the floor is inclusive.
  uint64_t NextSeqFloor = 0;
  uint64_t LastCutSeq = 0;
  /// SectionData frames of the cut in flight, staged until LastInCut.
  std::vector<Request> Staged;
  SpillWriter Spill;
  std::string FinalLogPath;
  uint64_t PrevStalls = 0; ///< last cumulative stall count seen.
  uint64_t FrontierVersion = 0;
  bool Ended = false;
  bool Dead = false; ///< protocol violation or I/O failure; frames rejected.

  /// Tail-query snapshot, cached per frontier version: a controller and
  /// session over an in-memory store of the frontier and copies of its
  /// index and graph, so later cuts never mutate under a query and the
  /// replay cache stays valid per frontier.
  uint64_t SnapVersion = ~0ull;
  PagedLog SnapLog; ///< the frontier's in-memory store + the server pool.
  std::unique_ptr<PpdController> SnapCtrl;
  std::unique_ptr<DebugSession> SnapSession;
};

IngestRegistry::IngestRegistry(DebugServer &Server, IngestOptions Options)
    : Server(Server), Options(std::move(Options)) {}

IngestRegistry::~IngestRegistry() = default;

std::shared_ptr<IngestRegistry::IngestStream>
IngestRegistry::find(uint64_t StreamId) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Streams.find(StreamId);
  return It == Streams.end() ? nullptr : It->second;
}

size_t IngestRegistry::numStreams() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Streams.size();
}

bool IngestRegistry::frontierLog(uint64_t StreamId, ExecutionLog &Out) const {
  auto S = find(StreamId);
  if (!S)
    return false;
  std::lock_guard<std::mutex> Lock(S->M);
  Out = S->Accum;
  return true;
}

bool IngestRegistry::frontierGraph(uint64_t StreamId,
                                   ParallelDynamicGraph &Out) const {
  auto S = find(StreamId);
  if (!S)
    return false;
  std::lock_guard<std::mutex> Lock(S->M);
  Out = S->Graph;
  return true;
}

uint64_t IngestRegistry::frontierVersion(uint64_t StreamId) const {
  auto S = find(StreamId);
  if (!S)
    return 0;
  std::lock_guard<std::mutex> Lock(S->M);
  return S->FrontierVersion;
}

std::string IngestRegistry::spillPathOf(uint64_t StreamId) const {
  auto S = find(StreamId);
  if (!S)
    return {};
  std::lock_guard<std::mutex> Lock(S->M);
  return S->Spill.path();
}

std::string IngestRegistry::finalLogPathOf(uint64_t StreamId) const {
  auto S = find(StreamId);
  if (!S)
    return {};
  std::lock_guard<std::mutex> Lock(S->M);
  return S->FinalLogPath;
}

Response IngestRegistry::dispatch(const Request &Req) {
  switch (Req.Type) {
  case MsgType::StreamHello:
    return handleHello(Req);
  case MsgType::SectionData:
    return handleSection(Req);
  case MsgType::StreamEnd:
    return handleEnd(Req);
  case MsgType::TailQuery:
    return handleTail(Req);
  case MsgType::Frontier:
    return handleFrontier(Req);
  default:
    return makeError(ErrCode::UnknownType, "not a stream message");
  }
}

//===----------------------------------------------------------------------===//
// StreamHello
//===----------------------------------------------------------------------===//

Response IngestRegistry::handleHello(const Request &Req) {
  uint64_t Hash = 0;
  const CompiledProgram *Prog =
      Server.registry().program(Req.ProgramIndex, &Hash);
  if (!Prog)
    return makeError(ErrCode::NoSuchProgram, "unknown program index");
  if (Hash != Req.ProgramHash) {
    Server.metrics().countError();
    return makeError(ErrCode::StreamProtocol,
                     "program hash mismatch: tracer and server were built "
                     "from different sources");
  }
  if (Options.SpillBudget && SpillBytes.load() >= Options.SpillBudget) {
    Server.metrics().countBusy();
    return makeBusy();
  }

  auto S = std::make_shared<IngestStream>(Prog->Symbols->NumSharedVars);
  S->ProgramIndex = Req.ProgramIndex;
  S->Prog = Prog;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    S->Id = NextStreamId++;
    Streams[S->Id] = S;
  }
  if (!Options.SpillDir.empty()) {
    std::string Path =
        Options.SpillDir + "/stream-" + std::to_string(S->Id) + ".spill";
    if (!S->Spill.open(Path, Req.ProgramHash, Options.SpillSync,
                       Options.Sync)) {
      std::lock_guard<std::mutex> Lock(Mutex);
      Streams.erase(S->Id);
      return makeError(ErrCode::StreamProtocol,
                       "cannot open spill file " + Path);
    }
    SpillBytes += 16; // spill header: magic, version, program hash.
  }
  return makeAck(S->Id, Options.CreditWindow);
}

//===----------------------------------------------------------------------===//
// SectionData
//===----------------------------------------------------------------------===//

Response IngestRegistry::handleSection(const Request &Req) {
  auto S = find(Req.StreamId);
  if (!S)
    return makeError(ErrCode::NoSuchStream, "unknown stream id");
  std::lock_guard<std::mutex> Lock(S->M);
  if (S->Dead || S->Ended)
    return makeError(ErrCode::NoSuchStream, "stream is not live");

  Server.metrics().countSectionIngested(Req.Blob.size());
  uint64_t Stalls = Req.Stalls;
  if (Stalls > S->PrevStalls) {
    Server.metrics().countCreditStalls(Stalls - S->PrevStalls);
    S->PrevStalls = Stalls;
  }

  auto Kill = [&](const char *Msg) {
    S->Dead = true;
    S->Staged.clear();
    S->Spill.close();
    Server.metrics().countError();
    return makeError(ErrCode::StreamProtocol, Msg);
  };

  // Staging invariants: one cut at a time, strictly increasing cut
  // sequence, pid-non-descending within the cut (a pid repeats only when
  // its share was split across frames).
  if (S->Staged.empty()) {
    if (Req.CutSeq <= S->LastCutSeq)
      return Kill("cut sequence did not increase");
  } else {
    if (Req.CutSeq != S->Staged.front().CutSeq)
      return Kill("interleaved cuts");
    if (Req.Pid < S->Staged.back().Pid)
      return Kill("pids out of order within a cut");
  }
  bool Last = (Req.Flags & SectionLastInCut) != 0;
  S->Staged.push_back(Req);
  Server.metrics().noteIngestQueueDepth(S->Staged.size());
  if (!Last)
    return makeAck(S->Id, 1);

  // Budget gate before any mutation: the cut's spill chunk is the
  // accounting unit whether or not a spill file is attached.
  SpillCut Cut;
  Cut.CutSeq = Req.CutSeq;
  for (const Request &F : S->Staged)
    Cut.Sections.push_back({F.Pid, F.FirstRecord, F.Blob});
  size_t ChunkBytes = SpillWriter::chunkSize(Cut);
  if (Options.SpillBudget &&
      SpillBytes.load() + ChunkBytes > Options.SpillBudget) {
    S->Dead = true;
    S->Staged.clear();
    S->Spill.close();
    Server.metrics().countBusy();
    return makeBusy();
  }

  std::string Err = applyCut(*S);
  if (!Err.empty()) {
    S->Dead = true;
    S->Staged.clear();
    S->Spill.close();
    Server.metrics().countError();
    return makeError(ErrCode::StreamProtocol, std::move(Err));
  }

  if (S->Spill.isOpen() && !S->Spill.appendCut(Cut))
    return Kill("spill I/O failure");
  SpillBytes += ChunkBytes;

  S->Staged.clear();
  S->LastCutSeq = Cut.CutSeq;
  ++S->FrontierVersion;
  return makeAck(S->Id, 1);
}

std::string IngestRegistry::applyCut(IngestStream &S) {
  // Pass 1 — validate the whole cut before touching the frontier. Frags
  // holds the decoded blobs, parallel to Staged; ExpectedFirst tracks
  // record-count continuity per pid across split frames; NextPid the
  // dense-growth frontier for new processes.
  size_t NumFrames = S.Staged.size();
  std::vector<ProcessLog> Frags(NumFrames);
  std::vector<std::pair<uint32_t, uint32_t>> ExpectedFirst; // pid, next rec
  uint32_t NextPid = uint32_t(S.Accum.Procs.size());
  uint64_t NumSyncInCut = 0;

  for (size_t I = 0; I != NumFrames; ++I) {
    const Request &F = S.Staged[I];
    ProcessLog &Frag = Frags[I];
    if (!decodeSectionBlob(F.Blob, Frag))
      return "undecodable section blob";
    if (!S.Prog->isRootCall(Frag.RootFunc, Frag.Args.size()))
      return "root function out of range";

    uint32_t *Next = nullptr;
    for (auto &E : ExpectedFirst)
      if (E.first == F.Pid)
        Next = &E.second;
    if (!Next) {
      // First frame for this pid in the cut: either an existing process
      // continuing at its record count, or the next dense pid at 0.
      uint32_t Start;
      if (F.Pid < S.Accum.Procs.size()) {
        const ProcessLog &P = S.Accum.Procs[F.Pid];
        if (P.RootFunc != Frag.RootFunc || P.Args != Frag.Args)
          return "root function or arguments changed mid-stream";
        Start = uint32_t(P.Records.size());
      } else if (F.Pid == NextPid) {
        ++NextPid;
        Start = 0;
      } else {
        return "process ids must arrive densely";
      }
      ExpectedFirst.emplace_back(F.Pid, Start);
      Next = &ExpectedFirst.back().second;
    }
    if (F.FirstRecord != *Next)
      return "section does not continue the process's record stream";
    *Next += uint32_t(Frag.Records.size());

    for (const LogRecord &Rec : Frag.Records) {
      if (Rec.Kind != LogRecordKind::SyncEvent)
        continue;
      // Sync nodes name their statement to the debugger; the paged
      // controller and the .ppdb reader apply the same check.
      if (Rec.Stmt != InvalidId && !S.Prog->isStmt(Rec.Stmt))
        return "sync record names a statement the program does not have";
      ++NumSyncInCut;
    }
  }

  // Sequence numbers: every new sync Seq must be fresh (>= the floor)
  // and inside the window the cut's own sync-record count allows — the
  // bound that keeps a hostile Seq from ballooning the graph's seq table
  // before anything is applied. Distinctness and partner closure (the
  // consistent-cut invariant) are the graph's own checks, run by
  // finalizeTail() below exactly as for a log read from disk.
  uint64_t SeqCeiling = S.NextSeqFloor + NumSyncInCut;
  for (size_t I = 0; I != NumFrames; ++I)
    for (size_t R = 0; R != Frags[I].Records.size(); ++R) {
      const LogRecord &Rec = Frags[I].Records[R];
      if (Rec.Kind == LogRecordKind::SyncEvent &&
          (Rec.Seq < S.NextSeqFloor || Rec.Seq >= SeqCeiling))
        return "sync sequence number outside the cut's window";
    }

  // Pass 2 — apply. Per-pid FromRecord is the pre-cut record count
  // (ExpectedFirst recorded it before advancing); records append first,
  // then index and graph extend once per touched pid, then one
  // finalizeTail closes the new clocks.
  std::vector<std::pair<uint32_t, uint32_t>> From; // pid, pre-cut count
  for (size_t I = 0; I != NumFrames; ++I) {
    const Request &F = S.Staged[I];
    const ProcessLog &Frag = Frags[I];
    if (F.Pid == S.Accum.Procs.size()) {
      S.Accum.Procs.emplace_back();
      ProcessLog &P = S.Accum.Procs.back();
      P.Pid = F.Pid;
      P.RootFunc = Frag.RootFunc;
      P.Args = Frag.Args;
    }
    ProcessLog &P = S.Accum.Procs[F.Pid];
    bool Seen = false;
    for (auto &E : From)
      Seen |= E.first == F.Pid;
    if (!Seen)
      From.emplace_back(F.Pid, F.FirstRecord);
    for (size_t R = 0; R != Frag.Records.size(); ++R)
      P.Records.push_back(Frag.Records[R]);
    P.PrelogCount += Frag.PrelogCount;
  }

  for (auto &E : From) {
    if (!S.Index.appendRecords(E.first, S.Accum.Procs[E.first], E.second))
      return "malformed interval structure";
    S.Graph.appendProcess(E.first, S.Accum.Procs[E.first], E.second);
  }
  if (!S.Graph.finalizeTail())
    return "sync records are inconsistent (duplicate sequence numbers or "
           "a partner outside the cut)";
  S.NextSeqFloor = SeqCeiling;
  return {};
}

//===----------------------------------------------------------------------===//
// StreamEnd
//===----------------------------------------------------------------------===//

Response IngestRegistry::handleEnd(const Request &Req) {
  auto S = find(Req.StreamId);
  if (!S)
    return makeError(ErrCode::NoSuchStream, "unknown stream id");
  std::lock_guard<std::mutex> Lock(S->M);
  if (S->Dead || S->Ended)
    return makeError(ErrCode::NoSuchStream, "stream is not live");

  auto Kill = [&](const char *Msg) {
    S->Dead = true;
    S->Staged.clear();
    S->Spill.close();
    Server.metrics().countError();
    return makeError(ErrCode::StreamProtocol, Msg);
  };
  if (!S->Staged.empty())
    return Kill("StreamEnd inside an open cut");

  ByteReader R(Req.Blob.data(), Req.Blob.size());
  std::vector<OutputRecord> Output;
  if (!v2::readOutput(R, Output) || !R.ok() || !R.atEnd())
    return Kill("undecodable output blob");
  S->Accum.Output = std::move(Output);

  if (Req.Stalls > S->PrevStalls) {
    Server.metrics().countCreditStalls(Req.Stalls - S->PrevStalls);
    S->PrevStalls = Req.Stalls;
  }

  // Finalize: the spill stays as the crash-recovery artifact; the
  // canonical v2 log — exactly what a batch `ppd run --log` would have
  // saved — is written beside it via temp + rename, so a reader never
  // sees a half-written file.
  S->Spill.close();
  if (!Options.SpillDir.empty()) {
    std::string Path = Options.SpillDir + "/stream-" +
                       std::to_string(S->Id) + ".ppdlog";
    std::string Tmp = Path + ".tmp";
    if (!S->Accum.save(Tmp, LogFormat::V2))
      return Kill("cannot write finalized log");
    // Publish-by-rename is only atomic *and durable* if the tmp file's
    // bytes hit the platter before the rename and the directory entry
    // after it; otherwise a power cut can leave the canonical name
    // pointing at a hole.
    if (!syncFileDurable(Tmp, Options.Sync)) {
      std::remove(Tmp.c_str());
      return Kill("cannot sync finalized log");
    }
    if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
      std::remove(Tmp.c_str());
      return Kill("cannot publish finalized log");
    }
    syncParentDir(Path, Options.Sync);
    S->FinalLogPath = Path;
  }
  S->Ended = true;
  ++S->FrontierVersion; // the output is now part of the frontier.
  return makeAck(S->Id, 0);
}

//===----------------------------------------------------------------------===//
// TailQuery / Frontier
//===----------------------------------------------------------------------===//

Response IngestRegistry::handleTail(const Request &Req) {
  auto S = find(Req.StreamId);
  if (!S)
    return makeError(ErrCode::NoSuchStream, "unknown stream id");
  std::lock_guard<std::mutex> Lock(S->M);
  if (S->Dead)
    return makeError(ErrCode::NoSuchStream, "stream is dead");
  if (S->Accum.Procs.empty())
    return makeResult("frontier is empty: no cuts applied yet");

  if (S->SnapVersion != S->FrontierVersion) {
    // New frontier since the last query: snapshot it into a store on the
    // server's section pool. The store keeps the controller's replay
    // cache coherent — it indexes into a log that will never grow under
    // it — and adoption skips re-deriving the index and graph the ingest
    // path already maintains.
    if (S->SnapLog) // no query reads the old frontier's sections again
      S->SnapLog.Pool->dropStore(*S->SnapLog.Store);
    PpdControllerOptions Opts;
    Opts.AdoptedGraph = std::make_shared<ParallelDynamicGraph>(S->Graph);
    S->SnapLog = {
        PageStore::fromLog(S->Accum, "stream " + std::to_string(S->Id)),
        Server.registry().sectionPool()};
    S->SnapCtrl = std::make_unique<PpdController>(
        *S->Prog, S->SnapLog, std::make_shared<LogIndex>(S->Index), Opts);
    S->SnapSession = std::make_unique<DebugSession>(*S->Prog, *S->SnapCtrl);
    S->SnapVersion = S->FrontierVersion;
  }
  std::string Text = S->SnapSession->execute(Req.Command);
  if (std::string Failure = S->SnapCtrl->logFailure(); !Failure.empty())
    return makeError(ErrCode::LogUnreadable, std::move(Failure));
  return makeResult(std::move(Text));
}

Response IngestRegistry::handleFrontier(const Request &Req) {
  auto Describe = [](const IngestStream &S) {
    std::lock_guard<std::mutex> Lock(S.M);
    uint64_t Records = 0;
    for (const ProcessLog &P : S.Accum.Procs)
      Records += P.Records.size();
    std::ostringstream OS;
    OS << "stream " << S.Id << ": program " << S.ProgramIndex << ", cuts "
       << S.LastCutSeq << ", procs " << S.Accum.Procs.size() << ", records "
       << Records << ", frontier " << S.FrontierVersion << ", "
       << (S.Dead ? "dead" : S.Ended ? "ended" : "live");
    return OS.str();
  };

  if (Req.StreamId != 0) {
    auto S = find(Req.StreamId);
    if (!S)
      return makeError(ErrCode::NoSuchStream, "unknown stream id");
    return makeResult(Describe(*S));
  }

  std::vector<std::shared_ptr<IngestStream>> All;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (auto &E : Streams)
      All.push_back(E.second);
  }
  if (All.empty())
    return makeResult("no streams");
  std::string Text;
  for (size_t I = 0; I != All.size(); ++I) {
    if (I)
      Text += '\n';
    Text += Describe(*All[I]);
  }
  return makeResult(std::move(Text));
}
