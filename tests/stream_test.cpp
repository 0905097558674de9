//===- tests/stream_test.cpp - Live attach: streamed ingest ---------------===//
//
// Part of PPD test suite: the live-attach subsystem (DESIGN.md §13).
//
//   * the streamed-vs-batch differential over 16 generated programs,
//     checking EVERY frontier (not a sample): tail answers at each
//     applied cut equal a batch controller over the same prefix, and the
//     final frontier serializes to v2 bytes identical to the batch log;
//   * ingest validation: hash mismatch, non-dense pids, replayed cuts,
//     undecodable blobs, interleaved cuts — each a typed StreamProtocol
//     error that kills the stream without corrupting the registry;
//   * the credit scheme's Ack values and the ingest counters;
//   * spill durability: a connection dropped mid-stream leaves a spill
//     openable up to the last sealed cut, a file truncated mid-chunk
//     recovers the complete-cut prefix with Truncated set;
//   * `--spill-budget`: typed Busy once the budget cannot admit a cut,
//     for the session and for new hellos after exhaustion;
//   * concurrent ingest + tail/frontier queries on live streams (the
//     TSan target: the per-stream mutex makes cut application atomic
//     under queries).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/DebugSession.h"
#include "log/ProgramDb.h"
#include "server/DebugServer.h"
#include "server/Protocol.h"
#include "stream/Ingest.h"
#include "stream/Spill.h"
#include "stream/StreamClient.h"
#include "testing/ProgramGen.h"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <thread>

using namespace ppd;
using namespace ppd::test;

namespace {

//===----------------------------------------------------------------------===//
// Harness
//===----------------------------------------------------------------------===//

std::vector<uint8_t> fileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

/// A DebugServer with an IngestRegistry installed as its stream
/// dispatcher, plus one registered program (a second compile of the same
/// source is the batch oracle's copy).
struct IngestFixture {
  DebugServer Server;
  stream::IngestRegistry Ingest;
  std::unique_ptr<CompiledProgram> Prog; ///< batch-side compile.
  uint32_t ProgramIndex = 0;
  uint64_t Hash = 0;

  explicit IngestFixture(const std::string &Source,
                         stream::IngestOptions Options = {})
      : Ingest(Server, std::move(Options)) {
    Server.setStreamDispatcher(
        [this](const Request &Req) { return Ingest.dispatch(Req); });
    Prog = compileOk(Source);
    auto SrvProg = compileOk(Source);
    Hash = programHash(*SrvProg);
    ProgramIndex = Server.addProgram(std::move(SrvProg), ExecutionLog());
  }

  Response hello() {
    Request Req;
    Req.Type = MsgType::StreamHello;
    Req.ProgramIndex = ProgramIndex;
    Req.ProgramHash = Hash;
    return Ingest.dispatch(Req);
  }

  Response tail(uint64_t Sid, const std::string &Cmd) {
    Request Req;
    Req.Type = MsgType::TailQuery;
    Req.StreamId = Sid;
    Req.Command = Cmd;
    return Ingest.dispatch(Req);
  }

  Response frontier(uint64_t Sid) {
    Request Req;
    Req.Type = MsgType::Frontier;
    Req.StreamId = Sid;
    return Ingest.dispatch(Req);
  }
};

/// Runs \p Prog with a StreamSealer hooked into the scheduler rounds —
/// cuts are only consistent when sealed DURING execution — dispatching
/// every frame into \p F's registry. \p OnCut (optional) fires after each
/// applied cut. Returns the machine's own (batch) log.
struct StreamedRun {
  uint64_t Sid = 0;
  ExecutionLog BatchLog;
  uint64_t Cuts = 0;
  uint64_t Sections = 0;
};

StreamedRun streamRun(IngestFixture &F, uint32_t SectionRecords,
                      MachineOptions MOpts = {},
                      std::function<void(uint64_t)> OnCut = {}) {
  StreamedRun Out;
  Response Hello = F.hello();
  EXPECT_EQ(int(Hello.Type), int(RespType::Ack));
  Out.Sid = Hello.StreamId;

  stream::SealerOptions SOpts;
  SOpts.ProgramIndex = F.ProgramIndex;
  SOpts.ProgramHash = F.Hash;
  SOpts.SectionRecords = SectionRecords;
  stream::StreamSealer Sealer(SOpts);
  Sealer.setStreamId(Out.Sid);

  auto Ship = [&](std::vector<Request> Frames) {
    for (Request &Fr : Frames) {
      ++Out.Sections;
      bool Last = (Fr.Flags & SectionLastInCut) != 0;
      Response R = F.Ingest.dispatch(Fr);
      ASSERT_EQ(int(R.Type), int(RespType::Ack))
          << "cut " << Fr.CutSeq << ": " << R.Text;
      if (Last) {
        ++Out.Cuts;
        if (OnCut)
          OnCut(Out.Sid);
      }
    }
  };

  MOpts.Mode = RunMode::Logging;
  Machine M(*F.Prog, MOpts);
  M.onRound([&](Machine &Mach) { Ship(Sealer.sealRound(Mach.log())); });
  M.run();
  Ship(Sealer.sealRound(M.log(), /*Force=*/true));
  Response End = F.Ingest.dispatch(Sealer.endFrame(M.log()));
  EXPECT_EQ(int(End.Type), int(RespType::Ack)) << End.Text;
  EXPECT_EQ(End.Credits, 0u) << "StreamEnd returns no send credit";
  Out.BatchLog = M.takeLog();
  return Out;
}

const char *PipelineSource = R"(
shared int acc;
chan stage;
func worker(int base) {
  int i = 0;
  while (i < 4) {
    acc = acc + base + i;
    i = i + 1;
  }
  send(stage, base);
}
func main() {
  spawn worker(10);
  spawn worker(20);
  int a = recv(stage);
  int b = recv(stage);
  print(acc);
  print(a + b);
}
)";

//===----------------------------------------------------------------------===//
// The 16-seed streamed-vs-batch differential (the acceptance bar):
// EVERY frontier's tail answers equal a batch load of the same prefix,
// and the final frontier is bit-identical to the batch log as v2.
//===----------------------------------------------------------------------===//

TEST(StreamDiffTest, SixteenSeedsEveryPrefixMatchesBatch) {
  for (uint64_t Seed = 0; Seed != 16; ++Seed) {
    ppd::testing::GenProgram G = ppd::testing::generateProgram(Seed);
    std::string Source = G.render();
    IngestFixture F(Source);
    ASSERT_TRUE(F.Prog) << "seed " << Seed;

    MachineOptions MOpts;
    MOpts.Seed = G.SchedSeed;
    MOpts.Quantum = G.Quantum;
    MOpts.MaxSteps = 2'000'000;
    MOpts.ProcessInputs.resize(8);
    for (size_t S = 0; S != 8; ++S)
      for (int I = 0; I != 16; ++I)
        MOpts.ProcessInputs[S].push_back(int64_t((Seed * 31 + S * 7 + I) % 97));

    // Check EVERY applied cut: the cached tail snapshot (incremental
    // index + graph, adopted) against a from-scratch batch controller
    // over a copy of the same prefix.
    unsigned Checked = 0;
    auto OnCut = [&](uint64_t Sid) {
      ExecutionLog Prefix;
      ASSERT_TRUE(F.Ingest.frontierLog(Sid, Prefix));
      if (Prefix.Procs.empty())
        return;
      ++Checked;
      // The graph extended cut by cut equals a batch build of the prefix.
      ParallelDynamicGraph Streamed(0, 0);
      ASSERT_TRUE(F.Ingest.frontierGraph(Sid, Streamed));
      expectGraphEqual(
          ParallelDynamicGraph(Prefix, F.Prog->Symbols->NumSharedVars),
          Streamed, "seed " + std::to_string(Seed) + " cut graph");
      PpdController Batch(*F.Prog, ExecutionLog(Prefix));
      DebugSession BatchSess(*F.Prog, Batch);
      for (const char *Cmd : {"where 0", "races"}) {
        Response R = F.tail(Sid, Cmd);
        ASSERT_EQ(int(R.Type), int(RespType::Result))
            << "seed " << Seed << " '" << Cmd << "': " << R.Text;
        EXPECT_EQ(R.Text, BatchSess.execute(Cmd))
            << "seed " << Seed << " cut-frontier '" << Cmd << "'";
      }
    };

    // Section threshold randomized down to one record, so cut boundaries
    // land everywhere.
    StreamedRun Run = streamRun(F, 1 + uint32_t(Seed % 7), MOpts, OnCut);
    if (::testing::Test::HasFatalFailure())
      return;
    EXPECT_GT(Run.Cuts, 0u) << "seed " << Seed;
    EXPECT_GT(Checked, 0u) << "seed " << Seed;

    // Final state: field-level equality is subsumed by byte equality of
    // the canonical v2 serializations.
    ExecutionLog Frontier;
    ASSERT_TRUE(F.Ingest.frontierLog(Run.Sid, Frontier));
    ScopedTempDir TmpDir;
    const std::string &Dir = TmpDir.path();
    std::string PathA = Dir + "/stream_diff_" + std::to_string(Seed) + ".a";
    std::string PathB = Dir + "/stream_diff_" + std::to_string(Seed) + ".b";
    ASSERT_TRUE(Frontier.save(PathA, LogFormat::V2));
    ASSERT_TRUE(Run.BatchLog.save(PathB, LogFormat::V2));
    EXPECT_EQ(fileBytes(PathA), fileBytes(PathB))
        << "seed " << Seed << ": streamed frontier is not bit-identical "
        << "to the batch v2 log";

    // And the ended frontier still answers tail queries like a batch
    // session over the batch log (output and races included).
    PpdController Batch(*F.Prog, ExecutionLog(Run.BatchLog));
    DebugSession BatchSess(*F.Prog, Batch);
    for (const char *Cmd : {"where 0", "back", "races", "list"}) {
      Response R = F.tail(Run.Sid, Cmd);
      ASSERT_EQ(int(R.Type), int(RespType::Result)) << Cmd;
      EXPECT_EQ(R.Text, BatchSess.execute(Cmd)) << "seed " << Seed;
    }
  }
}

//===----------------------------------------------------------------------===//
// Credit scheme + counters
//===----------------------------------------------------------------------===//

TEST(StreamIngestTest, AckCreditsFollowTheScheme) {
  stream::IngestOptions Options;
  Options.CreditWindow = 3;
  IngestFixture F(PipelineSource, Options);

  Response Hello = F.hello();
  ASSERT_EQ(int(Hello.Type), int(RespType::Ack));
  EXPECT_EQ(Hello.Credits, 3u) << "hello grants the full window";
  EXPECT_NE(Hello.StreamId, 0u);

  StreamedRun Run = streamRun(F, 4); // per-frame acks checked inside
  EXPECT_GT(Run.Sections, 0u);

  const ServerMetrics &Metrics = F.Server.metrics();
  EXPECT_EQ(Metrics.sectionsIngested(), Run.Sections);
  EXPECT_GT(Metrics.bytesIngested(), 0u);
  EXPECT_GE(Metrics.ingestQueueDepth(), 1u);

  // The `stats` rendering carries the ingest block.
  std::string Text = Metrics.render("");
  EXPECT_NE(Text.find("ingest: sections"), std::string::npos);
  EXPECT_NE(Text.find("credit stalls"), std::string::npos);
}

TEST(StreamIngestTest, StalledTracerCountsReachTheServer) {
  IngestFixture F(PipelineSource);
  Response Hello = F.hello();
  ASSERT_EQ(int(Hello.Type), int(RespType::Ack));

  // A SectionData frame stamps the tracer's cumulative stall count; the
  // server meters the delta.
  Ran R = runProgram(PipelineSource);
  stream::SealerOptions SOpts;
  SOpts.ProgramIndex = F.ProgramIndex;
  SOpts.ProgramHash = F.Hash;
  SOpts.SectionRecords = 1;
  stream::StreamSealer Sealer(SOpts);
  Sealer.setStreamId(Hello.StreamId);
  Sealer.noteStall();
  Sealer.noteStall();
  std::vector<Request> Frames = Sealer.sealRound(R.Log, /*Force=*/true);
  ASSERT_FALSE(Frames.empty());
  EXPECT_EQ(Frames.front().Stalls, 2u);
  for (Request &Fr : Frames)
    ASSERT_EQ(int(F.Ingest.dispatch(Fr).Type), int(RespType::Ack));
  EXPECT_EQ(F.Server.metrics().creditStalls(), 2u);
}

//===----------------------------------------------------------------------===//
// Validation: every malformed stream dies with a typed error
//===----------------------------------------------------------------------===//

TEST(StreamIngestTest, HelloRejectsUnknownProgramAndWrongHash) {
  IngestFixture F(PipelineSource);

  Request Req;
  Req.Type = MsgType::StreamHello;
  Req.ProgramIndex = 42;
  Req.ProgramHash = F.Hash;
  Response R = F.Ingest.dispatch(Req);
  EXPECT_EQ(int(R.Type), int(RespType::Error));
  EXPECT_EQ(int(R.Code), int(ErrCode::NoSuchProgram));

  Req.ProgramIndex = F.ProgramIndex;
  Req.ProgramHash = F.Hash ^ 1;
  R = F.Ingest.dispatch(Req);
  EXPECT_EQ(int(R.Type), int(RespType::Error));
  EXPECT_EQ(int(R.Code), int(ErrCode::StreamProtocol));
  EXPECT_EQ(F.Ingest.numStreams(), 0u) << "rejected hellos leave no stream";
}

TEST(StreamIngestTest, UnknownStreamIdsGetNoSuchStream) {
  IngestFixture F(PipelineSource);
  for (MsgType Type : {MsgType::SectionData, MsgType::StreamEnd,
                       MsgType::TailQuery, MsgType::Frontier}) {
    Request Req;
    Req.Type = Type;
    Req.StreamId = 99;
    Response R = F.Ingest.dispatch(Req);
    EXPECT_EQ(int(R.Type), int(RespType::Error)) << unsigned(Type);
    EXPECT_EQ(int(R.Code), int(ErrCode::NoSuchStream)) << unsigned(Type);
  }
  Response Empty = F.frontier(0);
  EXPECT_EQ(int(Empty.Type), int(RespType::Result));
  EXPECT_EQ(Empty.Text, "no streams");
}

TEST(StreamIngestTest, MalformedCutsKillTheStreamTyped) {
  struct Case {
    const char *Name;
    std::function<void(Request &)> Mangle;
  };
  const Case Cases[] = {
      {"undecodable blob", [](Request &R) { R.Blob = {0xff, 0xff, 0xff}; }},
      {"replayed cut", [](Request &R) { R.CutSeq = 0; }},
      {"non-dense pid", [](Request &R) { R.Pid = 7; }},
      {"record gap", [](Request &R) { R.FirstRecord = 1000; }},
  };
  for (const Case &C : Cases) {
    IngestFixture F(PipelineSource);
    Response Hello = F.hello();
    ASSERT_EQ(int(Hello.Type), int(RespType::Ack));

    Ran R = runProgram(PipelineSource);
    stream::SealerOptions SOpts;
    SOpts.ProgramIndex = F.ProgramIndex;
    SOpts.ProgramHash = F.Hash;
    SOpts.SectionRecords = 1;
    stream::StreamSealer Sealer(SOpts);
    Sealer.setStreamId(Hello.StreamId);
    std::vector<Request> Frames = Sealer.sealRound(R.Log, /*Force=*/true);
    ASSERT_FALSE(Frames.empty());

    // Mangle the first frame and mark it last-in-cut so validation runs.
    Request Bad = Frames.front();
    Bad.Flags |= SectionLastInCut;
    C.Mangle(Bad);
    Response Err = F.Ingest.dispatch(Bad);
    EXPECT_EQ(int(Err.Type), int(RespType::Error)) << C.Name;
    EXPECT_EQ(int(Err.Code), int(ErrCode::StreamProtocol)) << C.Name;

    // The stream is dead: good frames are rejected, tail queries error,
    // frontier reports the state.
    Response After = F.Ingest.dispatch(Frames.front());
    EXPECT_EQ(int(After.Type), int(RespType::Error)) << C.Name;
    Response Tail = F.tail(Hello.StreamId, "where 0");
    EXPECT_EQ(int(Tail.Type), int(RespType::Error)) << C.Name;
    Response Desc = F.frontier(Hello.StreamId);
    ASSERT_EQ(int(Desc.Type), int(RespType::Result)) << C.Name;
    EXPECT_NE(Desc.Text.find("dead"), std::string::npos) << C.Name;
  }
}

// A sync record naming a statement the program does not have fails the
// whole cut with a typed error before anything applies: the frontier
// keeps the previous cut's records and version.
TEST(StreamIngestTest, OutOfRangeSyncStmtRejectsTheCutUnapplied) {
  IngestFixture F(PipelineSource);
  Response Hello = F.hello();
  ASSERT_EQ(int(Hello.Type), int(RespType::Ack));
  stream::SealerOptions SOpts;
  SOpts.ProgramIndex = F.ProgramIndex;
  SOpts.ProgramHash = F.Hash;
  SOpts.SectionRecords = 1;
  stream::StreamSealer Sealer(SOpts);
  Sealer.setStreamId(Hello.StreamId);

  // One good cut as soon as the workers exist, the rest after the run.
  Machine M(*F.Prog, MachineOptions{});
  bool Shipped = false;
  M.onRound([&](Machine &Mach) {
    if (Shipped || Mach.log().Procs.size() < 3)
      return;
    Shipped = true;
    for (const Request &Frame : Sealer.sealRound(Mach.log(), /*Force=*/true))
      EXPECT_EQ(int(F.Ingest.dispatch(Frame).Type), int(RespType::Ack));
  });
  M.run();
  ASSERT_TRUE(Shipped);
  ASSERT_EQ(F.Ingest.frontierVersion(Hello.StreamId), 1u);
  ExecutionLog Before;
  ASSERT_TRUE(F.Ingest.frontierLog(Hello.StreamId, Before));

  std::vector<Request> Rest = Sealer.sealRound(M.log(), /*Force=*/true);
  bool Mangled = false;
  for (Request &Frame : Rest) {
    ProcessLog Section;
    ASSERT_TRUE(stream::decodeSectionBlob(Frame.Blob, Section));
    for (LogRecord &Rec : Section.Records)
      if (!Mangled && Rec.Kind == LogRecordKind::SyncEvent &&
          Rec.Stmt != InvalidId) {
        Rec.Stmt = StmtId(F.Prog->Ast->numStmts() + 7);
        Mangled = true;
        Frame.Blob.clear();
        stream::encodeSectionBlob(Section, 0,
                                  uint32_t(Section.Records.size()),
                                  Frame.Blob);
      }
  }
  ASSERT_TRUE(Mangled) << "the second cut carries sync records";
  Response Last;
  for (const Request &Frame : Rest)
    Last = F.Ingest.dispatch(Frame);
  EXPECT_EQ(int(Last.Type), int(RespType::Error));
  EXPECT_EQ(int(Last.Code), int(ErrCode::StreamProtocol));
  EXPECT_NE(Last.Text.find("statement"), std::string::npos) << Last.Text;

  EXPECT_EQ(F.Ingest.frontierVersion(Hello.StreamId), 1u);
  ExecutionLog After;
  ASSERT_TRUE(F.Ingest.frontierLog(Hello.StreamId, After));
  ASSERT_EQ(After.Procs.size(), Before.Procs.size());
  for (size_t P = 0; P != Before.Procs.size(); ++P)
    EXPECT_EQ(After.Procs[P].Records.size(), Before.Procs[P].Records.size())
        << "pid " << P;
}

// A prelog naming a variable the program does not have passes ingest
// validation (it is only read when an interval replays), so the tail
// snapshot is what finds it: the query must get a typed LogUnreadable
// error naming the stream, not an answer built from a failed replay.
TEST(StreamIngestTest, TailOverOutOfRangePrelogVarIsLogUnreadable) {
  IngestFixture F(PipelineSource);
  Response Hello = F.hello();
  ASSERT_EQ(int(Hello.Type), int(RespType::Ack));

  Ran R = runProgram(PipelineSource);
  stream::SealerOptions SOpts;
  SOpts.ProgramIndex = F.ProgramIndex;
  SOpts.ProgramHash = F.Hash;
  stream::StreamSealer Sealer(SOpts);
  Sealer.setStreamId(Hello.StreamId);
  std::vector<Request> Frames = Sealer.sealRound(R.Log, /*Force=*/true);
  ASSERT_FALSE(Frames.empty());
  VarId Bogus = VarId(F.Prog->Symbols->numVars() + 7);
  for (Request &Frame : Frames) {
    ProcessLog Section;
    ASSERT_TRUE(stream::decodeSectionBlob(Frame.Blob, Section));
    for (LogRecord &Rec : Section.Records)
      if (Rec.Kind == LogRecordKind::Prelog) {
        VarValue V;
        V.Var = Bogus;
        V.Values.push_back(0);
        Rec.Vars.push_back(V);
      }
    Frame.Blob.clear();
    stream::encodeSectionBlob(Section, 0, uint32_t(Section.Records.size()),
                              Frame.Blob);
  }
  for (const Request &Frame : Frames)
    ASSERT_EQ(int(F.Ingest.dispatch(Frame).Type), int(RespType::Ack));

  Response Tail = F.tail(Hello.StreamId, "where 0");
  ASSERT_EQ(int(Tail.Type), int(RespType::Error)) << Tail.Text;
  EXPECT_EQ(int(Tail.Code), int(ErrCode::LogUnreadable));
  EXPECT_NE(Tail.Text.find("stream " + std::to_string(Hello.StreamId)),
            std::string::npos)
      << Tail.Text;
}

TEST(StreamIngestTest, InterleavedCutsAreRejected) {
  IngestFixture F(PipelineSource);
  Response Hello = F.hello();
  ASSERT_EQ(int(Hello.Type), int(RespType::Ack));

  Ran R = runProgram(PipelineSource);
  stream::SealerOptions SOpts;
  SOpts.ProgramIndex = F.ProgramIndex;
  SOpts.ProgramHash = F.Hash;
  SOpts.SectionRecords = 1;
  stream::StreamSealer Sealer(SOpts);
  Sealer.setStreamId(Hello.StreamId);
  std::vector<Request> Frames = Sealer.sealRound(R.Log, /*Force=*/true);
  ASSERT_GE(Frames.size(), 2u) << "pipeline program has several processes";

  // Open cut 1, then claim a frame of cut 2 mid-cut.
  Request First = Frames.front();
  First.Flags &= uint8_t(~SectionLastInCut);
  ASSERT_EQ(int(F.Ingest.dispatch(First).Type), int(RespType::Ack));
  Request Interloper = Frames[1];
  Interloper.CutSeq = First.CutSeq + 1;
  Response Err = F.Ingest.dispatch(Interloper);
  EXPECT_EQ(int(Err.Type), int(RespType::Error));
  EXPECT_EQ(int(Err.Code), int(ErrCode::StreamProtocol));
  EXPECT_NE(Err.Text.find("interleaved"), std::string::npos);
}

TEST(StreamIngestTest, TailOnEmptyFrontierIsAnAnswerNotAnError) {
  IngestFixture F(PipelineSource);
  Response Hello = F.hello();
  ASSERT_EQ(int(Hello.Type), int(RespType::Ack));
  Response R = F.tail(Hello.StreamId, "where 0");
  ASSERT_EQ(int(R.Type), int(RespType::Result));
  EXPECT_NE(R.Text.find("frontier is empty"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Spill durability
//===----------------------------------------------------------------------===//

TEST(StreamSpillTest, DroppedConnectionLeavesSpillOpenableToLastCut) {
  ScopedTempDir TmpDir;
  const std::string &Dir = TmpDir.path();
  stream::IngestOptions Options;
  Options.SpillDir = Dir;
  IngestFixture F(PipelineSource, Options);
  Response Hello = F.hello();
  ASSERT_EQ(int(Hello.Type), int(RespType::Ack));
  uint64_t Sid = Hello.StreamId;

  // Seal during a live run (consistency), but buffer the frames so the
  // "connection" can drop after exactly two cuts.
  stream::SealerOptions SOpts;
  SOpts.ProgramIndex = F.ProgramIndex;
  SOpts.ProgramHash = F.Hash;
  SOpts.SectionRecords = 2;
  stream::StreamSealer Sealer(SOpts);
  Sealer.setStreamId(Sid);
  std::vector<std::vector<Request>> CutFrames; // grouped by cut
  MachineOptions MOpts;
  Machine M(*F.Prog, MOpts);
  M.onRound([&](Machine &Mach) {
    std::vector<Request> Frames = Sealer.sealRound(Mach.log());
    std::vector<Request> Cut;
    for (Request &Fr : Frames) {
      bool Last = (Fr.Flags & SectionLastInCut) != 0;
      Cut.push_back(std::move(Fr));
      if (Last) {
        CutFrames.push_back(std::move(Cut));
        Cut.clear();
      }
    }
    EXPECT_TRUE(Cut.empty()) << "sealRound returns whole cuts";
  });
  M.run();
  ASSERT_GE(CutFrames.size(), 3u) << "need cuts to drop";

  const size_t Applied = 2;
  for (size_t C = 0; C != Applied; ++C)
    for (Request &Fr : CutFrames[C])
      ASSERT_EQ(int(F.Ingest.dispatch(Fr).Type), int(RespType::Ack));
  // ...and the tracer vanishes here: no cut 3, no StreamEnd.

  std::string SpillPath = F.Ingest.spillPathOf(Sid);
  ASSERT_FALSE(SpillPath.empty());
  uint64_t Hash = 0;
  std::vector<stream::SpillCut> Cuts;
  bool Truncated = true;
  ASSERT_TRUE(stream::loadSpill(SpillPath, Hash, Cuts, &Truncated));
  EXPECT_EQ(Hash, F.Hash);
  EXPECT_FALSE(Truncated);
  ASSERT_EQ(Cuts.size(), Applied);

  // The recovered prefix equals the live frontier, record for record.
  ExecutionLog Recovered, Frontier;
  ASSERT_TRUE(stream::buildLogFromCuts(Cuts, Cuts.size(), Recovered));
  ASSERT_TRUE(F.Ingest.frontierLog(Sid, Frontier));
  std::string PathA = Dir + "/recovered.ppdlog";
  std::string PathB = Dir + "/frontier.ppdlog";
  ASSERT_TRUE(Recovered.save(PathA, LogFormat::V2));
  ASSERT_TRUE(Frontier.save(PathB, LogFormat::V2));
  EXPECT_EQ(fileBytes(PathA), fileBytes(PathB));

  // Crash mid-chunk: append a chunk header promising more bytes than
  // exist. The complete-cut prefix still loads, now flagged Truncated.
  {
    std::ofstream Out(SpillPath, std::ios::binary | std::ios::app);
    uint32_t Len = 100;
    Out.write(reinterpret_cast<const char *>(&Len), 4);
    const char Partial[10] = {};
    Out.write(Partial, sizeof(Partial));
  }
  Cuts.clear();
  ASSERT_TRUE(stream::loadSpill(SpillPath, Hash, Cuts, &Truncated));
  EXPECT_TRUE(Truncated);
  EXPECT_EQ(Cuts.size(), Applied);
}

TEST(StreamSpillTest, EndedStreamFinalizesCanonicalV2Log) {
  ScopedTempDir TmpDir;
  const std::string &Dir = TmpDir.path();
  stream::IngestOptions Options;
  Options.SpillDir = Dir;
  IngestFixture F(PipelineSource, Options);

  StreamedRun Run = streamRun(F, 4);
  std::string FinalPath = F.Ingest.finalLogPathOf(Run.Sid);
  ASSERT_FALSE(FinalPath.empty());

  // The finalized file is exactly what the batch run would have saved.
  std::string BatchPath = Dir + "/batch.ppdlog";
  ASSERT_TRUE(Run.BatchLog.save(BatchPath, LogFormat::V2));
  EXPECT_EQ(fileBytes(FinalPath), fileBytes(BatchPath));

  // And it opens through the ordinary batch loader.
  ExecutionLog Loaded;
  ASSERT_TRUE(ExecutionLog::load(FinalPath, Loaded));
  EXPECT_EQ(Loaded.Procs.size(), Run.BatchLog.Procs.size());
  EXPECT_EQ(Loaded.Output.size(), Run.BatchLog.Output.size());
}

// Durability (--spill-sync): the sync hook counts exactly the calls the
// contract promises — finalization is always durable (fsync the tmp file
// and the directory around the rename: 2 calls), and SpillSync adds one
// fdatasync per acked cut on top. strace-free by injection.
TEST(StreamSpillTest, SyncHookCountsFinalizeAlwaysPerCutWhenEnabled) {
  for (bool SpillSync : {false, true}) {
    ScopedTempDir TmpDir;
    const std::string &Dir = TmpDir.path();
    uint64_t SyncCalls = 0;
    stream::IngestOptions Options;
    Options.SpillDir = Dir;
    Options.SpillSync = SpillSync;
    Options.Sync = [&SyncCalls](int Fd) {
      EXPECT_GE(Fd, 0);
      ++SyncCalls;
      return 0; // counted, not performed: the test wants call sites
    };
    IngestFixture F(PipelineSource, Options);
    StreamedRun Run = streamRun(F, 4);
    ASSERT_GE(Run.Cuts, 1u);
    uint64_t Expected = SpillSync ? 2 + Run.Cuts : 2;
    EXPECT_EQ(SyncCalls, Expected)
        << (SpillSync ? "with" : "without") << " --spill-sync over "
        << Run.Cuts << " cuts";
  }
}

TEST(StreamSpillTest, FailedFinalizeSyncKillsStreamAndRemovesTmp) {
  ScopedTempDir TmpDir;
  const std::string &Dir = TmpDir.path();
  stream::IngestOptions Options;
  Options.SpillDir = Dir;
  Options.Sync = [](int) { return -1; }; // the platter said no
  IngestFixture F(PipelineSource, Options);

  Response Hello = F.hello();
  ASSERT_EQ(int(Hello.Type), int(RespType::Ack));
  uint64_t Sid = Hello.StreamId;
  stream::SealerOptions SOpts;
  SOpts.ProgramIndex = F.ProgramIndex;
  SOpts.ProgramHash = F.Hash;
  SOpts.SectionRecords = 4;
  stream::StreamSealer Sealer(SOpts);
  Sealer.setStreamId(Sid);
  MachineOptions MOpts;
  MOpts.Mode = RunMode::Logging;
  Machine M(*F.Prog, MOpts);
  M.onRound([&](Machine &Mach) {
    for (Request &Fr : Sealer.sealRound(Mach.log()))
      ASSERT_EQ(int(F.Ingest.dispatch(Fr).Type), int(RespType::Ack));
  });
  M.run();
  for (Request &Fr : Sealer.sealRound(M.log(), /*Force=*/true))
    ASSERT_EQ(int(F.Ingest.dispatch(Fr).Type), int(RespType::Ack));

  Response End = F.Ingest.dispatch(Sealer.endFrame(M.log()));
  EXPECT_EQ(int(End.Type), int(RespType::Error))
      << "an unsyncable finalized log must not be acked durable";
  EXPECT_NE(End.Text.find("sync"), std::string::npos) << End.Text;
  EXPECT_TRUE(F.Ingest.finalLogPathOf(Sid).empty());
  // No half-finalized tmp file left behind.
  std::string TmpPath =
      Dir + "/stream-" + std::to_string(Sid) + ".ppdlog.tmp";
  std::ifstream Tmp(TmpPath, std::ios::binary);
  EXPECT_FALSE(Tmp.good()) << "tmp file survived the failed finalize";
}

//===----------------------------------------------------------------------===//
// Spill budget
//===----------------------------------------------------------------------===//

TEST(StreamBudgetTest, ExhaustedBudgetGivesTypedBusy) {
  stream::IngestOptions Options;
  Options.SpillBudget = 8; // far below any real cut chunk
  IngestFixture F(PipelineSource, Options);
  Response Hello = F.hello();
  ASSERT_EQ(int(Hello.Type), int(RespType::Ack))
      << "an empty registry is under budget";

  Ran R = runProgram(PipelineSource);
  stream::SealerOptions SOpts;
  SOpts.ProgramIndex = F.ProgramIndex;
  SOpts.ProgramHash = F.Hash;
  SOpts.SectionRecords = 1;
  stream::StreamSealer Sealer(SOpts);
  Sealer.setStreamId(Hello.StreamId);
  std::vector<Request> Frames = Sealer.sealRound(R.Log, /*Force=*/true);
  ASSERT_FALSE(Frames.empty());
  Response Last;
  for (Request &Fr : Frames)
    Last = F.Ingest.dispatch(Fr);
  EXPECT_EQ(int(Last.Type), int(RespType::Busy))
      << "the cut-closing frame hits the budget gate";
  EXPECT_GE(F.Server.metrics().busyRejections(), 1u);
  EXPECT_EQ(F.Ingest.frontierVersion(Hello.StreamId), 0u)
      << "a rejected cut applies nothing";

  // The budget-killed stream takes no more frames.
  Response After = F.Ingest.dispatch(Frames.front());
  EXPECT_EQ(int(After.Type), int(RespType::Error));
}

TEST(StreamBudgetTest, SpillHeaderBytesCountAndBlockNewHellos) {
  // With a spill dir, each accepted hello writes a 16-byte header; a
  // 16-byte budget admits exactly one stream, then hellos go Busy.
  ScopedTempDir TmpDir;
  const std::string &Dir = TmpDir.path();
  stream::IngestOptions Options;
  Options.SpillDir = Dir;
  Options.SpillBudget = 16;
  IngestFixture F(PipelineSource, Options);
  ASSERT_EQ(int(F.hello().Type), int(RespType::Ack));
  EXPECT_EQ(F.Ingest.spillBytes(), 16u);
  Response Second = F.hello();
  EXPECT_EQ(int(Second.Type), int(RespType::Busy));
  EXPECT_EQ(F.Ingest.numStreams(), 1u);
}

//===----------------------------------------------------------------------===//
// Concurrency (the TSan target): ingest under live tail/frontier queries
//===----------------------------------------------------------------------===//

TEST(StreamConcurrencyTest, TailAndFrontierQueriesRaceIngestSafely) {
  IngestFixture F(PipelineSource);
  Response Hello = F.hello();
  ASSERT_EQ(int(Hello.Type), int(RespType::Ack));
  uint64_t Sid = Hello.StreamId;

  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Queries{0};
  std::vector<std::thread> Readers;
  for (int T = 0; T != 3; ++T)
    Readers.emplace_back([&, T] {
      const char *Cmd = T == 0 ? "where 0" : T == 1 ? "races" : "list";
      while (!Done.load(std::memory_order_acquire)) {
        Response R = F.tail(Sid, Cmd);
        // Every answer is a Result: empty-frontier text before the first
        // cut, a real answer after — never an error, never a crash.
        EXPECT_EQ(int(R.Type), int(RespType::Result)) << R.Text;
        Response Fr = F.frontier(Sid);
        EXPECT_EQ(int(Fr.Type), int(RespType::Result));
        Queries.fetch_add(1, std::memory_order_relaxed);
      }
    });

  // The writer: a live streamed run with one-record sections, maximizing
  // cut applications racing the queries above.
  stream::SealerOptions SOpts;
  SOpts.ProgramIndex = F.ProgramIndex;
  SOpts.ProgramHash = F.Hash;
  SOpts.SectionRecords = 1;
  stream::StreamSealer Sealer(SOpts);
  Sealer.setStreamId(Sid);
  // Provable overlap: the writer does not start until every reader has
  // answered at least one query, and each scheduler round yields until
  // fresh queries have raced the cut that round applied.
  while (Queries.load(std::memory_order_relaxed) < 3)
    std::this_thread::yield();
  MachineOptions MOpts;
  Machine M(*F.Prog, MOpts);
  M.onRound([&](Machine &Mach) {
    for (Request &Fr : Sealer.sealRound(Mach.log()))
      ASSERT_EQ(int(F.Ingest.dispatch(Fr).Type), int(RespType::Ack));
    uint64_t Seen = Queries.load(std::memory_order_relaxed);
    while (Queries.load(std::memory_order_relaxed) == Seen)
      std::this_thread::yield();
  });
  M.run();
  for (Request &Fr : Sealer.sealRound(M.log(), /*Force=*/true))
    ASSERT_EQ(int(F.Ingest.dispatch(Fr).Type), int(RespType::Ack));
  ASSERT_EQ(int(F.Ingest.dispatch(Sealer.endFrame(M.log())).Type),
            int(RespType::Ack));

  Done.store(true, std::memory_order_release);
  for (std::thread &T : Readers)
    T.join();
  EXPECT_GT(Queries.load(), 0u);
  EXPECT_GT(F.Ingest.frontierVersion(Sid), 0u);

  // After the race: the frontier still answers exactly like batch.
  ExecutionLog Frontier;
  ASSERT_TRUE(F.Ingest.frontierLog(Sid, Frontier));
  PpdController Batch(*F.Prog, ExecutionLog(Frontier));
  DebugSession BatchSess(*F.Prog, Batch);
  for (const char *Cmd : {"where 0", "races", "list"}) {
    Response R = F.tail(Sid, Cmd);
    ASSERT_EQ(int(R.Type), int(RespType::Result));
    EXPECT_EQ(R.Text, BatchSess.execute(Cmd));
  }
}

//===----------------------------------------------------------------------===//
// Server plumbing: stream frames route through the dispatcher hook
//===----------------------------------------------------------------------===//

TEST(StreamServerTest, SubmitFrameRoutesStreamMessagesToTheDispatcher) {
  IngestFixture F(PipelineSource);
  Request Req;
  Req.Type = MsgType::Frontier;
  Req.RequestId = 77;
  Req.StreamId = 0;
  LogWriter W;
  encodeRequest(Req, W);
  std::vector<uint8_t> Frame =
      F.Server.handleFrame(W.data() + 4, W.size() - 4);
  ASSERT_GE(Frame.size(), 4u);
  Response Resp;
  ASSERT_TRUE(decodeResponse(Frame.data() + 4, Frame.size() - 4, Resp));
  EXPECT_EQ(int(Resp.Type), int(RespType::Result));
  EXPECT_EQ(Resp.RequestId, 77u);
  EXPECT_EQ(Resp.Text, "no streams");
}

} // namespace
