//===- tests/server_test.cpp - Debug server + wire protocol ---------------===//
//
// Part of PPD test suite: the framed wire protocol (round-trips, byte-
// prefix truncation sweeps, garbage rejection), the session registry
// (ref-counting, idle eviction, shared replay cache), the bounded request
// scheduler (Busy backpressure, timeouts, drain), and the transport-free
// end-to-end server — including the concurrency contract: N client
// threads over shared and distinct sessions receive responses
// bit-identical to a serial single-session run.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/DebugSession.h"
#include "server/DebugServer.h"
#include "server/Protocol.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <set>
#include <thread>

using namespace ppd;
using namespace ppd::test;

namespace {

//===----------------------------------------------------------------------===//
// Protocol codec
//===----------------------------------------------------------------------===//

/// Encodes \p Req and returns the payload (length prefix stripped).
std::vector<uint8_t> requestPayload(const Request &Req) {
  LogWriter W;
  encodeRequest(Req, W);
  EXPECT_GE(W.size(), 4u);
  uint32_t Len = 0;
  std::memcpy(&Len, W.data(), 4);
  EXPECT_EQ(size_t(Len) + 4, W.size()) << "length prefix covers payload";
  return std::vector<uint8_t>(W.data() + 4, W.data() + W.size());
}

std::vector<uint8_t> responsePayload(const Response &Resp) {
  LogWriter W;
  encodeResponse(Resp, W);
  uint32_t Len = 0;
  std::memcpy(&Len, W.data(), 4);
  EXPECT_EQ(size_t(Len) + 4, W.size());
  return std::vector<uint8_t>(W.data() + 4, W.data() + W.size());
}

/// One exemplar request per message type, fields exercised.
std::vector<Request> sampleRequests() {
  std::vector<Request> Out;
  Request R;
  R.Type = MsgType::OpenSession;
  R.RequestId = 101;
  R.ProgramIndex = 2;
  Out.push_back(R);
  R = Request();
  R.Type = MsgType::Query;
  R.RequestId = 102;
  R.SessionId = 7;
  R.Command = "where 0";
  Out.push_back(R);
  R = Request();
  R.Type = MsgType::Step;
  R.RequestId = 103;
  R.SessionId = 7;
  R.Direction = 1;
  Out.push_back(R);
  R = Request();
  R.Type = MsgType::Races;
  R.RequestId = 104;
  R.SessionId = 9;
  Out.push_back(R);
  R = Request();
  R.Type = MsgType::Stats;
  R.RequestId = 105;
  Out.push_back(R);
  R = Request();
  R.Type = MsgType::CloseSession;
  R.RequestId = 106;
  R.SessionId = 3;
  Out.push_back(R);
  R = Request();
  R.Type = MsgType::Shutdown;
  R.RequestId = 107;
  Out.push_back(R);
  R = Request();
  R.Type = MsgType::StreamHello;
  R.RequestId = 108;
  R.ProgramIndex = 1;
  R.ProgramHash = 0xdeadbeefcafef00dull;
  Out.push_back(R);
  R = Request();
  R.Type = MsgType::SectionData;
  R.RequestId = 109;
  R.StreamId = 4;
  R.CutSeq = 3;
  R.Pid = 2;
  R.FirstRecord = 17;
  R.Flags = SectionLastInCut;
  R.Stalls = 5;
  R.Blob = {0x01, 0x02, 0x03, 0xff};
  Out.push_back(R);
  R = Request();
  R.Type = MsgType::StreamEnd;
  R.RequestId = 110;
  R.StreamId = 4;
  R.Stalls = 6;
  R.Blob = {0xaa, 0xbb};
  Out.push_back(R);
  R = Request();
  R.Type = MsgType::TailQuery;
  R.RequestId = 111;
  R.StreamId = 4;
  R.Command = "where 0";
  Out.push_back(R);
  R = Request();
  R.Type = MsgType::Frontier;
  R.RequestId = 112;
  R.StreamId = 0;
  Out.push_back(R);
  return Out;
}

std::vector<Response> sampleResponses() {
  std::vector<Response> Out;
  Response R;
  R.Type = RespType::SessionOpened;
  R.RequestId = 201;
  R.SessionId = 5;
  Out.push_back(R);
  R = Response();
  R.Type = RespType::Result;
  R.RequestId = 202;
  R.Text = "at: print(x) (line 3)\n";
  Out.push_back(R);
  R = Response();
  R.Type = RespType::StatsText;
  R.RequestId = 203;
  R.Text = "cache: hits 3\n";
  Out.push_back(R);
  R = Response();
  R.Type = RespType::Closed;
  R.RequestId = 204;
  Out.push_back(R);
  R = Response();
  R.Type = RespType::Busy;
  R.RequestId = 205;
  Out.push_back(R);
  R = Response();
  R.Type = RespType::Error;
  R.RequestId = 206;
  R.Code = ErrCode::NoSuchSession;
  R.Text = "no session 42";
  Out.push_back(R);
  R = Response();
  R.Type = RespType::ShutdownAck;
  R.RequestId = 207;
  Out.push_back(R);
  R = Response();
  R.Type = RespType::Ack;
  R.RequestId = 208;
  R.StreamId = 11;
  R.Credits = 8;
  Out.push_back(R);
  R = Response();
  R.Type = RespType::Error;
  R.RequestId = 209;
  R.Code = ErrCode::StreamProtocol;
  R.Text = "cut 3 is not a consistent extension";
  Out.push_back(R);
  return Out;
}

TEST(ProtocolTest, RequestRoundTripEveryType) {
  for (const Request &Req : sampleRequests()) {
    std::vector<uint8_t> Payload = requestPayload(Req);
    Request Back;
    ASSERT_TRUE(decodeRequest(Payload.data(), Payload.size(), Back))
        << "type " << unsigned(Req.Type);
    EXPECT_EQ(int(Back.Type), int(Req.Type));
    EXPECT_EQ(Back.RequestId, Req.RequestId);
    EXPECT_EQ(Back.ProgramIndex, Req.ProgramIndex);
    EXPECT_EQ(Back.SessionId, Req.SessionId);
    EXPECT_EQ(Back.Direction, Req.Direction);
    EXPECT_EQ(Back.Command, Req.Command);
    EXPECT_EQ(Back.ProgramHash, Req.ProgramHash);
    EXPECT_EQ(Back.StreamId, Req.StreamId);
    EXPECT_EQ(Back.CutSeq, Req.CutSeq);
    EXPECT_EQ(Back.Pid, Req.Pid);
    EXPECT_EQ(Back.FirstRecord, Req.FirstRecord);
    EXPECT_EQ(Back.Flags, Req.Flags);
    EXPECT_EQ(Back.Stalls, Req.Stalls);
    EXPECT_EQ(Back.Blob, Req.Blob);
  }
}

TEST(ProtocolTest, ResponseRoundTripEveryType) {
  for (const Response &Resp : sampleResponses()) {
    std::vector<uint8_t> Payload = responsePayload(Resp);
    Response Back;
    ASSERT_TRUE(decodeResponse(Payload.data(), Payload.size(), Back))
        << "type " << unsigned(Resp.Type);
    EXPECT_EQ(int(Back.Type), int(Resp.Type));
    EXPECT_EQ(Back.RequestId, Resp.RequestId);
    EXPECT_EQ(Back.SessionId, Resp.SessionId);
    if (Resp.Type == RespType::Error) {
      EXPECT_EQ(int(Back.Code), int(Resp.Code));
    }
    EXPECT_EQ(Back.Text, Resp.Text);
    EXPECT_EQ(Back.StreamId, Resp.StreamId);
    EXPECT_EQ(Back.Credits, Resp.Credits);
  }
}

// The byte-prefix truncation sweep, against every message type: any
// strict prefix of a valid payload must decode cleanly to failure (every
// body field is mandatory and trailing bytes are rejected, so a prefix
// can never alias another valid message).
TEST(ProtocolTest, TruncatedRequestFailsCleanlyEveryType) {
  for (const Request &Req : sampleRequests()) {
    std::vector<uint8_t> Payload = requestPayload(Req);
    for (size_t Keep = 0; Keep != Payload.size(); ++Keep) {
      Request Out;
      EXPECT_FALSE(decodeRequest(Payload.data(), Keep, Out))
          << "type " << unsigned(Req.Type) << " prefix " << Keep << "/"
          << Payload.size();
    }
  }
}

TEST(ProtocolTest, TruncatedResponseFailsCleanlyEveryType) {
  for (const Response &Resp : sampleResponses()) {
    std::vector<uint8_t> Payload = responsePayload(Resp);
    for (size_t Keep = 0; Keep != Payload.size(); ++Keep) {
      Response Out;
      EXPECT_FALSE(decodeResponse(Payload.data(), Keep, Out))
          << "type " << unsigned(Resp.Type) << " prefix " << Keep << "/"
          << Payload.size();
    }
  }
}

TEST(ProtocolTest, RejectsWrongVersionUnknownTypeAndTrailingGarbage) {
  Request Req;
  Req.Type = MsgType::Races;
  Req.SessionId = 1;
  std::vector<uint8_t> Payload = requestPayload(Req);

  std::vector<uint8_t> BadVersion = Payload;
  BadVersion[0] = ProtocolVersion + 1;
  Request Out;
  EXPECT_FALSE(decodeRequest(BadVersion.data(), BadVersion.size(), Out));

  std::vector<uint8_t> BadType = Payload;
  BadType[1] = 0;
  EXPECT_FALSE(decodeRequest(BadType.data(), BadType.size(), Out));
  BadType[1] = 99;
  EXPECT_FALSE(decodeRequest(BadType.data(), BadType.size(), Out));

  std::vector<uint8_t> Trailing = Payload;
  Trailing.push_back(0xab);
  EXPECT_FALSE(decodeRequest(Trailing.data(), Trailing.size(), Out))
      << "trailing bytes are malformed, not ignored";
}

TEST(ProtocolTest, RejectsStringLengthBeyondPayload) {
  Request Req;
  Req.Type = MsgType::Query;
  Req.SessionId = 1;
  Req.Command = "where 0";
  std::vector<uint8_t> Payload = requestPayload(Req);
  // The command-length u32 sits after version(1)+type(1)+id(8)+session(8).
  uint32_t Huge = 0x7fffffff;
  std::memcpy(Payload.data() + 18, &Huge, 4);
  Request Out;
  EXPECT_FALSE(decodeRequest(Payload.data(), Payload.size(), Out));
}

TEST(ProtocolTest, FrameReaderReassemblesByteAtATime) {
  LogWriter W;
  for (const Request &Req : sampleRequests())
    encodeRequest(Req, W);

  FrameReader Frames;
  std::vector<std::vector<uint8_t>> Got;
  for (size_t I = 0; I != W.size(); ++I) {
    Frames.feed(W.data() + I, 1);
    std::vector<uint8_t> Payload;
    while (Frames.next(Payload))
      Got.push_back(Payload);
  }
  std::vector<Request> Expected = sampleRequests();
  ASSERT_EQ(Got.size(), Expected.size());
  for (size_t I = 0; I != Got.size(); ++I) {
    Request Out;
    ASSERT_TRUE(decodeRequest(Got[I].data(), Got[I].size(), Out));
    EXPECT_EQ(Out.RequestId, Expected[I].RequestId);
  }
  EXPECT_FALSE(Frames.malformed());
}

TEST(ProtocolTest, FrameReaderPoisonsOnOversizedLength) {
  FrameReader Frames;
  uint32_t Len = MaxFramePayload + 1;
  uint8_t Prefix[4];
  std::memcpy(Prefix, &Len, 4);
  Frames.feed(Prefix, 4);
  std::vector<uint8_t> Payload;
  EXPECT_FALSE(Frames.next(Payload));
  EXPECT_TRUE(Frames.malformed());
  // Poisoned for good: even valid bytes afterwards yield nothing.
  Request Req;
  Req.Type = MsgType::Shutdown;
  LogWriter W;
  encodeRequest(Req, W);
  Frames.feed(W.data(), W.size());
  EXPECT_FALSE(Frames.next(Payload));
}

//===----------------------------------------------------------------------===//
// Server fixtures
//===----------------------------------------------------------------------===//

const char *WorkloadSource = R"(
shared int acc;
chan done;
func worker(int base) {
  acc = acc + base;
  acc = acc + base + 1;
  acc = acc + base + 2;
  send(done, base);
}
func main() {
  spawn worker(10);
  int first = recv(done);
  int tail = first * 2;
  print(acc);
  print(tail);
}
)";

/// A server over one compiled program + log, plus a second identical
/// compile-and-run of the same source: compilation and seeded execution
/// are deterministic, so Baseline.Prog/Baseline.Log are the serial
/// oracle's view of the exact same execution the server serves.
struct ServerFixture {
  Ran Baseline;
  std::unique_ptr<DebugServer> Server;

  explicit ServerFixture(DebugServerOptions Options = DebugServerOptions()) {
    Ran R = runProgram(WorkloadSource);
    Baseline = runProgram(WorkloadSource);
    Server = std::make_unique<DebugServer>(Options);
    Server->addProgram(std::move(R.Prog), std::move(R.Log));
  }

  const CompiledProgram &program() { return *Baseline.Prog; }

  Response call(Request Req) {
    static std::atomic<uint64_t> NextId{1};
    Req.RequestId = NextId.fetch_add(1);
    return Server->handle(Req);
  }

  uint64_t openSession() {
    Request Req;
    Req.Type = MsgType::OpenSession;
    Response Resp = call(Req);
    EXPECT_EQ(int(Resp.Type), int(RespType::SessionOpened));
    return Resp.SessionId;
  }

  Response query(uint64_t Session, const std::string &Cmd) {
    Request Req;
    Req.Type = MsgType::Query;
    Req.SessionId = Session;
    Req.Command = Cmd;
    return call(Req);
  }

  /// Round-trips one request through the async submitFrame path,
  /// synchronously. Never hangs: the callback always delivers.
  Response submit(const Request &Req) {
    LogWriter W;
    encodeRequest(Req, W);
    std::promise<Response> Done;
    Server->submitFrame(
        std::vector<uint8_t>(W.data() + 4, W.data() + W.size()),
        [&](std::vector<uint8_t> Frame) {
          Response Resp;
          bool Ok = Frame.size() >= 4 &&
                    decodeResponse(Frame.data() + 4, Frame.size() - 4, Resp);
          EXPECT_TRUE(Ok) << "undecodable response frame";
          Done.set_value(Resp);
        });
    return Done.get_future().get();
  }
};

//===----------------------------------------------------------------------===//
// Dispatch basics (synchronous, deterministic)
//===----------------------------------------------------------------------===//

TEST(DebugServerTest, OpenQueryCloseLifecycle) {
  ServerFixture F;
  uint64_t S = F.openSession();
  EXPECT_NE(S, 0u);
  EXPECT_EQ(F.Server->registry().numSessions(), 1u);

  Response Where = F.query(S, "where 0");
  EXPECT_EQ(int(Where.Type), int(RespType::Result));
  EXPECT_FALSE(Where.Text.empty());

  Request Close;
  Close.Type = MsgType::CloseSession;
  Close.SessionId = S;
  EXPECT_EQ(int(F.call(Close).Type), int(RespType::Closed));
  EXPECT_EQ(F.Server->registry().numSessions(), 0u);

  Response Gone = F.query(S, "where 0");
  EXPECT_EQ(int(Gone.Type), int(RespType::Error));
  EXPECT_EQ(int(Gone.Code), int(ErrCode::NoSuchSession));
}

TEST(DebugServerTest, ResponsesMatchSerialDebugSession) {
  ServerFixture F;
  uint64_t S = F.openSession();

  PpdController Controller(F.program(), F.Baseline.Log);
  DebugSession Serial(F.program(), Controller);

  for (const char *Cmd :
       {"where 0", "back", "back", "fwd", "races", "restore 0 1", "list"}) {
    Response Resp = F.query(S, Cmd);
    ASSERT_EQ(int(Resp.Type), int(RespType::Result)) << Cmd;
    EXPECT_EQ(Resp.Text, Serial.execute(Cmd)) << Cmd;
  }
}

TEST(DebugServerTest, StepMessageMapsToBackAndFwd) {
  ServerFixture F;
  uint64_t S = F.openSession();
  F.query(S, "where 0");

  PpdController Controller(F.program(), F.Baseline.Log);
  DebugSession Serial(F.program(), Controller);
  Serial.execute("where 0");

  Request Step;
  Step.Type = MsgType::Step;
  Step.SessionId = S;
  Step.Direction = 0;
  EXPECT_EQ(F.call(Step).Text, Serial.execute("back"));
  Step.Direction = 1;
  EXPECT_EQ(F.call(Step).Text, Serial.execute("fwd"));
}

TEST(DebugServerTest, ErrorsOnBadProgramAndSession) {
  ServerFixture F;
  Request Open;
  Open.Type = MsgType::OpenSession;
  Open.ProgramIndex = 42;
  Response Resp = F.call(Open);
  EXPECT_EQ(int(Resp.Type), int(RespType::Error));
  EXPECT_EQ(int(Resp.Code), int(ErrCode::NoSuchProgram));

  EXPECT_EQ(int(F.query(999, "where 0").Code), int(ErrCode::NoSuchSession));

  Request Close;
  Close.Type = MsgType::CloseSession;
  Close.SessionId = 999;
  EXPECT_EQ(int(F.call(Close).Code), int(ErrCode::NoSuchSession));
}

TEST(DebugServerTest, SessionCapGivesTooManySessions) {
  DebugServerOptions Options;
  Options.Registry.MaxSessions = 2;
  ServerFixture F(Options);
  EXPECT_NE(F.openSession(), 0u);
  EXPECT_NE(F.openSession(), 0u);
  Request Open;
  Open.Type = MsgType::OpenSession;
  Response Resp = F.call(Open);
  EXPECT_EQ(int(Resp.Type), int(RespType::Error));
  EXPECT_EQ(int(Resp.Code), int(ErrCode::TooManySessions));
}

TEST(DebugServerTest, StatsMessagesRenderSessionAndServerViews) {
  ServerFixture F;
  uint64_t S = F.openSession();
  F.query(S, "restore 0 1");

  Request Stats;
  Stats.Type = MsgType::Stats;
  Stats.SessionId = S;
  Response SessionStats = F.call(Stats);
  EXPECT_EQ(int(SessionStats.Type), int(RespType::StatsText));
  EXPECT_NE(SessionStats.Text.find("cache: hits"), std::string::npos);
  EXPECT_NE(SessionStats.Text.find("bufferpool: hits"), std::string::npos);

  Stats.SessionId = 0;
  Response ServerStats = F.call(Stats);
  EXPECT_EQ(int(ServerStats.Type), int(RespType::StatsText));
  EXPECT_NE(ServerStats.Text.find("server: requests"), std::string::npos);
  EXPECT_NE(ServerStats.Text.find("requests by type:"), std::string::npos);
  EXPECT_NE(ServerStats.Text.find("latency: count"), std::string::npos);
  EXPECT_NE(ServerStats.Text.find("cache: hits"), std::string::npos);
}

TEST(DebugServerTest, SessionsShareTheReplayCache) {
  ServerFixture F;
  uint64_t S1 = F.openSession();
  uint64_t S2 = F.openSession();
  // `where` builds a graph fragment, which replays the focused interval
  // through the replay service (`restore` would not: it only accumulates
  // postlogs straight from the log).
  ASSERT_EQ(int(F.query(S1, "where 0").Type), int(RespType::Result));
  uint64_t MissesAfterFirst =
      F.Server->registry().aggregateReplayStats().Cache.Misses;
  ASSERT_EQ(int(F.query(S2, "where 0").Type), int(RespType::Result));
  ReplayServiceStats After = F.Server->registry().aggregateReplayStats();
  EXPECT_GT(After.Cache.Hits, 0u)
      << "second session's replay must hit the shared cache";
  EXPECT_EQ(After.Cache.Misses, MissesAfterFirst)
      << "second session replays nothing new";
}

TEST(DebugServerTest, MalformedFramesGetErrorResponsesNeverCrash) {
  ServerFixture F;
  std::vector<std::vector<uint8_t>> Bad = {
      {},
      {0x01},
      {ProtocolVersion, 0x63},
      std::vector<uint8_t>(64, 0xff),
  };
  // Every truncation of a valid query frame.
  Request Req;
  Req.Type = MsgType::Query;
  Req.RequestId = 7777;
  Req.SessionId = 1;
  Req.Command = "where 0";
  std::vector<uint8_t> Full = requestPayload(Req);
  for (size_t Keep = 0; Keep != Full.size(); ++Keep)
    Bad.emplace_back(Full.begin(), Full.begin() + long(Keep));

  for (const std::vector<uint8_t> &Frame : Bad) {
    static const uint8_t Nothing = 0;
    const uint8_t *Data = Frame.empty() ? &Nothing : Frame.data();
    std::vector<uint8_t> RespFrame = F.Server->handleFrame(Data, Frame.size());
    ASSERT_GE(RespFrame.size(), 4u);
    Response Resp;
    ASSERT_TRUE(
        decodeResponse(RespFrame.data() + 4, RespFrame.size() - 4, Resp));
    EXPECT_EQ(int(Resp.Type), int(RespType::Error));
    EXPECT_EQ(int(Resp.Code), int(ErrCode::BadFrame));
  }
  EXPECT_GE(F.Server->metrics().malformedFrames(), Bad.size());

  // RequestId recovery: a truncated-body frame still addresses its error.
  std::vector<uint8_t> Headerful(Full.begin(), Full.begin() + 12);
  std::vector<uint8_t> RespFrame =
      F.Server->handleFrame(Headerful.data(), Headerful.size());
  Response Resp;
  ASSERT_TRUE(
      decodeResponse(RespFrame.data() + 4, RespFrame.size() - 4, Resp));
  EXPECT_EQ(Resp.RequestId, 7777u);
}

//===----------------------------------------------------------------------===//
// Scheduler: backpressure, timeouts, drain
//===----------------------------------------------------------------------===//

/// A gate that parks scheduler workers until released, and reports when a
/// worker has actually entered it — tests that need the (LIFO) worker
/// provably occupied must wait for that before submitting more work.
struct Gate {
  std::mutex Mutex;
  std::condition_variable Cv;
  bool Open = false;
  bool Entered = false;
  void release() {
    std::lock_guard<std::mutex> Lock(Mutex);
    Open = true;
    Cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> Lock(Mutex);
    Entered = true;
    Cv.notify_all();
    Cv.wait(Lock, [this] { return Open; });
  }
  void awaitEntered() {
    std::unique_lock<std::mutex> Lock(Mutex);
    Cv.wait(Lock, [this] { return Entered; });
  }
};

TEST(RequestSchedulerTest, BusyBeyondQueueLimit) {
  RequestSchedulerOptions Options;
  Options.Threads = 1;
  Options.QueueLimit = 2;
  RequestScheduler Scheduler(Options);

  Gate G;
  std::atomic<int> Executed{0};
  auto Blocker = [&](bool) {
    G.wait();
    ++Executed;
  };
  EXPECT_EQ(int(Scheduler.submit(Blocker)),
            int(RequestScheduler::Admission::Accepted));
  EXPECT_EQ(int(Scheduler.submit(Blocker)),
            int(RequestScheduler::Admission::Accepted));
  EXPECT_EQ(int(Scheduler.submit(Blocker)),
            int(RequestScheduler::Admission::Busy))
      << "third submission exceeds QueueLimit=2";
  EXPECT_EQ(Scheduler.highWater(), 2u);

  G.release();
  Scheduler.drain();
  EXPECT_EQ(Executed.load(), 2) << "rejected work never executed";
  EXPECT_EQ(int(Scheduler.submit(Blocker)),
            int(RequestScheduler::Admission::ShuttingDown))
      << "drain stops admission";
}

TEST(RequestSchedulerTest, ExpiredRequestsAreHandedBackTimedOut) {
  RequestSchedulerOptions Options;
  Options.Threads = 1;
  Options.QueueLimit = 8;
  Options.TimeoutMs = 1;
  RequestScheduler Scheduler(Options);

  Gate G;
  Scheduler.submit([&](bool) { G.wait(); });
  G.awaitEntered(); // the worker is provably parked in the gate
  std::promise<bool> Flag;
  Scheduler.submit([&](bool TimedOut) { Flag.set_value(TimedOut); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  G.release();
  EXPECT_TRUE(Flag.get_future().get())
      << "a request that waited 50ms against a 1ms budget is expired";
  Scheduler.drain();
}

TEST(RequestSchedulerTest, ZeroThreadsRunsInline) {
  RequestScheduler Scheduler(RequestSchedulerOptions{});
  std::thread::id Ran;
  auto Verdict =
      Scheduler.submit([&](bool) { Ran = std::this_thread::get_id(); });
  EXPECT_EQ(int(Verdict), int(RequestScheduler::Admission::Accepted));
  EXPECT_EQ(Ran, std::this_thread::get_id())
      << "with no workers the task runs inside submit()";
  EXPECT_EQ(Scheduler.inFlight(), 0u);
}

TEST(RequestSchedulerTest, RunsEverySubmittedTask) {
  RequestSchedulerOptions Options;
  Options.QueueLimit = 0;
  std::atomic<int> Count{0};
  {
    Options.Threads = 4;
    RequestScheduler Scheduler(Options);
    for (int I = 0; I != 200; ++I)
      Scheduler.submit([&](bool) { Count.fetch_add(1); });
    // Destruction drains the queue before joining the workers.
  }
  EXPECT_EQ(Count.load(), 200);

  // One worker takes the queue in submission order.
  std::vector<int> Order;
  {
    Options.Threads = 1;
    RequestScheduler Scheduler(Options);
    for (int I = 0; I != 16; ++I)
      Scheduler.submit([&Order, I](bool) { Order.push_back(I); });
  }
  ASSERT_EQ(Order.size(), 16u);
  for (int I = 0; I != 16; ++I)
    EXPECT_EQ(Order[I], I);
}

TEST(RequestSchedulerTest, WorkersRunOffTheSubmittingThread) {
  RequestSchedulerOptions Options;
  Options.Threads = 4;
  Options.QueueLimit = 0;
  std::mutex Mutex;
  std::set<std::thread::id> Ids;
  {
    RequestScheduler Scheduler(Options);
    for (int I = 0; I != 64; ++I)
      Scheduler.submit([&](bool) {
        std::lock_guard<std::mutex> Lock(Mutex);
        Ids.insert(std::this_thread::get_id());
      });
  }
  EXPECT_GE(Ids.size(), 1u);
  EXPECT_LE(Ids.size(), 4u);
  EXPECT_FALSE(Ids.count(std::this_thread::get_id()))
      << "with workers, the submitting thread runs no task";
}

TEST(DebugServerTest, BusyBackpressureUnderQueueSaturation) {
  DebugServerOptions Options;
  Options.Threads = 1;
  Options.QueueLimit = 1;
  ServerFixture F(Options);
  uint64_t S = F.openSession();

  // Park the only worker so the queue cap is reached.
  Gate G;
  ASSERT_EQ(int(F.Server->scheduler().submit([&](bool) { G.wait(); })),
            int(RequestScheduler::Admission::Accepted));

  Request Req;
  Req.Type = MsgType::Query;
  Req.RequestId = 31;
  Req.SessionId = S;
  Req.Command = "races";
  Response Resp = F.submit(Req);
  EXPECT_EQ(int(Resp.Type), int(RespType::Busy));
  EXPECT_EQ(Resp.RequestId, 31u);
  EXPECT_GE(F.Server->metrics().busyRejections(), 1u);

  G.release();
  F.Server->drain();
}

TEST(DebugServerTest, QueuedRequestsPastTimeoutGetTimeoutErrors) {
  DebugServerOptions Options;
  Options.Threads = 1;
  Options.QueueLimit = 8;
  Options.TimeoutMs = 1;
  ServerFixture F(Options);
  uint64_t S = F.openSession();

  Gate G;
  ASSERT_EQ(int(F.Server->scheduler().submit([&](bool) { G.wait(); })),
            int(RequestScheduler::Admission::Accepted));
  G.awaitEntered(); // the worker is provably parked in the gate

  Request Req;
  Req.Type = MsgType::Query;
  Req.RequestId = 32;
  Req.SessionId = S;
  Req.Command = "races";
  LogWriter W;
  encodeRequest(Req, W);
  std::promise<Response> Done;
  F.Server->submitFrame(
      std::vector<uint8_t>(W.data() + 4, W.data() + W.size()),
      [&](std::vector<uint8_t> Frame) {
        Response Resp;
        EXPECT_TRUE(Frame.size() >= 4 &&
                    decodeResponse(Frame.data() + 4, Frame.size() - 4, Resp));
        Done.set_value(Resp);
      });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  G.release();
  Response Resp = Done.get_future().get();
  EXPECT_EQ(int(Resp.Type), int(RespType::Error));
  EXPECT_EQ(int(Resp.Code), int(ErrCode::Timeout));
  EXPECT_EQ(Resp.RequestId, 32u);
  EXPECT_GE(F.Server->metrics().timeouts(), 1u);
  F.Server->drain();
}

TEST(DebugServerTest, ShutdownDrainsThenRejects) {
  ServerFixture F;
  uint64_t S = F.openSession();

  Request Shut;
  Shut.Type = MsgType::Shutdown;
  Shut.RequestId = 41;
  Response Ack = F.submit(Shut);
  EXPECT_EQ(int(Ack.Type), int(RespType::ShutdownAck));
  EXPECT_TRUE(F.Server->shuttingDown());
  F.Server->drain();

  Request Req;
  Req.Type = MsgType::Query;
  Req.RequestId = 42;
  Req.SessionId = S;
  Req.Command = "where 0";
  Response Resp = F.submit(Req);
  EXPECT_EQ(int(Resp.Type), int(RespType::Error));
  EXPECT_EQ(int(Resp.Code), int(ErrCode::ShuttingDown));
}

//===----------------------------------------------------------------------===//
// Session registry: pinning and idle eviction
//===----------------------------------------------------------------------===//

TEST(SessionRegistryTest, IdleSessionsAreEvictedPinnedOnesSurvive) {
  ServerFixture F;
  SessionRegistry &Registry = F.Server->registry();
  uint64_t Old = F.openSession();
  uint64_t Pinned = F.openSession();

  SessionRegistry::Handle Pin = Registry.acquire(Pinned);
  ASSERT_TRUE(bool(Pin));

  // Ticks advance on every acquire; age both earlier sessions.
  uint64_t Fresh = F.openSession();
  for (int I = 0; I != 8; ++I)
    Registry.acquire(Fresh);

  EXPECT_EQ(Registry.evictIdle(4), 1u)
      << "the unpinned idle session goes; the pinned one stays";
  EXPECT_FALSE(bool(Registry.acquire(Old)));
  EXPECT_TRUE(bool(Registry.acquire(Pinned)))
      << "pinned sessions survive eviction";
  EXPECT_TRUE(bool(Registry.acquire(Fresh)));

  // Commands still work on a session that was pinned through eviction.
  Response Resp = F.query(Pinned, "where 0");
  EXPECT_EQ(int(Resp.Type), int(RespType::Result));
}

TEST(SessionRegistryTest, CloseKeepsPinnedSessionsAliveUntilRelease) {
  ServerFixture F;
  SessionRegistry &Registry = F.Server->registry();
  uint64_t S = F.openSession();
  SessionRegistry::Handle Pin = Registry.acquire(S);
  ASSERT_TRUE(bool(Pin));

  EXPECT_TRUE(Registry.close(S));
  EXPECT_EQ(Registry.numSessions(), 0u);
  // The handle still works: the session object outlives its map entry.
  {
    std::lock_guard<std::mutex> Lock(Pin->Mutex);
    EXPECT_FALSE(Pin->Debug->execute("list").empty());
  }
  // But new acquires fail.
  EXPECT_FALSE(bool(Registry.acquire(S)));
}

//===----------------------------------------------------------------------===//
// Concurrency: bit-identical to serial (the satellite-4 contract)
//===----------------------------------------------------------------------===//

const std::vector<std::string> &concurrencyScript() {
  static const std::vector<std::string> Script = {
      "where 0",     "back",    "back", "fwd",  "races",
      "restore 0 1", "where 1", "back", "list"};
  return Script;
}

TEST(DebugServerTest, DistinctSessionsConcurrentlyMatchSerialBitForBit) {
  DebugServerOptions Options;
  Options.Threads = 4;
  Options.QueueLimit = 0; // no cap: this test wants every answer
  ServerFixture F(Options);

  // Serial oracle: one fresh session, the script once.
  std::vector<std::string> Expected;
  {
    PpdController Controller(F.program(), F.Baseline.Log);
    DebugSession Session(F.program(), Controller);
    for (const std::string &Cmd : concurrencyScript())
      Expected.push_back(Session.execute(Cmd));
  }

  constexpr unsigned NumClients = 8;
  std::vector<uint64_t> Sessions;
  for (unsigned I = 0; I != NumClients; ++I)
    Sessions.push_back(F.openSession());

  std::vector<std::vector<std::string>> Got(NumClients);
  std::vector<std::thread> Clients;
  for (unsigned I = 0; I != NumClients; ++I)
    Clients.emplace_back([&, I] {
      for (size_t C = 0; C != concurrencyScript().size(); ++C) {
        Request Req;
        Req.Type = MsgType::Query;
        Req.RequestId = I * 1000 + C;
        Req.SessionId = Sessions[I];
        Req.Command = concurrencyScript()[C];
        LogWriter W;
        encodeRequest(Req, W);
        std::promise<std::string> Done;
        F.Server->submitFrame(
            std::vector<uint8_t>(W.data() + 4, W.data() + W.size()),
            [&](std::vector<uint8_t> Frame) {
              Response Resp;
              bool Ok =
                  Frame.size() >= 4 &&
                  decodeResponse(Frame.data() + 4, Frame.size() - 4, Resp);
              EXPECT_TRUE(Ok);
              EXPECT_EQ(int(Resp.Type), int(RespType::Result));
              Done.set_value(Resp.Text);
            });
        Got[I].push_back(Done.get_future().get());
      }
    });
  for (std::thread &T : Clients)
    T.join();

  for (unsigned I = 0; I != NumClients; ++I)
    for (size_t C = 0; C != Expected.size(); ++C)
      EXPECT_EQ(Got[I][C], Expected[C])
          << "client " << I << " command '" << concurrencyScript()[C]
          << "' diverged from the serial run";
}

TEST(DebugServerTest, SharedSessionInterleavedQueriesMatchSerial) {
  DebugServerOptions Options;
  Options.Threads = 4;
  Options.QueueLimit = 0;
  ServerFixture F(Options);
  uint64_t S = F.openSession();

  // Focus-independent commands only: with N clients interleaving on ONE
  // session, whole commands are atomic (the session mutex), and none of
  // these depends on the focus another client may have moved — so every
  // response must still be the serial answer.
  const std::vector<std::string> Script = {"where 0", "races", "restore 0 1",
                                           "list"};
  std::vector<std::string> Expected;
  {
    PpdController Controller(F.program(), F.Baseline.Log);
    DebugSession Session(F.program(), Controller);
    for (const std::string &Cmd : Script)
      Expected.push_back(Session.execute(Cmd));
  }

  constexpr unsigned NumClients = 8;
  std::vector<std::vector<std::string>> Got(NumClients);
  std::vector<std::thread> Clients;
  for (unsigned I = 0; I != NumClients; ++I)
    Clients.emplace_back([&, I] {
      for (const std::string &Cmd : Script) {
        Response Resp = F.query(S, Cmd);
        EXPECT_EQ(int(Resp.Type), int(RespType::Result));
        Got[I].push_back(Resp.Text);
      }
    });
  for (std::thread &T : Clients)
    T.join();

  for (unsigned I = 0; I != NumClients; ++I)
    for (size_t C = 0; C != Script.size(); ++C)
      EXPECT_EQ(Got[I][C], Expected[C])
          << "client " << I << " command '" << Script[C] << "'";
}

} // namespace
