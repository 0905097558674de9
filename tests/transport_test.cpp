//===- tests/transport_test.cpp - epoll transport + TCP + lifetimes -------===//
//
// Part of PPD test suite: the readiness-based server transport
// (DESIGN.md §14). The epoll dispatcher's responses are checked byte for
// byte against the in-process DebugServer::handleFrame, TCP against the
// unix listener the same way, and the connection-lifetime fixes are
// pinned down directly: fd counts flat across connect/disconnect churn,
// idle-timeout reaping, slow-reader disconnection at
// the write-queue bound (typed metric, bounded memory), malformed and
// truncated frames over TCP, stream ingest over TCP, client desync
// disconnects, and listenUnix refusing a live server's socket while
// still cleaning stale files.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "log/ProgramDb.h"
#include "server/DebugServer.h"
#include "server/EventDispatcher.h"
#include "server/Protocol.h"
#include "server/Transport.h"
#include "server/Wire.h"
#include "stream/Ingest.h"
#include "stream/StreamClient.h"
#include "vm/Machine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace ppd;
using namespace ppd::test;

namespace {

const char *WorkloadSource = R"(
shared int acc;
chan done;
func worker(int base) {
  acc = acc + base;
  acc = acc + base + 1;
  send(done, base);
}
func main() {
  spawn worker(10);
  int first = recv(done);
  print(acc);
  print(first * 2);
}
)";

std::string tempName(const char *Tag) {
  static std::atomic<unsigned> Counter{0};
  return "/tmp/ppd-transport-" + std::to_string(::getpid()) + "-" + Tag +
         "-" + std::to_string(Counter.fetch_add(1));
}

/// Open fds of this process, via /proc/self/fd. The counting dirfd
/// itself is excluded.
size_t openFdCount() {
  DIR *D = ::opendir("/proc/self/fd");
  if (!D)
    return 0;
  size_t N = 0;
  while (struct dirent *E = ::readdir(D)) {
    if (E->d_name[0] == '.')
      continue;
    ++N;
  }
  ::closedir(D);
  return N - 1; // the opendir fd
}

/// Polls until the fd count drops back to \p Baseline (reaping is
/// asynchronous). False on timeout.
bool awaitFdBaseline(size_t Baseline, int TimeoutMs = 5000) {
  for (int Waited = 0; Waited < TimeoutMs; Waited += 10) {
    if (openFdCount() <= Baseline)
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return openFdCount() <= Baseline;
}

std::vector<uint8_t> payloadOf(const Request &Req) {
  LogWriter W;
  encodeRequest(Req, W);
  return std::vector<uint8_t>(W.data() + 4, W.data() + W.size());
}

/// Adds the compiled-and-run workload as program 0 of \p Server.
void addWorkload(DebugServer &Server) {
  Ran R = runProgram(WorkloadSource);
  Server.addProgram(std::move(R.Prog), std::move(R.Log));
}

/// An in-process server on the epoll transport, listening on a unix
/// socket and/or TCP, with the dispatcher loop on a background thread.
struct EpollServer {
  DebugServer Server;
  std::string UnixPath;
  uint16_t TcpPort = 0;
  std::thread Loop;
  int ExitCode = -1;

  explicit EpollServer(DebugServerOptions SOpts = {}) : Server(SOpts) {}

  void addWorkload() { ::addWorkload(Server); }

  void start(bool WithUnix, bool WithTcp, EpollServerOptions TOpts = {}) {
    if (WithUnix) {
      UnixPath = tempName("srv") + ".sock";
      TOpts.UnixListenFd = listenUnix(UnixPath);
      ASSERT_GE(TOpts.UnixListenFd, 0);
      TOpts.UnixPath = UnixPath;
    }
    if (WithTcp) {
      TOpts.TcpListenFd = listenTcp("127.0.0.1:0", &TcpPort);
      ASSERT_GE(TOpts.TcpListenFd, 0);
    }
    Loop = std::thread(
        [this, TOpts] { ExitCode = runEpollServer(Server, TOpts); });
  }

  std::string tcpEndpoint() const {
    return "tcp:127.0.0.1:" + std::to_string(TcpPort);
  }

  void shutdown() {
    if (!Loop.joinable())
      return;
    ClientConnection Conn;
    std::string Addr = UnixPath.empty() ? tcpEndpoint() : UnixPath;
    if (Conn.connect(Addr)) {
      Request Shut;
      Shut.Type = MsgType::Shutdown;
      Response Ack;
      Conn.roundTrip(Shut, Ack);
    }
    Loop.join();
  }

  ~EpollServer() {
    shutdown();
    if (!UnixPath.empty())
      ::unlink(UnixPath.c_str());
  }
};

/// The request matrix both differentials replay: a full session
/// lifecycle plus every error path a client can trip from outside.
std::vector<Request> differentialScript() {
  std::vector<Request> Out;
  Request R;
  R.Type = MsgType::OpenSession; // -> session 1 on a fresh server
  Out.push_back(R);
  for (const char *Cmd : {"where 0", "back", "fwd", "races", "restore 0 1",
                          "list"}) {
    R = Request();
    R.Type = MsgType::Query;
    R.SessionId = 1;
    R.Command = Cmd;
    Out.push_back(R);
  }
  R = Request();
  R.Type = MsgType::Step;
  R.SessionId = 1;
  R.Direction = 0;
  Out.push_back(R);
  R = Request();
  R.Type = MsgType::Step;
  R.SessionId = 1;
  R.Direction = 1;
  Out.push_back(R);
  R = Request();
  R.Type = MsgType::Races;
  R.SessionId = 1;
  Out.push_back(R);
  R = Request();
  R.Type = MsgType::Query; // error: unknown session
  R.SessionId = 999;
  R.Command = "where 0";
  Out.push_back(R);
  R = Request();
  R.Type = MsgType::OpenSession; // error: unknown program
  R.ProgramIndex = 42;
  Out.push_back(R);
  R = Request();
  R.Type = MsgType::Stats; // type-compared only: embeds timings
  Out.push_back(R);
  R = Request();
  R.Type = MsgType::CloseSession;
  R.SessionId = 1;
  Out.push_back(R);
  R = Request();
  R.Type = MsgType::CloseSession; // error: already closed
  R.SessionId = 1;
  Out.push_back(R);
  return Out;
}

/// Sends the script over \p Address frame by frame and returns the raw
/// response frames (length prefix stripped).
std::vector<std::vector<uint8_t>> replayScript(const std::string &Address) {
  std::vector<std::vector<uint8_t>> Out;
  int Fd = connectEndpoint(Address);
  EXPECT_GE(Fd, 0) << Address;
  if (Fd < 0)
    return Out;
  uint64_t NextId = 1;
  for (Request Req : differentialScript()) {
    Req.RequestId = NextId++;
    std::vector<uint8_t> P = payloadOf(Req);
    EXPECT_TRUE(sendFrame(Fd, P.data(), P.size()));
    std::vector<uint8_t> Frame;
    EXPECT_TRUE(recvFrame(Fd, Frame));
    Out.push_back(std::move(Frame));
  }
  ::close(Fd);
  return Out;
}

/// The same script through \p Server's synchronous handleFrame, with no
/// socket in between: the reference every transport must match.
std::vector<std::vector<uint8_t>> replayInProcess(DebugServer &Server) {
  std::vector<std::vector<uint8_t>> Out;
  uint64_t NextId = 1;
  for (Request Req : differentialScript()) {
    Req.RequestId = NextId++;
    std::vector<uint8_t> P = payloadOf(Req);
    std::vector<uint8_t> Frame = Server.handleFrame(P.data(), P.size());
    EXPECT_GE(Frame.size(), size_t(4));
    Out.emplace_back(Frame.begin() + 4, Frame.end()); // strip the prefix
  }
  return Out;
}

/// Byte-compares two response sequences; Stats responses (index \p
/// StatsAt) compare by decoded type only, their text embeds timings.
void expectSameResponses(const std::vector<std::vector<uint8_t>> &A,
                         const std::vector<std::vector<uint8_t>> &B) {
  std::vector<Request> Script = differentialScript();
  ASSERT_EQ(A.size(), Script.size());
  ASSERT_EQ(B.size(), Script.size());
  for (size_t I = 0; I != Script.size(); ++I) {
    if (Script[I].Type == MsgType::Stats) {
      Response Ra, Rb;
      ASSERT_TRUE(decodeResponse(A[I].data(), A[I].size(), Ra));
      ASSERT_TRUE(decodeResponse(B[I].data(), B[I].size(), Rb));
      EXPECT_EQ(int(Ra.Type), int(Rb.Type)) << "script step " << I;
      continue;
    }
    EXPECT_EQ(A[I], B[I]) << "script step " << I << " (type "
                          << unsigned(Script[I].Type) << ") diverged";
  }
}

//===----------------------------------------------------------------------===//
// Differentials: epoll vs in-process handleFrame, TCP vs unix
//===----------------------------------------------------------------------===//

TEST(TransportDiffTest, EpollResponsesByteIdenticalToHandleFrame) {
  // Two servers over two deterministic compiles+runs of the same source:
  // their programs and logs are identical, so every non-Stats response
  // the epoll transport sends must match, byte for byte, what the
  // in-process handleFrame returns for the same request.
  EpollServer Epoll;
  Epoll.addWorkload();
  Epoll.start(/*WithUnix=*/true, /*WithTcp=*/false);
  DebugServer InProcess;
  addWorkload(InProcess);

  expectSameResponses(replayScript(Epoll.UnixPath),
                      replayInProcess(InProcess));

  Epoll.shutdown();
  EXPECT_EQ(Epoll.ExitCode, 0);
}

TEST(TransportDiffTest, TcpResponsesByteIdenticalToUnix) {
  EpollServer OverUnix;
  OverUnix.addWorkload();
  OverUnix.start(/*WithUnix=*/true, /*WithTcp=*/false);
  EpollServer OverTcp;
  OverTcp.addWorkload();
  OverTcp.start(/*WithUnix=*/false, /*WithTcp=*/true);

  std::vector<std::vector<uint8_t>> FromUnix = replayScript(OverUnix.UnixPath);
  std::vector<std::vector<uint8_t>> FromTcp =
      replayScript(OverTcp.tcpEndpoint());
  expectSameResponses(FromUnix, FromTcp);
}

TEST(TransportDiffTest, BothListenersShareOneServer) {
  // One server, both listeners: a session opened over TCP is visible
  // over the unix socket — the listeners share the DebugServer, not
  // just a port.
  EpollServer S;
  S.addWorkload();
  S.start(/*WithUnix=*/true, /*WithTcp=*/true);

  ClientConnection Tcp;
  ASSERT_TRUE(Tcp.connect(S.tcpEndpoint()));
  Request Open;
  Open.Type = MsgType::OpenSession;
  Response Resp;
  ASSERT_TRUE(Tcp.roundTrip(Open, Resp));
  ASSERT_EQ(int(Resp.Type), int(RespType::SessionOpened));
  uint64_t Session = Resp.SessionId;

  ClientConnection Unix;
  ASSERT_TRUE(Unix.connect(S.UnixPath));
  Request Query;
  Query.Type = MsgType::Query;
  Query.SessionId = Session;
  Query.Command = "where 0";
  ASSERT_TRUE(Unix.roundTrip(Query, Resp));
  EXPECT_EQ(int(Resp.Type), int(RespType::Result));
  EXPECT_FALSE(Resp.Text.empty());
}

//===----------------------------------------------------------------------===//
// Malformed and truncated frames over TCP
//===----------------------------------------------------------------------===//

TEST(TransportRobustnessTest, GarbageFrameOverTcpGetsBadFrameThenClose) {
  EpollServer S;
  S.addWorkload();
  S.start(/*WithUnix=*/false, /*WithTcp=*/true);

  int Fd = connectTcp("127.0.0.1:" + std::to_string(S.TcpPort));
  ASSERT_GE(Fd, 0);
  std::vector<uint8_t> Garbage(32, 0xee);
  ASSERT_TRUE(sendFrame(Fd, Garbage.data(), Garbage.size()));
  std::vector<uint8_t> Frame;
  ASSERT_TRUE(recvFrame(Fd, Frame));
  Response R;
  ASSERT_TRUE(decodeResponse(Frame.data(), Frame.size(), R));
  EXPECT_EQ(int(R.Type), int(RespType::Error));
  EXPECT_EQ(int(R.Code), int(ErrCode::BadFrame));
  EXPECT_GE(S.Server.metrics().malformedFrames(), 1u);
  // The framing itself was valid, so the connection stays synced — the
  // same connection serves a well-formed request next (only unsyncable
  // framing closes, see below).
  Request Open;
  Open.Type = MsgType::OpenSession;
  Open.RequestId = 2;
  std::vector<uint8_t> P = payloadOf(Open);
  ASSERT_TRUE(sendFrame(Fd, P.data(), P.size()));
  ASSERT_TRUE(recvFrame(Fd, Frame));
  ASSERT_TRUE(decodeResponse(Frame.data(), Frame.size(), R));
  EXPECT_EQ(int(R.Type), int(RespType::SessionOpened));
  ::close(Fd);

  // The server survives and serves fresh connections.
  ClientConnection Conn;
  ASSERT_TRUE(Conn.connect(S.tcpEndpoint()));
  Request Open2;
  Open2.Type = MsgType::OpenSession;
  Response Resp;
  ASSERT_TRUE(Conn.roundTrip(Open2, Resp));
  EXPECT_EQ(int(Resp.Type), int(RespType::SessionOpened));
}

TEST(TransportRobustnessTest, OversizedLengthPrefixPoisonsConnection) {
  EpollServer S;
  S.addWorkload();
  S.start(/*WithUnix=*/false, /*WithTcp=*/true);

  int Fd = connectTcp("127.0.0.1:" + std::to_string(S.TcpPort));
  ASSERT_GE(Fd, 0);
  uint32_t Len = MaxFramePayload + 1;
  uint8_t Prefix[4];
  std::memcpy(Prefix, &Len, 4);
  ASSERT_EQ(::send(Fd, Prefix, 4, MSG_NOSIGNAL), 4);
  std::vector<uint8_t> Frame;
  ASSERT_TRUE(recvFrame(Fd, Frame)) << "a BadFrame error precedes the close";
  Response R;
  ASSERT_TRUE(decodeResponse(Frame.data(), Frame.size(), R));
  EXPECT_EQ(int(R.Type), int(RespType::Error));
  EXPECT_EQ(int(R.Code), int(ErrCode::BadFrame));
  EXPECT_FALSE(recvFrame(Fd, Frame));
  ::close(Fd);
}

TEST(TransportRobustnessTest, TruncatedFrameThenHangupIsReapedQuietly) {
  EpollServer S;
  S.addWorkload();
  S.start(/*WithUnix=*/false, /*WithTcp=*/true);

  // Half a frame, then hang up: the server must reap the connection
  // (EOF mid-frame) without answering and without dying.
  Request Req;
  Req.Type = MsgType::OpenSession;
  Req.RequestId = 1;
  std::vector<uint8_t> P = payloadOf(Req);
  int Fd = connectTcp("127.0.0.1:" + std::to_string(S.TcpPort));
  ASSERT_GE(Fd, 0);
  uint32_t Len = uint32_t(P.size());
  ASSERT_EQ(::send(Fd, &Len, 4, MSG_NOSIGNAL), 4);
  ASSERT_EQ(::send(Fd, P.data(), P.size() / 2, MSG_NOSIGNAL),
            ssize_t(P.size() / 2));
  ::close(Fd);

  // Accepted-then-closed must converge: the half-framed conn is gone.
  for (int Waited = 0; Waited < 5000; Waited += 10) {
    if (S.Server.metrics().connsClosed() >= 1)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(S.Server.metrics().connsClosed(), 1u);

  ClientConnection Conn;
  ASSERT_TRUE(Conn.connect(S.tcpEndpoint()));
  Request Open;
  Open.Type = MsgType::OpenSession;
  Response Resp;
  ASSERT_TRUE(Conn.roundTrip(Open, Resp));
  EXPECT_EQ(int(Resp.Type), int(RespType::SessionOpened));
}

//===----------------------------------------------------------------------===//
// Connection lifetime: fd churn, idle timeout, slow readers
//===----------------------------------------------------------------------===//

TEST(ConnLifetimeTest, FdCountFlatAcrossChurnEpoll) {
  EpollServer S;
  S.addWorkload();
  S.start(/*WithUnix=*/true, /*WithTcp=*/true);

  // Warm up one connection so lazily-created fds exist before baseline.
  {
    ClientConnection Warm;
    ASSERT_TRUE(Warm.connect(S.UnixPath));
    Request Open;
    Open.Type = MsgType::OpenSession;
    Response Resp;
    ASSERT_TRUE(Warm.roundTrip(Open, Resp));
  }
  ASSERT_TRUE(awaitFdBaseline(openFdCount()));
  size_t Baseline = openFdCount();

  constexpr int Cycles = 200;
  for (int I = 0; I != Cycles; ++I) {
    // Alternate listeners; every cycle does one full round trip.
    ClientConnection Conn;
    ASSERT_TRUE(Conn.connect(I % 2 ? S.UnixPath : S.tcpEndpoint()))
        << "cycle " << I;
    Request Stats;
    Stats.Type = MsgType::Stats;
    Response Resp;
    ASSERT_TRUE(Conn.roundTrip(Stats, Resp));
  }

  EXPECT_TRUE(awaitFdBaseline(Baseline))
      << "fd count " << openFdCount() << " never returned to baseline "
      << Baseline << " after " << Cycles << " connect/disconnect cycles";
  EXPECT_GE(S.Server.metrics().connsAccepted(), uint64_t(Cycles));
  EXPECT_GE(S.Server.metrics().connsClosed(), uint64_t(Cycles));
}

TEST(ConnLifetimeTest, IdleConnectionsAreReaped) {
  EpollServer S;
  S.addWorkload();
  EpollServerOptions TOpts;
  TOpts.IdleTimeoutMs = 50;
  S.start(/*WithUnix=*/false, /*WithTcp=*/true, TOpts);

  int Fd = connectTcp("127.0.0.1:" + std::to_string(S.TcpPort));
  ASSERT_GE(Fd, 0);
  // One round trip proves the connection is live, then go idle.
  Request Req;
  Req.Type = MsgType::Stats;
  Req.RequestId = 1;
  std::vector<uint8_t> P = payloadOf(Req);
  ASSERT_TRUE(sendFrame(Fd, P.data(), P.size()));
  std::vector<uint8_t> Frame;
  ASSERT_TRUE(recvFrame(Fd, Frame));

  // The idle timer (50ms) fires and the server hangs up on us.
  EXPECT_FALSE(recvFrame(Fd, Frame)) << "idle connection was not reaped";
  ::close(Fd);
  EXPECT_GE(S.Server.metrics().idleDisconnects(), 1u);

  // Active connections are NOT reaped: keep one busy past the timeout.
  ClientConnection Conn;
  ASSERT_TRUE(Conn.connect(S.tcpEndpoint()));
  for (int I = 0; I != 10; ++I) {
    Request Stats;
    Stats.Type = MsgType::Stats;
    Response Resp;
    ASSERT_TRUE(Conn.roundTrip(Stats, Resp)) << "round " << I;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

TEST(ConnLifetimeTest, SlowReaderIsDisconnectedAtWriteQueueBound) {
  EpollServer S;
  S.addWorkload();
  EpollServerOptions TOpts;
  // A small userspace bound plus a small kernel send buffer make the
  // overflow reachable with a few hundred responses.
  TOpts.MaxWriteQueueBytes = 16 << 10;
  TOpts.SendBufBytes = 4 << 10;
  S.start(/*WithUnix=*/false, /*WithTcp=*/true, TOpts);

  int Fd = connectTcp("127.0.0.1:" + std::to_string(S.TcpPort));
  ASSERT_GE(Fd, 0);
  int RcvBuf = 4 << 10;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVBUF, &RcvBuf, sizeof(RcvBuf));

  Request Open;
  Open.Type = MsgType::OpenSession;
  Open.RequestId = 1;
  std::vector<uint8_t> P = payloadOf(Open);
  ASSERT_TRUE(sendFrame(Fd, P.data(), P.size()));
  std::vector<uint8_t> Frame;
  ASSERT_TRUE(recvFrame(Fd, Frame));
  Response Resp;
  ASSERT_TRUE(decodeResponse(Frame.data(), Frame.size(), Resp));
  ASSERT_EQ(int(Resp.Type), int(RespType::SessionOpened));

  // Pipeline queries and never read: responses pile up in the
  // connection's write queue until the bound trips and the server
  // disconnects us — memory stays bounded by construction.
  Request Query;
  Query.Type = MsgType::Query;
  Query.SessionId = Resp.SessionId;
  Query.Command = "list";
  bool Disconnected = false;
  for (int I = 0; I != 4096 && !Disconnected; ++I) {
    Query.RequestId = 100 + I;
    std::vector<uint8_t> QP = payloadOf(Query);
    LogWriter W;
    encodeRequest(Query, W);
    ssize_t N = ::send(Fd, W.data(), W.size(), MSG_NOSIGNAL);
    if (N < 0 && (errno == EPIPE || errno == ECONNRESET))
      Disconnected = true;
    if (I % 64 == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Either the send side already saw the reset, or the read side sees
  // EOF now; both mean the server dropped us at the bound.
  if (!Disconnected) {
    for (int Waited = 0; Waited < 5000; Waited += 10) {
      if (S.Server.metrics().writeOverflows() >= 1)
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ::close(Fd);
  EXPECT_GE(S.Server.metrics().writeOverflows(), 1u)
      << "the write-queue bound never tripped";

  // The loop thread is fine; a well-behaved client still gets answers.
  ClientConnection Conn;
  ASSERT_TRUE(Conn.connect(S.tcpEndpoint()));
  Request Stats;
  Stats.Type = MsgType::Stats;
  ASSERT_TRUE(Conn.roundTrip(Stats, Resp));
  EXPECT_EQ(int(Resp.Type), int(RespType::StatsText));
  EXPECT_NE(Resp.Text.find("write-overflows"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Stream ingest over TCP
//===----------------------------------------------------------------------===//

TEST(TransportStreamTest, StreamIngestOverTcpMatchesBatchLog) {
  EpollServer S;
  stream::IngestRegistry Ingest(S.Server, stream::IngestOptions());
  S.Server.setStreamDispatcher(
      [&Ingest](const Request &Req) { return Ingest.dispatch(Req); });
  auto Prog = compileOk(WorkloadSource);
  auto SrvProg = compileOk(WorkloadSource);
  uint64_t Hash = programHash(*SrvProg);
  uint32_t Index = S.Server.addProgram(std::move(SrvProg), ExecutionLog());
  S.start(/*WithUnix=*/false, /*WithTcp=*/true);

  stream::StreamClientOptions COpts;
  COpts.SocketPath = S.tcpEndpoint();
  COpts.Sealer.ProgramIndex = Index;
  COpts.Sealer.ProgramHash = Hash;
  COpts.Sealer.SectionRecords = 4;
  stream::StreamClient Client(COpts);
  ASSERT_TRUE(Client.start()) << Client.error();

  MachineOptions MOpts;
  MOpts.Seed = 1;
  MOpts.Mode = RunMode::Logging;
  Machine M(*Prog, MOpts);
  M.onRound([&](Machine &Mach) { Client.pollRound(Mach.log()); });
  M.run();
  ASSERT_TRUE(Client.finish(M.log())) << Client.error();
  EXPECT_FALSE(Client.failed());
  EXPECT_GE(Client.sectionsShipped(), 1u);

  // The ingested frontier equals the batch log's shape.
  ExecutionLog Batch = M.takeLog();
  ExecutionLog Frontier;
  ASSERT_TRUE(Ingest.frontierLog(Client.streamId(), Frontier));
  ASSERT_EQ(Frontier.Procs.size(), Batch.Procs.size());
  for (size_t Pid = 0; Pid != Batch.Procs.size(); ++Pid)
    EXPECT_EQ(Frontier.Procs[Pid].Records.size(),
              Batch.Procs[Pid].Records.size())
        << "pid " << Pid;

  // And a tail query over TCP answers like a local session would.
  ClientConnection Conn;
  ASSERT_TRUE(Conn.connect(S.tcpEndpoint()));
  Request Tail;
  Tail.Type = MsgType::TailQuery;
  Tail.StreamId = Client.streamId();
  Tail.Command = "where 0";
  Response Resp;
  ASSERT_TRUE(Conn.roundTrip(Tail, Resp));
  EXPECT_EQ(int(Resp.Type), int(RespType::Result));
  EXPECT_FALSE(Resp.Text.empty());
}

//===----------------------------------------------------------------------===//
// Client desync (satellite: roundTrip poisons the connection)
//===----------------------------------------------------------------------===//

/// A one-shot fake server: accepts one connection on a unix socket,
/// reads one frame, answers with \p MakeReply's bytes.
void fakeServerOnce(int ListenFd,
                    std::function<std::vector<uint8_t>(uint64_t)> MakeReply) {
  int Fd = ::accept(ListenFd, nullptr, nullptr);
  ASSERT_GE(Fd, 0);
  std::vector<uint8_t> Payload;
  ASSERT_TRUE(recvFrame(Fd, Payload));
  Request Req;
  ASSERT_TRUE(decodeRequest(Payload.data(), Payload.size(), Req));
  std::vector<uint8_t> Reply = MakeReply(Req.RequestId);
  ASSERT_TRUE(sendFrame(Fd, Reply.data(), Reply.size()));
  ::close(Fd);
}

TEST(ClientDesyncTest, MismatchedRequestIdDisconnects) {
  std::string Path = tempName("desync") + ".sock";
  int ListenFd = listenUnix(Path);
  ASSERT_GE(ListenFd, 0);
  std::thread Server(fakeServerOnce, ListenFd, [](uint64_t Id) {
    Response Resp;
    Resp.Type = RespType::Closed;
    Resp.RequestId = Id + 7; // wrong id: a stale or reordered response
    LogWriter W;
    encodeResponse(Resp, W);
    return std::vector<uint8_t>(W.data() + 4, W.data() + W.size());
  });

  ClientConnection Conn;
  ASSERT_TRUE(Conn.connect(Path));
  Request Req;
  Req.Type = MsgType::Stats;
  Response Resp;
  EXPECT_FALSE(Conn.roundTrip(Req, Resp));
  EXPECT_FALSE(Conn.connected())
      << "a desynced connection must be dropped, not reused";
  Server.join();
  ::close(ListenFd);
  ::unlink(Path.c_str());
}

TEST(ClientDesyncTest, UndecodableResponseDisconnects) {
  std::string Path = tempName("desync") + ".sock";
  int ListenFd = listenUnix(Path);
  ASSERT_GE(ListenFd, 0);
  std::thread Server(fakeServerOnce, ListenFd, [](uint64_t) {
    return std::vector<uint8_t>(16, 0xc7); // garbage payload
  });

  ClientConnection Conn;
  ASSERT_TRUE(Conn.connect(Path));
  Request Req;
  Req.Type = MsgType::Stats;
  Response Resp;
  EXPECT_FALSE(Conn.roundTrip(Req, Resp));
  EXPECT_FALSE(Conn.connected());
  Server.join();
  ::close(ListenFd);
  ::unlink(Path.c_str());
}

//===----------------------------------------------------------------------===//
// listenUnix: live sockets refused, stale ones cleaned
//===----------------------------------------------------------------------===//

TEST(ListenUnixTest, RefusesLiveSocketCleansStaleRefusesNonSocket) {
  std::string Path = tempName("listen") + ".sock";

  // Live: a second bind against a listening server is refused.
  int First = listenUnix(Path);
  ASSERT_GE(First, 0);
  EXPECT_EQ(listenUnix(Path), -1)
      << "stole the socket from a live server";
  // The refusal must not have unlinked the live socket either.
  int Probe = connectUnix(Path);
  EXPECT_GE(Probe, 0) << "the live server's socket was clobbered";
  if (Probe >= 0)
    ::close(Probe);

  // Stale: after the server dies the path remains; a new bind cleans it.
  ::close(First);
  int Second = listenUnix(Path);
  EXPECT_GE(Second, 0) << "stale socket file was not cleaned up";
  if (Second >= 0)
    ::close(Second);
  ::unlink(Path.c_str());

  // A regular file at the path is never unlinked.
  {
    std::ofstream Out(Path);
    Out << "precious";
  }
  EXPECT_EQ(listenUnix(Path), -1);
  std::ifstream Check(Path);
  std::string Content;
  Check >> Content;
  EXPECT_EQ(Content, "precious") << "listenUnix deleted a non-socket file";
  ::unlink(Path.c_str());
}

//===----------------------------------------------------------------------===//
// EventDispatcher unit coverage
//===----------------------------------------------------------------------===//

TEST(EventDispatcherTest, TimersFireCancelHoldsAndPostWakes) {
  EventDispatcher Loop;
  ASSERT_TRUE(Loop.valid());

  std::atomic<int> Fired{0};
  Loop.addTimer(10, [&] { ++Fired; });
  EventDispatcher::TimerId Cancelled = Loop.addTimer(10, [&] { Fired += 100; });
  Loop.cancelTimer(Cancelled);
  // A long timer scheduled behind the short ones; stops the loop.
  Loop.addTimer(60, [&] { Loop.stop(); });

  std::thread Poster([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Loop.post([&] { Fired += 10; });
  });
  EXPECT_TRUE(Loop.run());
  Poster.join();
  EXPECT_EQ(Fired.load(), 11)
      << "short timer and posted fn fired; cancelled timer did not";
}

TEST(EventDispatcherTest, HandlerCanRemoveItselfWhileDispatching) {
  EventDispatcher Loop;
  ASSERT_TRUE(Loop.valid());
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);

  std::atomic<int> Calls{0};
  ASSERT_TRUE(Loop.add(Fds[0], EPOLLIN, [&](uint32_t) {
    ++Calls;
    Loop.remove(Fds[0]); // self-removal mid-dispatch must be safe
    ::close(Fds[0]);
    Loop.stop();
  }));
  ASSERT_EQ(::send(Fds[1], "x", 1, 0), 1);
  EXPECT_TRUE(Loop.run());
  EXPECT_EQ(Calls.load(), 1);
  ::close(Fds[1]);
}

} // namespace
