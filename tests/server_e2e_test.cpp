//===- tests/server_e2e_test.cpp - ppd serve over a real socket -----------===//
//
// Part of PPD test suite: end-to-end coverage of the shipped daemon. The
// test forks the real `ppd` binary (PPD_TOOL_PATH), points it at a
// program written to a temp file, speaks the wire protocol over the unix
// socket with the same ClientConnection the `ppd client` tool uses, and
// checks the full lifecycle: scripted session, pipelined queries all
// answered before a shutdown on the same connection takes effect, and a
// zero exit status after the graceful drain. A paged server must also
// survive its log being re-saved underneath it, and answer a typed error
// — not die — when the log is cut in place.
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"
#include "server/Wire.h"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <fstream>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace ppd;

namespace {

const char *E2eSource = R"(
shared int total;
func add(int v) { total = total + v; }
func main() {
  add(10);
  add(32);
  print(total);
}
)";

/// A fresh per-test path prefix under /tmp.
std::string tempBase() {
  return "/tmp/ppd-e2e-" + std::to_string(::getpid()) + "-" +
         std::to_string(::rand());
}

bool writeFile(const std::string &Path, const char *Text) {
  std::ofstream Out(Path);
  Out << Text;
  return bool(Out);
}

/// Replaces the calling (child) process with `ppd Args...`.
[[noreturn]] void execTool(const std::vector<std::string> &Args) {
  std::vector<char *> Argv{const_cast<char *>("ppd")};
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  ::execv(PPD_TOOL_PATH, Argv.data());
  _exit(127);
}

/// Runs `ppd Args...` to completion with stdout discarded. Returns its
/// exit status, or -1 if it did not exit normally.
int runTool(const std::vector<std::string> &Args) {
  pid_t Pid = ::fork();
  if (Pid < 0)
    return -1;
  if (Pid == 0) {
    int Null = ::open("/dev/null", O_WRONLY);
    if (Null >= 0)
      ::dup2(Null, 1);
    execTool(Args);
  }
  int Status = 0;
  if (::waitpid(Pid, &Status, 0) != Pid)
    return -1;
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

/// Runs one `ppd serve` child; kills it on destruction if still alive.
struct ServerProcess {
  pid_t Pid = -1;
  std::string SocketPath;
  std::string ProgramPath;
  int StdoutFd = -1; ///< read end of the child's stdout (TCP mode).
  uint16_t TcpPort = 0;

  /// Serves \p Source (written to a temp file) with \p Extra appended to
  /// the command line.
  bool start(bool WithTcp = false, const char *Source = E2eSource,
             const std::vector<std::string> &Extra = {}) {
    std::string Base = tempBase();
    SocketPath = Base + ".sock";
    ProgramPath = Base + ".ppl";
    if (!writeFile(ProgramPath, Source))
      return false;
    // Inline request execution: frames on one connection are answered
    // strictly in order, which the pipelining assertions rely on.
    std::vector<std::string> Args = {"serve", ProgramPath, "--socket",
                                     SocketPath, "--server-threads", "0"};
    if (WithTcp) {
      Args.push_back("--tcp");
      Args.push_back("127.0.0.1:0");
    }
    Args.insert(Args.end(), Extra.begin(), Extra.end());
    int Pipe[2] = {-1, -1};
    if (WithTcp && ::pipe(Pipe) != 0)
      return false;
    Pid = ::fork();
    if (Pid < 0)
      return false;
    if (Pid == 0) {
      if (WithTcp) {
        ::dup2(Pipe[1], 1);
        ::close(Pipe[0]);
        ::close(Pipe[1]);
      }
      execTool(Args);
    }
    if (WithTcp) {
      ::close(Pipe[1]);
      StdoutFd = Pipe[0];
    }
    return true;
  }

  /// Reads the child's stdout until the "listening on tcp HOST port N"
  /// line appears and returns N (the ephemeral port), or 0 on EOF.
  uint16_t awaitTcpPort() {
    std::string Buf;
    char C;
    while (TcpPort == 0 && ::read(StdoutFd, &C, 1) == 1) {
      if (C != '\n') {
        Buf.push_back(C);
        continue;
      }
      size_t At = Buf.find("listening on tcp ");
      size_t PortAt = Buf.rfind(" port ");
      if (At != std::string::npos && PortAt != std::string::npos)
        TcpPort = uint16_t(std::strtoul(Buf.c_str() + PortAt + 6,
                                        nullptr, 10));
      Buf.clear();
    }
    return TcpPort;
  }

  /// Polls until the server accepts a connection (it needs time to
  /// compile and run the program before listening).
  bool connectWithRetry(ClientConnection &Conn) {
    for (int Attempt = 0; Attempt != 200; ++Attempt) {
      if (Conn.connect(SocketPath))
        return true;
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1; // died before listening
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return false;
  }

  /// Waits for exit and returns the status, or -1 on timeout (the child
  /// is then killed).
  int waitExit() {
    if (Pid < 0)
      return -1;
    for (int Attempt = 0; Attempt != 400; ++Attempt) {
      int Status = 0;
      pid_t Got = ::waitpid(Pid, &Status, WNOHANG);
      if (Got == Pid) {
        Pid = -1;
        return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return -1;
  }

  ~ServerProcess() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
    if (StdoutFd >= 0)
      ::close(StdoutFd);
    if (!SocketPath.empty())
      ::unlink(SocketPath.c_str());
    if (!ProgramPath.empty())
      ::unlink(ProgramPath.c_str());
  }
};

/// Strips the length prefix off an encoded frame.
std::vector<uint8_t> payloadOf(const Request &Req) {
  LogWriter W;
  encodeRequest(Req, W);
  return std::vector<uint8_t>(W.data() + 4, W.data() + W.size());
}

/// Opens a session on program 0 and runs \p Commands in it. Returns the
/// answers, or an empty vector after a transport failure or a
/// non-Result response.
std::vector<std::string>
querySession(ClientConnection &Conn, const std::vector<std::string> &Commands) {
  Request Req;
  Response Resp;
  Req.Type = MsgType::OpenSession;
  if (!Conn.roundTrip(Req, Resp) || Resp.Type != RespType::SessionOpened)
    return {};
  uint64_t Session = Resp.SessionId;
  std::vector<std::string> Answers;
  for (const std::string &Cmd : Commands) {
    Req = Request();
    Req.Type = MsgType::Query;
    Req.SessionId = Session;
    Req.Command = Cmd;
    if (!Conn.roundTrip(Req, Resp) || Resp.Type != RespType::Result)
      return {};
    Answers.push_back(Resp.Text);
  }
  return Answers;
}

/// Opens a session on program \p Program and runs one command in it.
/// Returns the command's response (a default Response after a transport
/// failure or a refused open).
Response queryProgram(ClientConnection &Conn, uint32_t Program,
                      const std::string &Command) {
  Request Req;
  Response Resp;
  Req.Type = MsgType::OpenSession;
  Req.ProgramIndex = Program;
  if (!Conn.roundTrip(Req, Resp) || Resp.Type != RespType::SessionOpened)
    return Response();
  Req = Request();
  Req.Type = MsgType::Query;
  Req.SessionId = Resp.SessionId;
  Req.Command = Command;
  if (!Conn.roundTrip(Req, Resp))
    return Response();
  return Resp;
}

bool requestShutdown(ClientConnection &Conn) {
  Request Shut;
  Shut.Type = MsgType::Shutdown;
  Response Ack;
  return Conn.roundTrip(Shut, Ack) && Ack.Type == RespType::ShutdownAck;
}

TEST(ServerE2eTest, ScriptedSessionPipelinedDrainAndCleanExit) {
  ServerProcess Server;
  ASSERT_TRUE(Server.start());

  ClientConnection Conn;
  ASSERT_TRUE(Server.connectWithRetry(Conn))
      << "server never came up on " << Server.SocketPath;

  // --- Scripted session over the client the ppd tool ships. ---
  Request Req;
  Response Resp;
  Req.Type = MsgType::OpenSession;
  ASSERT_TRUE(Conn.roundTrip(Req, Resp));
  ASSERT_EQ(int(Resp.Type), int(RespType::SessionOpened));
  uint64_t Session = Resp.SessionId;
  ASSERT_NE(Session, 0u);

  Req = Request();
  Req.Type = MsgType::Query;
  Req.SessionId = Session;
  Req.Command = "restore 0 2";
  ASSERT_TRUE(Conn.roundTrip(Req, Resp));
  EXPECT_EQ(int(Resp.Type), int(RespType::Result));
  EXPECT_NE(Resp.Text.find("total = 42"), std::string::npos);

  Req = Request();
  Req.Type = MsgType::Stats;
  ASSERT_TRUE(Conn.roundTrip(Req, Resp));
  EXPECT_EQ(int(Resp.Type), int(RespType::StatsText));
  EXPECT_NE(Resp.Text.find("server: requests"), std::string::npos);

  Req = Request();
  Req.Type = MsgType::Query;
  Req.SessionId = Session + 999;
  Req.Command = "list";
  ASSERT_TRUE(Conn.roundTrip(Req, Resp));
  EXPECT_EQ(int(Resp.Type), int(RespType::Error));
  EXPECT_EQ(int(Resp.Code), int(ErrCode::NoSuchSession));

  // --- Pipelined queries + shutdown on a raw second connection. ---
  int Fd = connectUnix(Server.SocketPath);
  ASSERT_GE(Fd, 0);
  constexpr unsigned NumPipelined = 16;
  for (unsigned I = 0; I != NumPipelined; ++I) {
    Request Q;
    Q.Type = MsgType::Query;
    Q.RequestId = 1000 + I;
    Q.SessionId = Session;
    Q.Command = "where 0";
    std::vector<uint8_t> P = payloadOf(Q);
    ASSERT_TRUE(sendFrame(Fd, P.data(), P.size()));
  }
  Request Shut;
  Shut.Type = MsgType::Shutdown;
  Shut.RequestId = 2000;
  std::vector<uint8_t> P = payloadOf(Shut);
  ASSERT_TRUE(sendFrame(Fd, P.data(), P.size()));

  // Graceful drain: every query sent ahead of the shutdown is answered,
  // in order, before the ShutdownAck — nothing accepted is dropped.
  std::string FirstText;
  for (unsigned I = 0; I != NumPipelined; ++I) {
    std::vector<uint8_t> Frame;
    ASSERT_TRUE(recvFrame(Fd, Frame)) << "response " << I << " lost";
    Response R;
    ASSERT_TRUE(decodeResponse(Frame.data(), Frame.size(), R));
    ASSERT_EQ(int(R.Type), int(RespType::Result)) << "response " << I;
    EXPECT_EQ(R.RequestId, 1000 + I);
    if (I == 0)
      FirstText = R.Text;
    else
      EXPECT_EQ(R.Text, FirstText) << "identical queries, identical answers";
  }
  std::vector<uint8_t> AckFrame;
  ASSERT_TRUE(recvFrame(Fd, AckFrame));
  Response Ack;
  ASSERT_TRUE(decodeResponse(AckFrame.data(), AckFrame.size(), Ack));
  EXPECT_EQ(int(Ack.Type), int(RespType::ShutdownAck));
  EXPECT_EQ(Ack.RequestId, 2000u);
  ::close(Fd);
  Conn.disconnect();

  EXPECT_EQ(Server.waitExit(), 0) << "clean shutdown exits 0";
}

TEST(ServerE2eTest, MalformedStreamGetsErrorFrameNotCrash) {
  ServerProcess Server;
  ASSERT_TRUE(Server.start());

  ClientConnection Probe;
  ASSERT_TRUE(Server.connectWithRetry(Probe));
  Probe.disconnect();

  // A garbage (but length-sane) frame: the server answers BadFrame and
  // drops the connection without dying.
  int Fd = connectUnix(Server.SocketPath);
  ASSERT_GE(Fd, 0);
  std::vector<uint8_t> Garbage(32, 0xee);
  ASSERT_TRUE(sendFrame(Fd, Garbage.data(), Garbage.size()));
  std::vector<uint8_t> Frame;
  ASSERT_TRUE(recvFrame(Fd, Frame));
  Response R;
  ASSERT_TRUE(decodeResponse(Frame.data(), Frame.size(), R));
  EXPECT_EQ(int(R.Type), int(RespType::Error));
  EXPECT_EQ(int(R.Code), int(ErrCode::BadFrame));
  ::close(Fd);

  // The server is still alive and serving.
  ClientConnection Conn;
  ASSERT_TRUE(Conn.connect(Server.SocketPath));
  Request Shut;
  Shut.Type = MsgType::Shutdown;
  Response Ack;
  ASSERT_TRUE(Conn.roundTrip(Shut, Ack));
  EXPECT_EQ(int(Ack.Type), int(RespType::ShutdownAck));
  Conn.disconnect();
  EXPECT_EQ(Server.waitExit(), 0);
}

TEST(ServerE2eTest, TcpListenerServesAndDrainsCleanly) {
  // `ppd serve --tcp 127.0.0.1:0` picks an ephemeral port and prints it;
  // the test parses the child's stdout for the port, then runs a full
  // session over TCP — the unix listener stays usable on the same
  // server — and shuts down over TCP.
  ServerProcess Server;
  ASSERT_TRUE(Server.start(/*WithTcp=*/true));
  uint16_t Port = Server.awaitTcpPort();
  ASSERT_NE(Port, 0) << "server never announced its TCP port";

  std::string Endpoint = "tcp:127.0.0.1:" + std::to_string(Port);
  ClientConnection Conn;
  ASSERT_TRUE(Conn.connect(Endpoint));

  Request Req;
  Response Resp;
  Req.Type = MsgType::OpenSession;
  ASSERT_TRUE(Conn.roundTrip(Req, Resp));
  ASSERT_EQ(int(Resp.Type), int(RespType::SessionOpened));
  uint64_t Session = Resp.SessionId;

  Req = Request();
  Req.Type = MsgType::Query;
  Req.SessionId = Session;
  Req.Command = "restore 0 2";
  ASSERT_TRUE(Conn.roundTrip(Req, Resp));
  EXPECT_EQ(int(Resp.Type), int(RespType::Result));
  EXPECT_NE(Resp.Text.find("total = 42"), std::string::npos);

  // Both listeners front one server: the TCP session answers over unix.
  ClientConnection Unix;
  ASSERT_TRUE(Unix.connect(Server.SocketPath));
  Req = Request();
  Req.Type = MsgType::Query;
  Req.SessionId = Session;
  Req.Command = "where 0";
  ASSERT_TRUE(Unix.roundTrip(Req, Resp));
  EXPECT_EQ(int(Resp.Type), int(RespType::Result));
  Unix.disconnect();

  Request Shut;
  Shut.Type = MsgType::Shutdown;
  ASSERT_TRUE(Conn.roundTrip(Shut, Resp));
  EXPECT_EQ(int(Resp.Type), int(RespType::ShutdownAck));
  Conn.disconnect();
  EXPECT_EQ(Server.waitExit(), 0) << "clean shutdown exits 0";
}

// Four workers with a logged call per loop iteration: the last worker's
// log section sits far past the end of any log the small program writes.
const char *BigSource = R"(
shared int acc;
sem m = 1;
chan done;
func step(int x) { return x * 3 + 1; }
func worker(int base) {
  int i = 0;
  int local = 0;
  for (i = 0; i < 1000; i = i + 1) local = local + step(base + i);
  P(m);
  acc = acc + local;
  V(m);
  send(done, local);
}
func main() {
  spawn worker(1);
  spawn worker(2);
  spawn worker(3);
  spawn worker(4);
  int s = 0;
  int k = 0;
  for (k = 0; k < 4; k = k + 1) s = s + recv(done);
  print(s + acc);
}
)";

TEST(ServerE2eTest, ResavingAServedLogKeepsAnswersAndExitsCleanly) {
  // `ppd run --save-log` over the log a paged server has open must not
  // pull the file out from under the server's mapping: the save replaces
  // the file by rename, and the server keeps answering from the log it
  // opened.
  std::string Base = tempBase();
  std::string BigPath = Base + "-big.ppl";
  std::string SmallPath = Base + "-small.ppl";
  std::string LogPath = Base + ".log";
  ASSERT_TRUE(writeFile(BigPath, BigSource));
  ASSERT_TRUE(writeFile(SmallPath, E2eSource));
  ASSERT_EQ(runTool({"run", BigPath, "--save-log", LogPath}), 0);

  const std::vector<std::string> Script = {"where 4", "back", "where 1",
                                           "races"};
  std::vector<std::string> Before;
  {
    ServerProcess Server;
    ASSERT_TRUE(Server.start(false, BigSource, {"--log", LogPath}));
    ClientConnection Conn;
    ASSERT_TRUE(Server.connectWithRetry(Conn));
    Before = querySession(Conn, Script);
    ASSERT_EQ(Before.size(), Script.size());
    ASSERT_TRUE(requestShutdown(Conn));
    Conn.disconnect();
    EXPECT_EQ(Server.waitExit(), 0);
  }

  ServerProcess Server;
  ASSERT_TRUE(Server.start(false, BigSource, {"--log", LogPath}));
  ClientConnection Conn;
  ASSERT_TRUE(Server.connectWithRetry(Conn));
  // A shorter log saved over the served one.
  ASSERT_EQ(runTool({"run", SmallPath, "--save-log", LogPath}), 0);

  EXPECT_EQ(querySession(Conn, Script), Before);
  EXPECT_TRUE(requestShutdown(Conn));
  Conn.disconnect();
  EXPECT_EQ(Server.waitExit(), 0) << "clean shutdown exits 0";

  for (const std::string &Path :
       {BigPath, SmallPath, LogPath, LogPath + ".ppdb"})
    ::unlink(Path.c_str());
}

TEST(ServerE2eTest, LogTruncatedUnderServerAnswersLogUnreadable) {
  // `: > t.log` under a paged server: the next section fault finds the
  // file changed since open and answers a typed LogUnreadable error —
  // the server neither dies nor answers from a partial graph. Another
  // program on the same server keeps answering, and shutdown exits 0.
  std::string Base = tempBase();
  std::string BigPath = Base + "-big.ppl";
  std::string SmallPath = Base + "-small.ppl";
  std::string LogPath = Base + ".log";
  ASSERT_TRUE(writeFile(BigPath, BigSource));
  ASSERT_TRUE(writeFile(SmallPath, E2eSource));
  ASSERT_EQ(runTool({"run", BigPath, "--save-log", LogPath}), 0);

  ServerProcess Server;
  ASSERT_TRUE(Server.start(false, BigSource,
                           {"--log", LogPath, "--program", SmallPath}));
  ClientConnection Conn;
  ASSERT_TRUE(Server.connectWithRetry(Conn));
  ASSERT_EQ(::truncate(LogPath.c_str(), 0), 0);

  for (const char *Cmd : {"where 0", "races"}) {
    Response Resp = queryProgram(Conn, 0, Cmd);
    EXPECT_EQ(int(Resp.Type), int(RespType::Error)) << Cmd;
    EXPECT_EQ(int(Resp.Code), int(ErrCode::LogUnreadable)) << Cmd;
    EXPECT_NE(Resp.Text.find("changed since it was opened"),
              std::string::npos)
        << Resp.Text;
  }
  Response Other = queryProgram(Conn, 1, "where 0");
  EXPECT_EQ(int(Other.Type), int(RespType::Result));
  EXPECT_NE(Other.Text.find("print(total)"), std::string::npos)
      << Other.Text;

  EXPECT_TRUE(requestShutdown(Conn));
  Conn.disconnect();
  EXPECT_EQ(Server.waitExit(), 0) << "clean shutdown exits 0";

  for (const std::string &Path :
       {BigPath, SmallPath, LogPath, LogPath + ".ppdb"})
    ::unlink(Path.c_str());
}

} // namespace
