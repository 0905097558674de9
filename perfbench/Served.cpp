//===- perfbench/Served.cpp - The served variant of an episode ------------===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//

#include "Served.h"

#include "Episode.h"

#include "log/PageStore.h"
#include "log/ProgramDb.h"
#include "server/DebugServer.h"
#include "server/Wire.h"
#include "stream/StreamClient.h"
#include "vm/Machine.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace ppd;

namespace perfbench {

namespace {

/// Encodes \p Req as one frame (length prefix included).
std::vector<uint8_t> encodeFrame(const Request &Req) {
  LogWriter W;
  encodeRequest(Req, W);
  return std::vector<uint8_t>(W.data(), W.data() + W.size());
}

/// Pulls "<Key> <number>" out of the server's stats text.
uint64_t statField(const std::string &Text, const std::string &Key) {
  size_t At = Text.find(Key + " ");
  if (At == std::string::npos)
    return 0;
  return std::strtoull(Text.c_str() + At + Key.size() + 1, nullptr, 10);
}


bool expectedType(MsgType Sent, RespType Got) {
  switch (Sent) {
  case MsgType::OpenSession:
    return Got == RespType::SessionOpened;
  case MsgType::CloseSession:
    return Got == RespType::Closed;
  case MsgType::Stats:
    return Got == RespType::StatsText;
  default:
    return Got == RespType::Result;
  }
}

/// Exchanges per connection kept for the byte-equality check (a prefix
/// of the connection's sequence, so session state replays exactly).
constexpr size_t MaxRecorded = 500;

/// A query connection repeats the `ppd client` session README.md shows:
/// `where 0`, `back`, `races`, `stats`, close, open. `back` goes as a
/// Step and `races` as a Races message; the server runs the same commands
/// for them as for the query text. The set-up opened the first session.
/// This is the documented session, not measured user traffic.
constexpr MsgType SessionScript[] = {MsgType::Query,        MsgType::Step,
                                     MsgType::Races,        MsgType::Stats,
                                     MsgType::CloseSession, MsgType::OpenSession};

void queryLoop(RawClient &Client, uint64_t &Sid, size_t &Pos,
               uint64_t DeadlineNs, SpanBuffer *Spans,
               std::vector<Exchange> &Recorded, std::vector<double> &Us,
               uint64_t &RespBytes, uint64_t &Attempted, uint64_t &Failed) {
  while (nowNs() < DeadlineNs) {
    Request Req;
    Req.Type = SessionScript[Pos];
    Pos = (Pos + 1) % std::size(SessionScript);
    if (Req.Type != MsgType::OpenSession)
      Req.SessionId = Sid;
    if (Req.Type == MsgType::Query)
      Req.Command = "where 0";
    Req.Direction = 0; // a Step goes back
    Exchange X;
    Response Resp;
    ++Attempted;
    uint64_t T0 = nowNs();
    bool Ok;
    {
      SpanScope S(Spans, "server.round_trip");
      Ok = Client.roundTrip(Req, Resp, X.Payload);
    }
    Us.push_back(double(nowNs() - T0) / 1e3);
    if (!Ok || !expectedType(Req.Type, Resp.Type)) {
      ++Failed;
      return;
    }
    RespBytes += X.Payload.size() + 4;
    if (Req.Type == MsgType::OpenSession)
      Sid = Resp.SessionId;
    if (Req.Type != MsgType::Stats && Recorded.size() < MaxRecorded) {
      X.Req = Req;
      Recorded.push_back(std::move(X));
    }
  }
}

struct StreamTotals {
  std::vector<double> RunMs;
  uint64_t Cuts = 0, StallMicros = 0, Tails = 0;
  double WallMicros = 0;
  uint64_t Attempted = 0, Failed = 0;
  std::string Error;
};

/// One `where 0` TailQuery on stream \p Sid; false on any failure.
bool tailQuery(RawClient &Tail, uint64_t Sid, SpanBuffer *Spans,
               StreamTotals &Out) {
  SpanScope S(Spans, "stream.tail_query");
  Request Req;
  Req.Type = MsgType::TailQuery;
  Req.StreamId = Sid;
  Req.Command = "where 0";
  Response Resp;
  std::vector<uint8_t> Payload;
  ++Out.Tails;
  ++Out.Attempted;
  if (Tail.roundTrip(Req, Resp, Payload) && Resp.Type == RespType::Result)
    return true;
  ++Out.Failed;
  return false;
}

/// The streaming client's share of a slice: one streamed (live-attach)
/// run with the sealer's default section size, checked against the batch
/// log's bytes, then TailQuerys on the ended stream until \p DeadlineNs,
/// so the client stays in the closed loop. Only one run per slice: the
/// server keeps every ended stream in memory, so more would grow it
/// without bound.
void streamSlice(const ServedFiles &Files, RawClient &Tail,
                 const CompiledProgram &Prog,
                 const std::vector<uint8_t> &BatchBytes, uint64_t DeadlineNs,
                 SpanBuffer *Spans, StreamTotals &Out) {
  ++Out.Attempted;
  stream::StreamClientOptions Opts;
  Opts.SocketPath = Files.Socket;
  Opts.Sealer.ProgramIndex = 0;
  Opts.Sealer.ProgramHash = programHash(Prog);
  stream::StreamClient Client(Opts);
  bool Ok = true;
  uint64_t T0 = nowNs();
  {
    SpanScope S(Spans, "stream.run");
    Ok = Client.start();
    if (Ok) {
      Machine M(Prog, MachineOptions{});
      uint64_t LastTailCut = 0;
      M.onRound([&](Machine &Mach) {
        Client.pollRound(Mach.log());
        // After each new cut, ask about the live frontier.
        if (!Ok || Client.cutsSealed() == LastTailCut)
          return;
        LastTailCut = Client.cutsSealed();
        Ok = tailQuery(Tail, Client.streamId(), Spans, Out);
      });
      M.run();
      Ok = Client.finish(M.log()) && Ok;
    }
  }
  double Micros = double(nowNs() - T0) / 1e3;
  if (!Ok) {
    ++Out.Failed;
    Out.Error = "streamed run failed: " + Client.error();
    return;
  }
  Out.RunMs.push_back(Micros / 1e3);
  Out.WallMicros += Micros;
  Out.Cuts += Client.cutsSealed();
  Out.StallMicros += Client.stallMicros();

  std::string Final = Files.SpillDir + "/stream-" +
                      std::to_string(Client.streamId()) + ".ppdlog";
  std::vector<uint8_t> Streamed;
  if (!readFileBytes(Final, Streamed) || Streamed != BatchBytes) {
    ++Out.Failed;
    Out.Error = "streamed final log differs from the batch log";
    return;
  }
  // Spill files of finished streams are no longer needed.
  std::string Prefix = "stream-" + std::to_string(Client.streamId()) + ".";
  std::error_code Ec;
  for (const auto &Entry :
       std::filesystem::directory_iterator(Files.SpillDir, Ec))
    if (Entry.path().filename().string().rfind(Prefix, 0) == 0)
      std::filesystem::remove(Entry.path(), Ec);

  while (nowNs() < DeadlineNs)
    if (!tailQuery(Tail, Client.streamId(), Spans, Out)) {
      Out.Error = "a TailQuery on an ended stream failed";
      return;
    }
}

} // namespace

RawClient::~RawClient() {
  if (Fd >= 0)
    ::close(Fd);
}

bool RawClient::connect(const std::string &Socket) {
  Fd = connectEndpoint(Socket);
  return Fd >= 0;
}

bool RawClient::roundTrip(Request &Req, Response &Resp,
                          std::vector<uint8_t> &Payload) {
  if (Fd < 0)
    return false;
  Req.RequestId = NextId++;
  std::vector<uint8_t> Frame = encodeFrame(Req);
  if (!sendFrame(Fd, Frame.data() + 4, Frame.size() - 4) ||
      !recvFrame(Fd, Payload) ||
      !decodeResponse(Payload.data(), Payload.size(), Resp) ||
      Resp.RequestId != Req.RequestId) {
    ::close(Fd);
    Fd = -1;
    return false;
  }
  return true;
}

bool RawClient::openSession(uint64_t &Sid, Exchange &Out) {
  Request Req;
  Req.Type = MsgType::OpenSession;
  Response Resp;
  std::vector<uint8_t> Payload;
  if (!roundTrip(Req, Resp, Payload) || Resp.Type != RespType::SessionOpened)
    return false;
  Sid = Resp.SessionId;
  Out = {Req, std::move(Payload)};
  return true;
}

ServedRig::~ServedRig() {
  if (Pid > 0) {
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, nullptr, 0);
  }
}

bool ServedRig::start(const ServedFiles &F, unsigned QueryConns,
                      std::string &Error) {
  Files = F;
  std::error_code Ec;
  std::filesystem::create_directories(Files.SpillDir, Ec);
  std::vector<std::string> Args = {
      Files.PpdBinary, "serve",           Files.Source,   "--log",
      Files.Log,       "--socket",        Files.Socket,   "--spill-dir",
      Files.SpillDir,  "--server-threads", "3",           "--max-sessions",
      "64"};
  pid_t Child = ::fork();
  if (Child < 0) {
    Error = "fork failed";
    return false;
  }
  if (Child == 0) {
    // The server must not outlive the benchmark.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    int Out = ::open(Files.ServerOut.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                     0644);
    if (Out >= 0) {
      ::dup2(Out, 1);
      ::dup2(Out, 2);
      ::close(Out);
    }
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    ::execv(Argv[0], Argv.data());
    ::_exit(127);
  }
  Pid = Child;
  // Ready when a connection is accepted and answers.
  uint64_t Deadline = nowNs() + 60'000'000'000ull;
  bool Ready = false;
  while (!Ready && nowNs() < Deadline) {
    int Status = 0;
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      Pid = -1;
      Error = "ppd serve exited during start-up (see " + Files.ServerOut +
              ")";
      return false;
    }
    RawClient Probe;
    Request Req;
    Req.Type = MsgType::Stats;
    Response Resp;
    std::vector<uint8_t> Payload;
    Ready = Probe.connect(Files.Socket) &&
            Probe.roundTrip(Req, Resp, Payload) &&
            Resp.Type == RespType::StatsText;
    if (!Ready)
      ::usleep(2000);
  }
  if (!Ready) {
    Error = "ppd serve did not accept connections";
    return false;
  }
  for (unsigned I = 0; I != QueryConns; ++I) {
    Query.push_back(std::make_unique<RawClient>());
    Sessions.push_back(0);
    ScriptPos.push_back(0);
    Opens.emplace_back();
    if (!Query.back()->connect(Files.Socket) ||
        !Query.back()->openSession(Sessions.back(), Opens.back())) {
      Error = "cannot open a session on the served program";
      return false;
    }
  }
  if (!Tail.connect(Files.Socket)) {
    Error = "cannot connect the tail client";
    return false;
  }
  return true;
}

double ServedRig::serverPeakRssMb() const {
  if (Pid <= 0)
    return 0;
  std::ifstream Status("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

bool ServedRig::stop() {
  if (Pid <= 0)
    return false;
  RawClient Admin;
  Request Req;
  Req.Type = MsgType::Shutdown;
  Response Resp;
  std::vector<uint8_t> Payload;
  if (Admin.connect(Files.Socket))
    Admin.roundTrip(Req, Resp, Payload);
  Query.clear();
  uint64_t Deadline = nowNs() + 10'000'000'000ull;
  int Status = 0;
  while (nowNs() < Deadline) {
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      Pid = -1;
      return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
    }
    ::usleep(2000);
  }
  ::kill(Pid, SIGKILL);
  ::waitpid(Pid, nullptr, 0);
  Pid = -1;
  return false;
}

void runServed(ServedRig &Rig, const CompiledProgram &Prog, double Seconds,
               Tracer &Trace, ServedResult &R) {
  auto Fail = [&R](const std::string &Why) {
    if (R.Correct)
      R.Error = Why;
    R.Correct = false;
  };
  std::vector<uint8_t> BatchBytes;
  if (!readFileBytes(Rig.files().Log, BatchBytes))
    return Fail("cannot read the batch log");
  const size_t N = Rig.Query.size();
  std::vector<std::vector<double>> Us(N);
  std::vector<uint64_t> Bytes(N, 0), Attempted(N, 0), Failed(N, 0);
  R.Recorded.resize(N);
  StreamTotals Stream;

  uint64_t Start = nowNs();
  uint64_t Deadline = Start + uint64_t(Seconds * 1e9);
  std::vector<std::thread> Threads;
  for (size_t I = 0; I != N; ++I) {
    SpanBuffer *Spans = Trace.enabled() ? Trace.newBuffer() : nullptr;
    Threads.emplace_back([&, I, Spans] {
      queryLoop(*Rig.Query[I], Rig.Sessions[I], Rig.ScriptPos[I], Deadline,
                Spans, R.Recorded[I], Us[I], Bytes[I], Attempted[I],
                Failed[I]);
    });
  }
  SpanBuffer *StreamSpans = Trace.enabled() ? Trace.newBuffer() : nullptr;
  Threads.emplace_back([&, StreamSpans] {
    streamSlice(Rig.files(), Rig.Tail, Prog, BatchBytes, Deadline,
                StreamSpans, Stream);
  });
  for (std::thread &T : Threads)
    T.join();
  R.SliceSeconds.push_back(double(nowNs() - Start) / 1e9);

  R.SliceUs.emplace_back();
  for (size_t I = 0; I != N; ++I) {
    R.RequestUs.insert(R.RequestUs.end(), Us[I].begin(), Us[I].end());
    R.SliceUs.back().insert(R.SliceUs.back().end(), Us[I].begin(),
                            Us[I].end());
    R.RespBytes += Bytes[I];
    R.Attempted += Attempted[I];
    R.Failed += Failed[I];
  }
  R.StreamRunMs.insert(R.StreamRunMs.end(), Stream.RunMs.begin(),
                       Stream.RunMs.end());
  R.Cuts += Stream.Cuts;
  R.StallMicros += Stream.StallMicros;
  R.StreamWallMicros += Stream.WallMicros;
  R.TailQueries += Stream.Tails;
  R.Attempted += Stream.Attempted;
  R.Failed += Stream.Failed;
  if (!Stream.Error.empty())
    Fail(Stream.Error);
  else if (R.Failed != 0)
    Fail("a served request failed or got an unexpected response type");
}

void readServerStats(ServedRig &Rig, ServedResult &R) {
  Request Req;
  Req.Type = MsgType::Stats;
  Response Resp;
  std::vector<uint8_t> Payload;
  if (!Rig.Query.empty() && Rig.Query[0]->roundTrip(Req, Resp, Payload)) {
    const std::string &T = Resp.Text;
    R.SrvRequests = statField(T, "server: requests");
    R.SrvBusy = statField(T, "busy");
    R.SrvErrors = statField(T, "errors");
    R.SrvTimeouts = statField(T, "timeouts");
    R.ConnsAccepted = statField(T, "accepted");
    R.ConnsPeak = statField(T, "peak");
    R.IngestBytes = statField(T, "bytes");
    R.CreditStalls = statField(T, "credit stalls");
  }
}

std::vector<double> checkServed(const ServedResult &Served,
                                const std::vector<Exchange> &Opens,
                                const std::string &Source,
                                const std::string &LogPath,
                                SpanBuffer *Spans, std::string &Error) {
  std::vector<double> Us;
  std::string CompileError;
  auto Prog = compileSource(Source, true, CompileError);
  auto Store = Prog ? PageStore::open(LogPath, &Error) : nullptr;
  if (!Store) {
    Error = "in-process reference server: cannot load the program or log";
    return Us;
  }
  std::shared_ptr<const LogIndex> Index;
  std::shared_ptr<const ParallelDynamicGraph> Graph;
  if (readProgramDb(programDbPathFor(LogPath), *Prog, *Store, Index,
                    &Graph) != ProgramDbStatus::Ok) {
    Error = "in-process reference server: .ppdb not warm";
    return Us;
  }
  DebugServer Server;
  Server.addProgram(std::move(Prog), PagedLog{std::move(Store), nullptr},
                    std::move(Index), std::move(Graph));

  // Session ids differ between the two servers; map served → local.
  std::map<uint64_t, uint64_t> Local;
  auto Replay = [&](const Exchange &X) {
    Request Req = X.Req;
    if (Req.Type != MsgType::OpenSession)
      Req.SessionId = Local[Req.SessionId];
    std::vector<uint8_t> Frame = encodeFrame(Req);
    uint64_t T0 = nowNs();
    std::vector<uint8_t> Answer;
    {
      SpanScope S(Spans, "server.handle_frame");
      Answer = Server.handleFrame(Frame.data() + 4, Frame.size() - 4);
    }
    Us.push_back(double(nowNs() - T0) / 1e3);
    Response Served, Mine;
    if (Answer.size() < 4 ||
        !decodeResponse(X.Payload.data(), X.Payload.size(), Served) ||
        !decodeResponse(Answer.data() + 4, Answer.size() - 4, Mine))
      return false;
    if (Req.Type == MsgType::OpenSession) {
      Local[Served.SessionId] = Mine.SessionId;
      return Mine.Type == RespType::SessionOpened;
    }
    return Answer.size() - 4 == X.Payload.size() &&
           std::memcmp(Answer.data() + 4, X.Payload.data(),
                       X.Payload.size()) == 0;
  };
  for (size_t I = 0; I != Served.Recorded.size(); ++I) {
    if (I < Opens.size() && !Replay(Opens[I])) {
      Error = "in-process OpenSession differs";
      return Us;
    }
    for (const Exchange &X : Served.Recorded[I])
      if (!Replay(X)) {
        Error = "served response differs from in-process handleFrame";
        return Us;
      }
  }
  return Us;
}

} // namespace perfbench
