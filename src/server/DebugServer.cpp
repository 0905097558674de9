//===- server/DebugServer.cpp ---------------------------------------------===//
//
// Part of PPD. See DebugServer.h.
//
//===----------------------------------------------------------------------===//

#include "server/DebugServer.h"

#include <chrono>

using namespace ppd;

DebugServer::DebugServer(DebugServerOptions Options)
    : Options(Options),
      Registry(std::make_unique<SessionRegistry>(Options.Registry)) {
  RequestSchedulerOptions SOpts;
  SOpts.Threads = Options.Threads;
  SOpts.QueueLimit = Options.QueueLimit;
  SOpts.TimeoutMs = Options.TimeoutMs;
  Scheduler = std::make_unique<RequestScheduler>(SOpts);
}

DebugServer::~DebugServer() { drain(); }

uint32_t DebugServer::addProgram(std::unique_ptr<CompiledProgram> Prog,
                                 const ExecutionLog &Log) {
  return Registry->addProgram(std::move(Prog), Log);
}

uint32_t DebugServer::addProgram(
    std::unique_ptr<CompiledProgram> Prog, PagedLog Paged,
    std::shared_ptr<const LogIndex> Index,
    std::shared_ptr<const ParallelDynamicGraph> Graph) {
  return Registry->addProgram(std::move(Prog), std::move(Paged),
                              std::move(Index), std::move(Graph));
}

void DebugServer::drain() { Scheduler->drain(); }

bool DebugServer::shuttingDown() const {
  std::lock_guard<std::mutex> Lock(ShutdownMutex);
  return ShutdownRequested;
}

void DebugServer::onShutdown(std::function<void()> Hook) {
  std::lock_guard<std::mutex> Lock(ShutdownMutex);
  ShutdownHook = std::move(Hook);
}

Response DebugServer::dispatch(const Request &Req) {
  Response Resp;
  Resp.RequestId = Req.RequestId;

  auto Fail = [&](ErrCode Code, std::string Msg) {
    Resp.Type = RespType::Error;
    Resp.Code = Code;
    Resp.Text = std::move(Msg);
    Metrics.countError();
    return Resp;
  };

  switch (Req.Type) {
  case MsgType::OpenSession: {
    if (Options.IdleEvictTicks != 0)
      Registry->evictIdle(Options.IdleEvictTicks);
    if (Req.ProgramIndex >= Registry->numPrograms())
      return Fail(ErrCode::NoSuchProgram,
                  "no program " + std::to_string(Req.ProgramIndex));
    uint64_t Id = Registry->open(Req.ProgramIndex);
    if (Id == 0)
      return Fail(ErrCode::TooManySessions, "session limit reached");
    Resp.Type = RespType::SessionOpened;
    Resp.SessionId = Id;
    return Resp;
  }

  case MsgType::Query:
  case MsgType::Step:
  case MsgType::Races: {
    SessionRegistry::Handle S = Registry->acquire(Req.SessionId);
    if (!S)
      return Fail(ErrCode::NoSuchSession,
                  "no session " + std::to_string(Req.SessionId));
    std::string Cmd;
    if (Req.Type == MsgType::Query)
      Cmd = Req.Command;
    else if (Req.Type == MsgType::Step)
      Cmd = Req.Direction == 0 ? "back" : "fwd";
    else
      Cmd = "races";
    std::string Text, Failure;
    {
      // One command at a time per session: DebugSession is stateful
      // (focused node), so whole commands are the interleaving unit.
      std::lock_guard<std::mutex> Lock(S->Mutex);
      Text = S->Debug->execute(Cmd);
      Failure = S->Controller->logFailure();
    }
    if (!Failure.empty())
      return Fail(ErrCode::LogUnreadable, std::move(Failure));
    Resp.Type = RespType::Result;
    Resp.Text = std::move(Text);
    return Resp;
  }

  case MsgType::Stats: {
    if (Req.SessionId == 0) {
      Resp.Type = RespType::StatsText;
      Resp.Text = metricsReport();
      return Resp;
    }
    SessionRegistry::Handle S = Registry->acquire(Req.SessionId);
    if (!S)
      return Fail(ErrCode::NoSuchSession,
                  "no session " + std::to_string(Req.SessionId));
    std::string Text;
    {
      std::lock_guard<std::mutex> Lock(S->Mutex);
      Text = S->Debug->execute("stats");
    }
    Resp.Type = RespType::StatsText;
    Resp.Text = std::move(Text);
    return Resp;
  }

  case MsgType::CloseSession:
    if (!Registry->close(Req.SessionId))
      return Fail(ErrCode::NoSuchSession,
                  "no session " + std::to_string(Req.SessionId));
    Resp.Type = RespType::Closed;
    return Resp;

  case MsgType::StreamHello:
  case MsgType::SectionData:
  case MsgType::StreamEnd:
  case MsgType::TailQuery:
  case MsgType::Frontier: {
    if (!StreamDispatcher)
      return Fail(ErrCode::NoSuchStream, "streaming ingest not enabled");
    Response StreamResp = StreamDispatcher(Req);
    StreamResp.RequestId = Req.RequestId;
    if (StreamResp.Type == RespType::Error)
      Metrics.countError();
    return StreamResp;
  }

  case MsgType::Shutdown: {
    std::function<void()> Hook;
    {
      std::lock_guard<std::mutex> Lock(ShutdownMutex);
      if (!ShutdownRequested) {
        ShutdownRequested = true;
        Hook = std::move(ShutdownHook);
      }
    }
    if (Hook)
      Hook();
    Resp.Type = RespType::ShutdownAck;
    return Resp;
  }
  }
  return Fail(ErrCode::UnknownType, "unhandled message type");
}

Response DebugServer::handle(const Request &Req) {
  Metrics.countRequest(Req.Type);
  auto Start = std::chrono::steady_clock::now();
  Response Resp = dispatch(Req);
  Metrics.recordLatency(uint64_t(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Start)
          .count()));
  return Resp;
}

std::vector<uint8_t> DebugServer::encodeFrameBytes(const Response &Resp) {
  LogWriter W;
  encodeResponse(Resp, W);
  return std::vector<uint8_t>(W.data(), W.data() + W.size());
}

std::vector<uint8_t> DebugServer::handleFrame(const uint8_t *Data,
                                              size_t Size) {
  Request Req;
  if (!decodeRequest(Data, Size, Req)) {
    Metrics.countMalformed();
    Response Resp;
    Resp.Type = RespType::Error;
    // Best-effort RequestId recovery so pipelining clients can correlate:
    // the id field sits at a fixed offset when at least the header made
    // it through.
    if (Size >= 10) {
      ByteReader R(Data, Size);
      R.u8();
      R.u8();
      Resp.RequestId = R.u64();
    }
    Resp.Code = ErrCode::BadFrame;
    Resp.Text = "malformed frame";
    Metrics.countError();
    return encodeFrameBytes(Resp);
  }
  return encodeFrameBytes(handle(Req));
}

void DebugServer::submitFrame(
    std::vector<uint8_t> Payload,
    std::function<void(std::vector<uint8_t>)> Done) {
  // Decode up front: malformed input must be answered (and counted)
  // without consuming queue space, and decoding is cheap next to replay.
  Request Req;
  if (!decodeRequest(Payload.data(), Payload.size(), Req)) {
    Done(handleFrame(Payload.data(), Payload.size()));
    return;
  }

  // Stream ingest frames are order-sensitive (a cut's SectionData frames
  // must apply in ship order) and their per-connection TCP ordering is
  // exactly what the reader thread sees: handle them inline instead of
  // letting the scheduler's pool race them. Tail queries have no ordering
  // contract and go through the queue like any debug request.
  if (Req.Type == MsgType::StreamHello || Req.Type == MsgType::SectionData ||
      Req.Type == MsgType::StreamEnd) {
    Done(encodeFrameBytes(handle(Req)));
    return;
  }

  // Shared holder: the completion callback is needed both inside the
  // admitted task and on the rejection path after submit() declined it.
  auto DoneFn =
      std::make_shared<std::function<void(std::vector<uint8_t>)>>(
          std::move(Done));

  uint64_t RequestId = Req.RequestId;
  Metrics.noteQueueDepth(Scheduler->inFlight() + 1);
  RequestScheduler::Admission Verdict = Scheduler->submit(
      [this, Req = std::move(Req), DoneFn](bool TimedOut) {
        if (TimedOut) {
          Metrics.countRequest(Req.Type);
          Metrics.countTimeout();
          Response Resp;
          Resp.Type = RespType::Error;
          Resp.RequestId = Req.RequestId;
          Resp.Code = ErrCode::Timeout;
          Resp.Text = "request expired in queue";
          Metrics.countError();
          (*DoneFn)(encodeFrameBytes(Resp));
          return;
        }
        (*DoneFn)(encodeFrameBytes(handle(Req)));
      });

  if (Verdict == RequestScheduler::Admission::Accepted)
    return;
  Response Resp;
  Resp.RequestId = RequestId;
  if (Verdict == RequestScheduler::Admission::Busy) {
    Metrics.countBusy();
    Resp.Type = RespType::Busy;
  } else {
    Resp.Type = RespType::Error;
    Resp.Code = ErrCode::ShuttingDown;
    Resp.Text = "server is shutting down";
    Metrics.countError();
  }
  (*DoneFn)(encodeFrameBytes(Resp));
}

std::string DebugServer::metricsReport() const {
  return Metrics.render(
      renderReplayServiceStats(Registry->aggregateReplayStats()));
}
