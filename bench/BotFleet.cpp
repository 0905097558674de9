//===- bench/BotFleet.cpp -------------------------------------------------===//
//
// Part of PPD. See BotFleet.h.
//
//===----------------------------------------------------------------------===//

#include "BotFleet.h"

#include "server/EventDispatcher.h"
#include "server/Protocol.h"
#include "server/ServerMetrics.h"
#include "server/Wire.h"

#include <cerrno>
#include <chrono>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace ppd;
using namespace ppd::bench;

namespace {

/// Connects started per 10 ms tick.
constexpr unsigned ConnectBatch = 512;
/// Whole-fleet deadline; leftover bots make the run an error.
constexpr uint64_t DeadlineMs = 120000;

uint64_t nowMicros() {
  return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

struct Bot {
  enum class State : uint8_t {
    Idle,       ///< not started yet.
    Connecting, ///< non-blocking connect in flight.
    Opening,    ///< OpenSession sent, awaiting SessionOpened.
    Querying,   ///< a query in flight.
    Holding,    ///< script done, keeping the session live.
    Closing,    ///< CloseSession sent, awaiting Closed.
    Done,
    Failed,
  };

  State St = State::Idle;
  int Fd = -1;
  FrameReader Frames;
  std::vector<uint8_t> WriteBuf;
  size_t WriteOff = 0;
  bool WantWrite = false;
  uint64_t SessionId = 0;
  uint64_t NextRequestId = 1;
  uint64_t PendingRequestId = 0;
  unsigned QueriesDone = 0;
  unsigned Retries = 0;
  uint64_t SendTimeUs = 0;
};

class BotFleet {
public:
  explicit BotFleet(const BotFleetOptions &Options) : Opts(Options) {}
  BotFleetResult run();

private:
  void tick();
  void startBot(size_t I);
  void retryConnect(size_t I);
  void onBotEvent(size_t I, uint32_t Events);
  void onConnected(size_t I);
  void readBot(size_t I);
  void handleResponse(size_t I, const Response &Resp);
  void sendRequest(size_t I, Request Req);
  void resend(size_t I);
  void flushBot(size_t I);
  void finishQueries(size_t I);
  void completeBot(size_t I);
  void failBot(size_t I, const char *Why);
  void releaseHolders();
  void checkDone();
  void dropSocket(Bot &B);

  BotFleetOptions Opts;
  sockaddr_in Addr{}; ///< Opts.Address, resolved once.
  EventDispatcher Loop;
  std::vector<Bot> Bots;
  LatencyHistogram Latency;
  BotFleetResult Result;
  size_t Started = 0;
  uint64_t Completed = 0; ///< bots through the full script.
  uint64_t CurConnected = 0;
  uint64_t FinishedQueries = 0;
  bool Releasing = false;
};

void BotFleet::dropSocket(Bot &B) {
  if (B.Fd >= 0) {
    Loop.remove(B.Fd);
    ::close(B.Fd);
    B.Fd = -1;
  }
}

void BotFleet::startBot(size_t I) {
  Bot &B = Bots[I];
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    failBot(I, "socket");
    return;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  int Rc = ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr));
  if (Rc < 0 && errno != EINPROGRESS) {
    // A full backlog can refuse outright; back off a tick and retry
    // rather than failing the bot.
    int Err = errno;
    ::close(Fd);
    if (Err == EAGAIN || Err == ECONNREFUSED)
      retryConnect(I);
    else
      failBot(I, "connect");
    return;
  }
  B.Fd = Fd;
  B.St = Bot::State::Connecting;
  Loop.add(Fd, Rc == 0 ? EPOLLIN : EPOLLOUT,
           [this, I](uint32_t Events) { onBotEvent(I, Events); });
  if (Rc == 0)
    onConnected(I);
}

void BotFleet::retryConnect(size_t I) {
  if (Bots[I].Retries++ < 50)
    Loop.addTimer(10, [this, I] { startBot(I); });
  else
    failBot(I, "connect");
}

void BotFleet::onConnected(size_t I) {
  ++CurConnected;
  if (CurConnected > Result.PeakConcurrent)
    Result.PeakConcurrent = CurConnected;
  Bots[I].St = Bot::State::Opening;
  resend(I);
}

void BotFleet::onBotEvent(size_t I, uint32_t Events) {
  Bot &B = Bots[I];
  if (B.St == Bot::State::Connecting) {
    int Err = 0;
    socklen_t Len = sizeof(Err);
    ::getsockopt(B.Fd, SOL_SOCKET, SO_ERROR, &Err, &Len);
    if ((Events & (EPOLLERR | EPOLLHUP)) || Err != 0) {
      dropSocket(B);
      retryConnect(I);
      return;
    }
    Loop.modify(B.Fd, EPOLLIN);
    onConnected(I);
    return;
  }
  if (Events & (EPOLLERR | EPOLLHUP)) {
    failBot(I, "hangup");
    return;
  }
  if (Events & EPOLLOUT)
    flushBot(I);
  if (Bots[I].Fd >= 0 && (Events & EPOLLIN))
    readBot(I);
}

void BotFleet::sendRequest(size_t I, Request Req) {
  Bot &B = Bots[I];
  Req.RequestId = B.NextRequestId++;
  B.PendingRequestId = Req.RequestId;
  LogWriter W;
  encodeRequest(Req, W); // includes the length prefix.
  B.WriteBuf.insert(B.WriteBuf.end(), W.data(), W.data() + W.size());
  B.SendTimeUs = nowMicros();
  flushBot(I);
}

/// Sends the request the bot's state is waiting on: the open, the next
/// query or the close. A Busy answer re-issues it through here.
void BotFleet::resend(size_t I) {
  Request Req;
  Req.SessionId = Bots[I].SessionId;
  switch (Bots[I].St) {
  case Bot::State::Opening:
    Req.Type = MsgType::OpenSession;
    break;
  case Bot::State::Querying:
    Req.Type = MsgType::Query;
    Req.Command = "where 0";
    break;
  case Bot::State::Closing:
    Req.Type = MsgType::CloseSession;
    break;
  default:
    return;
  }
  sendRequest(I, std::move(Req));
}

void BotFleet::flushBot(size_t I) {
  Bot &B = Bots[I];
  while (B.WriteBuf.size() != B.WriteOff) {
    ssize_t N = ::send(B.Fd, B.WriteBuf.data() + B.WriteOff,
                       B.WriteBuf.size() - B.WriteOff, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!B.WantWrite) {
          B.WantWrite = true;
          Loop.modify(B.Fd, EPOLLIN | EPOLLOUT);
        }
        return;
      }
      failBot(I, "send");
      return;
    }
    B.WriteOff += size_t(N);
  }
  B.WriteBuf.clear();
  B.WriteOff = 0;
  if (B.WantWrite) {
    B.WantWrite = false;
    Loop.modify(B.Fd, EPOLLIN);
  }
}

void BotFleet::readBot(size_t I) {
  uint8_t Buf[1 << 14];
  for (;;) {
    Bot &B = Bots[I];
    if (B.Fd < 0)
      return;
    ssize_t N = ::read(B.Fd, Buf, sizeof(Buf));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return;
      failBot(I, "read");
      return;
    }
    if (N == 0) {
      failBot(I, "eof");
      return;
    }
    B.Frames.feed(Buf, size_t(N));
    std::vector<uint8_t> Payload;
    while (Bots[I].Fd >= 0 && Bots[I].Frames.next(Payload)) {
      Response Resp;
      if (!decodeResponse(Payload.data(), Payload.size(), Resp)) {
        failBot(I, "decode");
        return;
      }
      handleResponse(I, Resp);
      Payload.clear();
    }
    if (Bots[I].Fd >= 0 && Bots[I].Frames.malformed()) {
      failBot(I, "malformed");
      return;
    }
  }
}

void BotFleet::handleResponse(size_t I, const Response &Resp) {
  Bot &B = Bots[I];
  if (Resp.RequestId != B.PendingRequestId) {
    failBot(I, "request-id mismatch");
    return;
  }
  // Busy is the server's bounded queue doing its job; the protocol
  // contract is that the client retries. Back off a tick (staggered by
  // bot index so the herd doesn't re-arrive at once) and re-issue the
  // same logical request. The fleet deadline bounds total retrying.
  if (Resp.Type == RespType::Busy &&
      (B.St == Bot::State::Opening || B.St == Bot::State::Querying ||
       B.St == Bot::State::Closing)) {
    ++Result.BusyRetries;
    Bot::State St = B.St;
    Loop.addTimer(5 + (I & 15), [this, I, St] {
      if (Bots[I].Fd >= 0 && Bots[I].St == St)
        resend(I);
    });
    return;
  }
  switch (B.St) {
  case Bot::State::Opening:
    if (Resp.Type != RespType::SessionOpened) {
      failBot(I, "open rejected");
      return;
    }
    B.SessionId = Resp.SessionId;
    B.St = Bot::State::Querying;
    resend(I);
    return;
  case Bot::State::Querying:
    if (Resp.Type != RespType::Result) {
      failBot(I, "query rejected");
      return;
    }
    Latency.record(nowMicros() - B.SendTimeUs);
    ++Result.QueriesAnswered;
    if (++B.QueriesDone >= Opts.QueriesPerBot)
      finishQueries(I);
    else
      resend(I);
    return;
  case Bot::State::Closing:
    if (Resp.Type != RespType::Closed) {
      failBot(I, "close rejected");
      return;
    }
    completeBot(I);
    return;
  default:
    failBot(I, "unexpected response");
    return;
  }
}

void BotFleet::finishQueries(size_t I) {
  ++FinishedQueries;
  Bots[I].St = Bot::State::Holding;
  // Everyone still alive is done querying: the concurrency plateau has
  // been held, release the fleet.
  if (FinishedQueries + Result.Failed == Opts.NumBots)
    releaseHolders();
}

void BotFleet::releaseHolders() {
  if (Releasing)
    return;
  Releasing = true;
  for (size_t I = 0; I != Bots.size(); ++I)
    if (Bots[I].St == Bot::State::Holding) {
      Bots[I].St = Bot::State::Closing;
      resend(I);
    }
  checkDone();
}

void BotFleet::completeBot(size_t I) {
  Bot &B = Bots[I];
  dropSocket(B);
  B.St = Bot::State::Done;
  ++Completed;
  --CurConnected;
  checkDone();
}

void BotFleet::failBot(size_t I, const char *Why) {
  Bot &B = Bots[I];
  bool WasConnected = B.Fd >= 0 && B.St != Bot::State::Connecting;
  bool CountedFinished = B.St == Bot::State::Holding ||
                         B.St == Bot::State::Closing;
  dropSocket(B);
  B.St = Bot::State::Failed;
  ++Result.Failed;
  if (WasConnected)
    --CurConnected;
  if (Result.Error.empty())
    Result.Error = Why;
  // A bot that dies mid-script can be the last thing the holders were
  // waiting for.
  if (!CountedFinished && FinishedQueries + Result.Failed == Opts.NumBots)
    releaseHolders();
  checkDone();
}

void BotFleet::checkDone() {
  if (Completed + Result.Failed >= Opts.NumBots)
    Loop.stop();
}

void BotFleet::tick() {
  size_t Batch = 0;
  while (Started != Bots.size() && Batch++ != ConnectBatch)
    startBot(Started++);
  if (Started != Bots.size())
    Loop.addTimer(10, [this] { tick(); });
}

BotFleetResult BotFleet::run() {
  if (!Loop.valid()) {
    Result.Error = "dispatcher";
    return Result;
  }
  if (Opts.NumBots == 0 || Opts.QueriesPerBot == 0) {
    Result.Error = "empty fleet";
    return Result;
  }
  std::string Host;
  uint16_t Port = 0;
  Addr.sin_family = AF_INET;
  if (!isTcpEndpoint(Opts.Address) ||
      !splitHostPort(Opts.Address.substr(4), Host, Port) ||
      ::inet_pton(AF_INET,
                  (Host.empty() || Host == "localhost") ? "127.0.0.1"
                                                        : Host.c_str(),
                  &Addr.sin_addr) != 1) {
    Result.Error = "address";
    return Result;
  }
  Addr.sin_port = htons(Port);
  raiseFdLimit();
  Bots.resize(Opts.NumBots);
  Loop.addTimer(DeadlineMs, [this] {
    if (Result.Error.empty())
      Result.Error = "deadline";
    Loop.stop();
  });
  tick();
  Loop.run();
  for (Bot &B : Bots)
    dropSocket(B);
  Result.P50us = Latency.percentileMicros(50);
  Result.P99us = Latency.percentileMicros(99);
  return Result;
}

} // namespace

BotFleetResult ppd::bench::runBotFleet(const BotFleetOptions &Options) {
  return BotFleet(Options).run();
}
