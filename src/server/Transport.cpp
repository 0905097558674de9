//===- server/Transport.cpp -----------------------------------------------===//
//
// Part of PPD. See Transport.h.
//
//===----------------------------------------------------------------------===//

#include "server/Transport.h"

#include "server/DebugServer.h"
#include "server/EventDispatcher.h"
#include "server/Wire.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <unordered_map>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace ppd;

namespace {

bool setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

/// One connection's state machine. Identified by a monotonically
/// increasing id, never by fd: fds are reused by the kernel, and a
/// response completing on a scheduler worker after its connection died
/// must drop cleanly instead of writing into a stranger's socket.
struct Conn {
  uint64_t Id = 0;
  int Fd = -1;
  FrameReader Frames;
  std::vector<uint8_t> WriteBuf; ///< queued bytes; [WriteOff, size) unsent.
  size_t WriteOff = 0;
  bool WantWrite = false;      ///< EPOLLOUT currently armed.
  bool CloseAfterFlush = false;
  uint64_t LastActivityMs = 0;
  EventDispatcher::TimerId IdleTimer = 0;
};

class EpollTransport {
public:
  EpollTransport(DebugServer &Server, const EpollServerOptions &Options)
      : Server(Server), Opts(Options) {}
  int run();

private:
  void onAccept(int ListenFd, bool Tcp);
  void onConnEvent(uint64_t Id, uint32_t Events);
  void readFrom(uint64_t Id);
  void enqueueResponse(uint64_t Id, std::vector<uint8_t> Frame);
  void flush(Conn &C);
  void closeConn(uint64_t Id);
  void armIdle(uint64_t Id, uint64_t DelayMs);
  void flushAllBlocking();

  static size_t pendingBytes(const Conn &C) {
    return C.WriteBuf.size() - C.WriteOff;
  }

  DebugServer &Server;
  EpollServerOptions Opts;
  EventDispatcher Loop;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> Conns;
  uint64_t NextConnId = 1;
  std::thread::id LoopThread;
};

void EpollTransport::onAccept(int ListenFd, bool Tcp) {
  for (;;) {
    int Fd = ::accept4(ListenFd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      // EAGAIN: drained. Transient per-connection failures (ECONNABORTED,
      // EMFILE under fd pressure) must not kill the listener.
      return;
    }
    if (Tcp) {
      int One = 1;
      ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    }
    if (Opts.SendBufBytes != 0)
      ::setsockopt(Fd, SOL_SOCKET, SO_SNDBUF, &Opts.SendBufBytes,
                   sizeof(Opts.SendBufBytes));
    auto C = std::make_unique<Conn>();
    C->Id = NextConnId++;
    C->Fd = Fd;
    C->LastActivityMs = EventDispatcher::nowMs();
    uint64_t Id = C->Id;
    Conns.emplace(Id, std::move(C));
    Loop.add(Fd, EPOLLIN, [this, Id](uint32_t Events) {
      onConnEvent(Id, Events);
    });
    Server.metrics().countConnAccepted();
    Server.metrics().noteActiveConns(Conns.size());
    if (Opts.IdleTimeoutMs != 0)
      armIdle(Id, Opts.IdleTimeoutMs);
  }
}

void EpollTransport::armIdle(uint64_t Id, uint64_t DelayMs) {
  auto It = Conns.find(Id);
  if (It == Conns.end())
    return;
  It->second->IdleTimer = Loop.addTimer(DelayMs, [this, Id] {
    auto It2 = Conns.find(Id);
    if (It2 == Conns.end())
      return;
    Conn &C = *It2->second;
    C.IdleTimer = 0;
    uint64_t Idle = EventDispatcher::nowMs() - C.LastActivityMs;
    if (Idle >= Opts.IdleTimeoutMs) {
      Server.metrics().countIdleDisconnect();
      closeConn(Id);
      return;
    }
    // Traffic since arming: sleep out the remainder instead of
    // re-arming on every read (10k busy connections would churn the
    // wheel otherwise).
    armIdle(Id, Opts.IdleTimeoutMs - Idle);
  });
}

void EpollTransport::onConnEvent(uint64_t Id, uint32_t Events) {
  auto It = Conns.find(Id);
  if (It == Conns.end())
    return;
  if (Events & (EPOLLERR | EPOLLHUP)) {
    closeConn(Id);
    return;
  }
  if (Events & EPOLLOUT) {
    flush(*It->second);
    if (Conns.find(Id) == Conns.end())
      return; // flush error or CloseAfterFlush completed.
  }
  if (Events & EPOLLIN)
    readFrom(Id);
}

void EpollTransport::readFrom(uint64_t Id) {
  uint8_t Buf[1 << 16];
  for (;;) {
    auto It = Conns.find(Id);
    if (It == Conns.end())
      return;
    Conn &C = *It->second;
    ssize_t N = ::read(C.Fd, Buf, sizeof(Buf));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return;
      closeConn(Id);
      return;
    }
    if (N == 0) {
      closeConn(Id);
      return;
    }
    C.LastActivityMs = EventDispatcher::nowMs();
    C.Frames.feed(Buf, size_t(N));
    std::vector<uint8_t> Payload;
    for (;;) {
      // Re-find each round: an inline response (Threads=0, stream
      // messages, rejections) can overflow the write queue and reap the
      // connection out from under this loop.
      auto It2 = Conns.find(Id);
      if (It2 == Conns.end())
        return;
      if (!It2->second->Frames.next(Payload))
        break;
      Server.submitFrame(
          std::move(Payload), [this, Id](std::vector<uint8_t> Frame) {
            if (std::this_thread::get_id() == LoopThread) {
              enqueueResponse(Id, std::move(Frame));
              return;
            }
            // Scheduler worker: marshal onto the loop thread. The id (not
            // a pointer) makes a response for a reaped connection a no-op.
            Loop.post([this, Id, Resp = std::move(Frame)]() mutable {
              enqueueResponse(Id, std::move(Resp));
            });
          });
      Payload.clear();
    }
    auto It3 = Conns.find(Id);
    if (It3 == Conns.end())
      return;
    if (It3->second->Frames.malformed()) {
      // Impossible length prefix: answer once, then drop the stream — a
      // framed connection cannot re-synchronize.
      Server.metrics().countMalformed();
      Response Resp;
      Resp.Type = RespType::Error;
      Resp.Code = ErrCode::BadFrame;
      Resp.Text = "oversized or corrupt frame length";
      LogWriter W;
      encodeResponse(Resp, W);
      Conn &C3 = *It3->second;
      C3.WriteBuf.insert(C3.WriteBuf.end(), W.data(), W.data() + W.size());
      C3.CloseAfterFlush = true;
      flush(C3);
      return;
    }
  }
}

void EpollTransport::enqueueResponse(uint64_t Id, std::vector<uint8_t> Frame) {
  auto It = Conns.find(Id);
  if (It == Conns.end())
    return; // connection died while the request was in flight.
  Conn &C = *It->second;
  if (C.CloseAfterFlush)
    return; // already poisoned; nothing after the error frame.
  if (pendingBytes(C) + Frame.size() > Opts.MaxWriteQueueBytes) {
    // The peer is not reading. Shedding it is the backpressure: memory
    // stays bounded and the loop never blocks on one slow client.
    Server.metrics().countWriteOverflow();
    closeConn(Id);
    return;
  }
  C.WriteBuf.insert(C.WriteBuf.end(), Frame.begin(), Frame.end());
  flush(C);
}

void EpollTransport::flush(Conn &C) {
  uint64_t Id = C.Id;
  while (pendingBytes(C) != 0) {
    ssize_t N = ::send(C.Fd, C.WriteBuf.data() + C.WriteOff, pendingBytes(C),
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!C.WantWrite) {
          C.WantWrite = true;
          Loop.modify(C.Fd, EPOLLIN | EPOLLOUT);
        }
        return;
      }
      closeConn(Id);
      return;
    }
    C.WriteOff += size_t(N);
  }
  C.WriteBuf.clear();
  C.WriteOff = 0;
  if (C.WantWrite) {
    C.WantWrite = false;
    Loop.modify(C.Fd, EPOLLIN);
  }
  if (C.CloseAfterFlush)
    closeConn(Id);
}

void EpollTransport::closeConn(uint64_t Id) {
  auto It = Conns.find(Id);
  if (It == Conns.end())
    return;
  Conn &C = *It->second;
  if (C.IdleTimer != 0)
    Loop.cancelTimer(C.IdleTimer);
  Loop.remove(C.Fd);
  ::close(C.Fd);
  Conns.erase(It);
  Server.metrics().countConnClosed();
}

void EpollTransport::flushAllBlocking() {
  // Post-shutdown: the drain guaranteed every admitted request produced
  // its response bytes; push what is still queued with a bounded poll so
  // a wedged peer cannot hold the process open.
  uint64_t Deadline = EventDispatcher::nowMs() + 5000;
  for (auto &Entry : Conns) {
    Conn &C = *Entry.second;
    while (pendingBytes(C) != 0) {
      uint64_t Now = EventDispatcher::nowMs();
      if (Now >= Deadline)
        return;
      pollfd P{C.Fd, POLLOUT, 0};
      if (::poll(&P, 1, int(Deadline - Now)) <= 0)
        break;
      ssize_t N = ::send(C.Fd, C.WriteBuf.data() + C.WriteOff,
                         pendingBytes(C), MSG_NOSIGNAL);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        break;
      }
      C.WriteOff += size_t(N);
    }
  }
}

int EpollTransport::run() {
  if (!Loop.valid())
    return 1;
  if (Opts.UnixListenFd < 0 && Opts.TcpListenFd < 0) {
    std::fprintf(stderr, "error: epoll transport needs a listener\n");
    return 1;
  }
  LoopThread = std::this_thread::get_id();
  // The shutdown hook runs on whichever thread processes the Shutdown
  // request; stop() is the thread-safe loop-exit signal.
  Server.onShutdown([this] { Loop.stop(); });

  for (int ListenFd : {Opts.UnixListenFd, Opts.TcpListenFd}) {
    if (ListenFd < 0)
      continue;
    bool Tcp = ListenFd == Opts.TcpListenFd;
    if (!setNonBlocking(ListenFd) ||
        !Loop.add(ListenFd, EPOLLIN, [this, ListenFd, Tcp](uint32_t) {
          onAccept(ListenFd, Tcp);
        })) {
      std::perror("listen fd registration");
      return 1;
    }
  }

  Loop.run();

  // Every admitted request is answered before any connection is torn
  // down.
  Server.drain();
  Loop.runPosted();
  flushAllBlocking();

  for (auto &Entry : Conns)
    ::close(Entry.second->Fd);
  Conns.clear();
  if (Opts.UnixListenFd >= 0) {
    ::close(Opts.UnixListenFd);
    if (!Opts.UnixPath.empty())
      ::unlink(Opts.UnixPath.c_str());
  }
  if (Opts.TcpListenFd >= 0)
    ::close(Opts.TcpListenFd);
  return Server.shuttingDown() ? 0 : 1;
}

} // namespace

int ppd::runEpollServer(DebugServer &Server,
                        const EpollServerOptions &Options) {
  EpollTransport Transport(Server, Options);
  return Transport.run();
}
