//===- server/Transport.h - epoll server transport --------------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The readiness-based server transport (DESIGN.md §14): one
/// EventDispatcher thread owns every listening and connection fd, and
/// each connection is a small state machine (FrameReader reassembly on
/// the read side, a bounded byte queue drained on EPOLLOUT on the write
/// side). Requests flow through DebugServer::submitFrame, so a response
/// is byte-identical to what DebugServer::handleFrame returns for the
/// same frame in process.
///
/// Connection lifecycle:
///   * EOF/error reaps the connection immediately (fd closed, state
///     freed);
///   * a peer that stops reading while responses accumulate past
///     MaxWriteQueueBytes is disconnected (typed metric), never buffered
///     without bound and never allowed to block the loop;
///   * an optional idle timeout reaps connections with no traffic,
///     driven by the dispatcher's timer wheel.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_SERVER_TRANSPORT_H
#define PPD_SERVER_TRANSPORT_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace ppd {

class DebugServer;

struct EpollServerOptions {
  /// Already-listening AF_UNIX fd, or -1 for no unix listener. The
  /// transport owns it from here: closed (and \p UnixPath unlinked) when
  /// the loop exits.
  int UnixListenFd = -1;
  std::string UnixPath;
  /// Already-listening TCP fd, or -1 for no TCP listener.
  int TcpListenFd = -1;
  /// Reap connections with no traffic for this long; 0 disables.
  uint64_t IdleTimeoutMs = 0;
  /// Per-connection cap on queued-but-unsent response bytes. A peer that
  /// falls further behind is disconnected (see writeOverflows()).
  size_t MaxWriteQueueBytes = 4u << 20;
  /// When nonzero, sets SO_SNDBUF on every accepted connection. A test
  /// and bench knob: shrinking the kernel buffer makes the userspace
  /// write-queue bound reachable with small payloads.
  int SendBufBytes = 0;
};

/// Serves \p Server over epoll until a Shutdown request stops the
/// dispatcher. At least one listener must be given. Returns 0 on a clean
/// shutdown, 1 otherwise.
int runEpollServer(DebugServer &Server, const EpollServerOptions &Options);

} // namespace ppd

#endif // PPD_SERVER_TRANSPORT_H
