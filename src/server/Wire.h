//===- server/Wire.h - Socket transport helpers -----------------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte-moving layer under the debug server: AF_UNIX and TCP stream
/// sockets, frame send/receive, and the client-side connection the
/// `ppd client` tool uses. The server's event loop lives in Transport.h;
/// everything protocol-shaped lives in Protocol.h; everything
/// session-shaped lives in DebugServer.h — this file only ships frames.
///
/// Addresses: helpers that take an *endpoint* accept either a unix
/// socket path or `tcp:HOST:PORT`, so every client-side caller (ppd
/// client, stream ingest, bots) reaches TCP servers with no code of its
/// own.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_SERVER_WIRE_H
#define PPD_SERVER_WIRE_H

#include "server/Protocol.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ppd {

/// Creates, binds, and listens on an AF_UNIX stream socket at \p Path.
/// A stale socket file (no listener behind it) is cleaned up; a *live*
/// server's socket is refused with an error instead of stolen. Returns
/// the fd, or -1 with a message on stderr.
int listenUnix(const std::string &Path);

/// Connects to the server socket at \p Path. Returns the fd or -1.
int connectUnix(const std::string &Path);

/// Splits "HOST:PORT" (host may be empty for INADDR_ANY). False on a
/// missing colon or an unparseable port.
bool splitHostPort(const std::string &HostPort, std::string &Host,
                   uint16_t &Port);

/// Creates, binds, and listens on a TCP socket at "HOST:PORT" (port 0
/// picks an ephemeral port; the bound port comes back via \p BoundPort).
/// Returns the fd, or -1 with a message on stderr.
int listenTcp(const std::string &HostPort, uint16_t *BoundPort = nullptr);

/// Connects to a TCP server at "HOST:PORT". Returns the fd or -1.
int connectTcp(const std::string &HostPort);

/// True when \p Address is "tcp:HOST:PORT" rather than a unix path.
bool isTcpEndpoint(const std::string &Address);

/// Connects to \p Address — "tcp:HOST:PORT" or a unix socket path.
int connectEndpoint(const std::string &Address);

/// Raises RLIMIT_NOFILE's soft limit to the hard limit (best effort).
/// The serve and bots paths call this: 10k connections need 10k fds.
void raiseFdLimit();

/// Writes one frame: u32 length prefix + \p Size payload bytes. Retries
/// short writes and EINTR. False on a broken connection.
bool sendFrame(int Fd, const uint8_t *Data, size_t Size);

/// Reads one complete frame payload into \p Out. False on EOF, error, or
/// an impossible length prefix.
bool recvFrame(int Fd, std::vector<uint8_t> &Out);

/// A client connection: synchronous request/response round-trips with
/// automatically assigned request ids. Not thread-safe; one per client.
class ClientConnection {
public:
  ClientConnection() = default;
  ~ClientConnection() { disconnect(); }
  ClientConnection(const ClientConnection &) = delete;
  ClientConnection &operator=(const ClientConnection &) = delete;

  /// \p Address is an endpoint: unix path or "tcp:HOST:PORT".
  bool connect(const std::string &Address);
  void disconnect();
  bool connected() const { return Fd >= 0; }

  /// Sends \p Req (stamping a fresh RequestId) and blocks for the
  /// matching response. False on transport failure — including a decode
  /// failure or a response id that does not match, both of which
  /// disconnect: the stream position is unknowable after either, so the
  /// next call must fail fast instead of reading a stale response.
  bool roundTrip(Request Req, Response &Resp);

private:
  int Fd = -1;
  uint64_t NextRequestId = 1;
};

} // namespace ppd

#endif // PPD_SERVER_WIRE_H
