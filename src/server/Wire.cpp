//===- server/Wire.cpp ----------------------------------------------------===//
//
// Part of PPD. See Wire.h.
//
//===----------------------------------------------------------------------===//

#include "server/Wire.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

using namespace ppd;

namespace {

bool fillSockAddr(const std::string &Path, sockaddr_un &Addr) {
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    std::fprintf(stderr, "error: socket path too long: %s\n", Path.c_str());
    return false;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

bool writeAll(int Fd, const uint8_t *Data, size_t Size) {
  while (Size != 0) {
    // MSG_NOSIGNAL: a peer that disconnected mid-response is a failed
    // write, not a process-killing SIGPIPE.
    ssize_t N = ::send(Fd, Data, Size, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Size -= size_t(N);
  }
  return true;
}

bool readAll(int Fd, uint8_t *Data, size_t Size) {
  while (Size != 0) {
    ssize_t N = ::read(Fd, Data, Size);
    if (N <= 0) {
      if (N < 0 && errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Size -= size_t(N);
  }
  return true;
}

bool fillInetAddr(const std::string &Host, uint16_t Port, sockaddr_in &Addr) {
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (Host.empty() || Host == "*" || Host == "0.0.0.0") {
    Addr.sin_addr.s_addr = htonl(INADDR_ANY);
    return true;
  }
  const char *Numeric = Host == "localhost" ? "127.0.0.1" : Host.c_str();
  if (::inet_pton(AF_INET, Numeric, &Addr.sin_addr) != 1) {
    std::fprintf(stderr, "error: cannot parse host %s (IPv4 or localhost)\n",
                 Host.c_str());
    return false;
  }
  return true;
}

} // namespace

int ppd::listenUnix(const std::string &Path) {
  sockaddr_un Addr;
  if (!fillSockAddr(Path, Addr))
    return -1;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    std::perror("socket");
    return -1;
  }
  struct stat St;
  if (::lstat(Path.c_str(), &St) == 0) {
    if (!S_ISSOCK(St.st_mode)) {
      std::fprintf(stderr,
                   "error: %s exists and is not a socket; refusing to "
                   "remove it\n",
                   Path.c_str());
      ::close(Fd);
      return -1;
    }
    // A socket file proves nothing: it outlives the server that bound
    // it. Probe with a connect — only a *refused* socket is stale and
    // safe to clean up; a live server's socket must not be stolen.
    int Probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Probe >= 0) {
      int Rc = ::connect(Probe, reinterpret_cast<sockaddr *>(&Addr),
                         sizeof(Addr));
      ::close(Probe);
      if (Rc == 0) {
        std::fprintf(stderr,
                     "error: %s is in use by a live server; refusing to "
                     "steal it\n",
                     Path.c_str());
        ::close(Fd);
        return -1;
      }
    }
    ::unlink(Path.c_str());
  }
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Fd, 4096) < 0) {
    std::fprintf(stderr, "error: cannot listen on %s: %s\n", Path.c_str(),
                 std::strerror(errno));
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int ppd::connectUnix(const std::string &Path) {
  sockaddr_un Addr;
  if (!fillSockAddr(Path, Addr))
    return -1;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool ppd::splitHostPort(const std::string &HostPort, std::string &Host,
                        uint16_t &Port) {
  size_t Colon = HostPort.rfind(':');
  if (Colon == std::string::npos)
    return false;
  Host = HostPort.substr(0, Colon);
  std::string PortStr = HostPort.substr(Colon + 1);
  if (PortStr.empty())
    return false;
  char *End = nullptr;
  unsigned long V = std::strtoul(PortStr.c_str(), &End, 10);
  if (*End != '\0' || V > 65535)
    return false;
  Port = uint16_t(V);
  return true;
}

int ppd::listenTcp(const std::string &HostPort, uint16_t *BoundPort) {
  std::string Host;
  uint16_t Port = 0;
  if (!splitHostPort(HostPort, Host, Port)) {
    std::fprintf(stderr, "error: bad TCP address %s (want HOST:PORT)\n",
                 HostPort.c_str());
    return -1;
  }
  sockaddr_in Addr;
  if (!fillInetAddr(Host, Port, Addr))
    return -1;
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    std::perror("socket");
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Fd, 4096) < 0) {
    std::fprintf(stderr, "error: cannot listen on tcp %s: %s\n",
                 HostPort.c_str(), std::strerror(errno));
    ::close(Fd);
    return -1;
  }
  if (BoundPort) {
    sockaddr_in Bound;
    socklen_t Len = sizeof(Bound);
    *BoundPort =
        ::getsockname(Fd, reinterpret_cast<sockaddr *>(&Bound), &Len) == 0
            ? ntohs(Bound.sin_port)
            : Port;
  }
  return Fd;
}

int ppd::connectTcp(const std::string &HostPort) {
  std::string Host;
  uint16_t Port = 0;
  if (!splitHostPort(HostPort, Host, Port))
    return -1;
  sockaddr_in Addr;
  if (!fillInetAddr(Host.empty() ? "localhost" : Host, Port, Addr))
    return -1;
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool ppd::isTcpEndpoint(const std::string &Address) {
  return Address.rfind("tcp:", 0) == 0;
}

int ppd::connectEndpoint(const std::string &Address) {
  return isTcpEndpoint(Address) ? connectTcp(Address.substr(4))
                                : connectUnix(Address);
}

void ppd::raiseFdLimit() {
  rlimit RL;
  if (::getrlimit(RLIMIT_NOFILE, &RL) == 0 && RL.rlim_cur < RL.rlim_max) {
    RL.rlim_cur = RL.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &RL);
  }
}

bool ppd::sendFrame(int Fd, const uint8_t *Data, size_t Size) {
  if (Size > MaxFramePayload)
    return false;
  uint32_t Len = uint32_t(Size);
  uint8_t Prefix[4];
  std::memcpy(Prefix, &Len, 4);
  return writeAll(Fd, Prefix, 4) && writeAll(Fd, Data, Size);
}

bool ppd::recvFrame(int Fd, std::vector<uint8_t> &Out) {
  uint8_t Prefix[4];
  if (!readAll(Fd, Prefix, 4))
    return false;
  uint32_t Len = 0;
  std::memcpy(&Len, Prefix, 4);
  if (Len > MaxFramePayload)
    return false;
  Out.resize(Len);
  return Len == 0 || readAll(Fd, Out.data(), Len);
}

bool ClientConnection::connect(const std::string &Address) {
  disconnect();
  Fd = connectEndpoint(Address);
  return Fd >= 0;
}

void ClientConnection::disconnect() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

bool ClientConnection::roundTrip(Request Req, Response &Resp) {
  if (Fd < 0)
    return false;
  Req.RequestId = NextRequestId++;
  LogWriter W;
  encodeRequest(Req, W);
  // encodeRequest emitted the length prefix already.
  if (!writeAll(Fd, W.data(), W.size())) {
    disconnect();
    return false;
  }
  std::vector<uint8_t> Payload;
  if (!recvFrame(Fd, Payload)) {
    disconnect();
    return false;
  }
  if (!decodeResponse(Payload.data(), Payload.size(), Resp) ||
      Resp.RequestId != Req.RequestId) {
    // The stream is desynced: either the payload did not parse or the
    // id pairing broke. Any later read would return a stale response
    // for the wrong request, so kill the connection now.
    disconnect();
    return false;
  }
  return true;
}
