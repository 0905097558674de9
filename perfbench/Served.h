//===- perfbench/Served.h - The served variant of an episode ----*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The served variant drives a forked `ppd serve` over a real unix socket
/// with a closed loop: QueryConns connections each send their next
/// request of a scripted session only after the previous answer, and one
/// streaming client runs
/// the workload's program live-attached (ingesting its cuts) while
/// interleaving TailQuerys. Responses are recorded so they can be checked
/// byte for byte against in-process DebugServer::handleFrame on the same
/// log, and every streamed final log is compared with the batch log.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_PERFBENCH_SERVED_H
#define PPD_PERFBENCH_SERVED_H

#include "Trace.h"

#include "compiler/CompiledProgram.h"
#include "server/Protocol.h"

#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

namespace perfbench {

/// File names inside the private run directory (the benchmark's cwd).
struct ServedFiles {
  std::string PpdBinary;
  std::string Source = "prog.ppl";
  std::string Log = "prog.log";
  std::string Socket = "srv.sock";
  std::string SpillDir = "spill";
  std::string ServerOut = "server.out";
};

/// A request and the raw response payload the server sent for it.
struct Exchange {
  ppd::Request Req;
  std::vector<uint8_t> Payload;
};

/// One synchronous connection that keeps raw response bytes.
class RawClient {
public:
  RawClient() = default;
  ~RawClient();
  RawClient(const RawClient &) = delete;
  RawClient &operator=(const RawClient &) = delete;

  bool connect(const std::string &Socket);
  /// Stamps a request id, sends, and waits for the answer. False on a
  /// transport failure or an undecodable or mismatched response.
  bool roundTrip(ppd::Request &Req, ppd::Response &Resp,
                 std::vector<uint8_t> &Payload);
  bool openSession(uint64_t &Sid, Exchange &Out);

private:
  int Fd = -1;
  uint64_t NextId = 1;
};

/// The forked server plus the clients set up against it.
class ServedRig {
public:
  ~ServedRig();

  /// Forks `ppd serve` on the files in \p Files (the log and its warm
  /// `.ppdb` must exist), waits until it accepts, connects \p QueryConns
  /// query clients with an open session each and the tail client.
  bool start(const ServedFiles &Files, unsigned QueryConns,
             std::string &Error);
  /// Asks the server to shut down and reaps it (killing it after a
  /// grace period). True when it exited cleanly.
  bool stop();

  const ServedFiles &files() const { return Files; }
  /// The server process's VmHWM in MB (0 when it is not running).
  double serverPeakRssMb() const;
  std::vector<std::unique_ptr<RawClient>> Query;
  std::vector<uint64_t> Sessions;
  /// Each query client's next step in the session script (Served.cpp).
  std::vector<size_t> ScriptPos;
  std::vector<Exchange> Opens; ///< each query client's first OpenSession.
  RawClient Tail;

private:
  ServedFiles Files;
  pid_t Pid = -1;
};

struct ServedResult {
  bool Correct = true;
  std::string Error;
  uint64_t Attempted = 0, Failed = 0;

  std::vector<double> RequestUs; ///< query-connection round trips.
  /// The same round trips per slice, and each slice's duration.
  std::vector<std::vector<double>> SliceUs;
  std::vector<double> SliceSeconds;
  uint64_t RespBytes = 0;
  /// Per query connection: every exchange, for the byte-equality check.
  std::vector<std::vector<Exchange>> Recorded;

  std::vector<double> StreamRunMs;
  uint64_t Cuts = 0, StallMicros = 0, TailQueries = 0;
  double StreamWallMicros = 0;

  // Server-side counters, read back through Stats.
  uint64_t SrvRequests = 0, SrvBusy = 0, SrvErrors = 0, SrvTimeouts = 0;
  uint64_t ConnsAccepted = 0, ConnsPeak = 0;
  uint64_t IngestBytes = 0, CreditStalls = 0;
};

/// Runs the closed loop for \p Seconds and adds what it measured to \p R
/// (a traced run calls it once per slice). \p Tracer, when enabled, gets
/// one buffer per client thread.
void runServed(ServedRig &Rig, const ppd::CompiledProgram &Prog,
               double Seconds, Tracer &Trace, ServedResult &R);

/// Reads the server-wide counters (Stats on session 0) into \p R.
void readServerStats(ServedRig &Rig, ServedResult &R);

/// Replays every recorded exchange through an in-process DebugServer over
/// the same log and compares response bytes. Returns the handleFrame
/// latencies (us); sets \p Error on the first mismatch.
std::vector<double> checkServed(const ServedResult &Served,
                                const std::vector<Exchange> &Opens,
                                const std::string &Source,
                                const std::string &LogPath,
                                SpanBuffer *Spans, std::string &Error);

} // namespace perfbench

#endif // PPD_PERFBENCH_SERVED_H
