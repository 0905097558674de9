//===- server/DebugServer.h - The PPD debug server --------------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport-independent debug server: programs + logs in, framed
/// requests in, framed responses out. It composes the pieces —
/// SessionRegistry (who is debugging what), RequestScheduler (admission,
/// timeouts, drain), ServerMetrics (counters) — behind two entry points:
///
///   * handleFrame(): decode → dispatch → encode, synchronously on the
///     caller's thread. The in-process transport: tests and benchmarks
///     drive full sessions without a socket.
///   * submitFrame(): the same, but through the bounded scheduler; the
///     response reaches the completion callback on a worker thread.
///     Malformed frames and Busy/ShuttingDown rejections answer
///     immediately on the submitting thread — backpressure must not
///     consume queue space.
///
/// The server outlives any transport: socket handling lives in Wire.h and
/// only moves bytes.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_SERVER_DEBUGSERVER_H
#define PPD_SERVER_DEBUGSERVER_H

#include "server/Protocol.h"
#include "server/RequestScheduler.h"
#include "server/ServerMetrics.h"
#include "server/SessionRegistry.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace ppd {

struct DebugServerOptions {
  /// Request worker threads (0 = execute inline, deterministic).
  unsigned Threads = 0;
  /// Bounded-queue depth; beyond it clients get Busy.
  unsigned QueueLimit = 128;
  /// Queue-wait budget per request in ms; 0 disables.
  uint64_t TimeoutMs = 0;
  /// Session cap and shared replay-cache sizing.
  SessionRegistryOptions Registry;
  /// Sessions idle for this many registry ticks are evicted on the next
  /// open (0 disables eviction).
  uint64_t IdleEvictTicks = 0;
};

class DebugServer {
public:
  explicit DebugServer(DebugServerOptions Options = {});
  ~DebugServer();

  /// Registers a program and the log a run just recorded (served as an
  /// in-memory store); returns the index OpenSession requests name.
  uint32_t addProgram(std::unique_ptr<CompiledProgram> Prog,
                      const ExecutionLog &Log);

  /// Registers a program and a paged log: sessions fault log sections in
  /// through the registry's shared buffer pool. \p Index and \p Graph
  /// carry the `.ppdb` sidecar's persisted artifacts when warm.
  uint32_t
  addProgram(std::unique_ptr<CompiledProgram> Prog, PagedLog Paged,
             std::shared_ptr<const LogIndex> Index = nullptr,
             std::shared_ptr<const ParallelDynamicGraph> Graph = nullptr);

  /// Dispatches one decoded request synchronously.
  Response handle(const Request &Req);

  /// Decodes one frame payload, dispatches it, returns the encoded
  /// response frame (length prefix included). Synchronous.
  std::vector<uint8_t> handleFrame(const uint8_t *Data, size_t Size);

  /// Queues one frame payload through the scheduler; \p Done receives the
  /// encoded response frame, on a worker thread for admitted requests or
  /// on the calling thread for immediate rejections (malformed, Busy,
  /// ShuttingDown).
  void submitFrame(std::vector<uint8_t> Payload,
                   std::function<void(std::vector<uint8_t>)> Done);

  /// Stops admission and blocks until all in-flight requests finished.
  void drain();

  /// True once a Shutdown request was accepted.
  bool shuttingDown() const;

  /// Invoked (once) from the thread that processes a Shutdown request;
  /// the epoll transport uses it to stop its event loop.
  void onShutdown(std::function<void()> Hook);

  /// Installs the streaming-ingest dispatcher (the src/stream layer,
  /// which links against this library — hence a hook, not a direct
  /// call). Stream messages (StreamHello/SectionData/StreamEnd/
  /// TailQuery/Frontier) forward to it; without one they answer
  /// NoSuchStream. Install before serving frames — the pointer itself is
  /// unsynchronized.
  void setStreamDispatcher(std::function<Response(const Request &)> Fn) {
    StreamDispatcher = std::move(Fn);
  }

  ServerMetrics &metrics() { return Metrics; }
  SessionRegistry &registry() { return *Registry; }
  RequestScheduler &scheduler() { return *Scheduler; }

  /// The --metrics-dump report: server counters + aggregated replay
  /// stats.
  std::string metricsReport() const;

private:
  Response dispatch(const Request &Req);
  std::vector<uint8_t> encodeFrameBytes(const Response &Resp);

  DebugServerOptions Options;
  std::unique_ptr<SessionRegistry> Registry;
  std::unique_ptr<RequestScheduler> Scheduler;
  ServerMetrics Metrics;

  mutable std::mutex ShutdownMutex;
  std::function<void()> ShutdownHook;
  std::function<Response(const Request &)> StreamDispatcher;
  bool ShutdownRequested = false;
};

} // namespace ppd

#endif // PPD_SERVER_DEBUGSERVER_H
