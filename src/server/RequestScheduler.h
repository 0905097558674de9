//===- server/RequestScheduler.h - Bounded request execution ----*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Admission control and the worker threads that run admitted requests:
/// one FIFO queue drained by N workers. A server that buffers every
/// request it cannot run yet trades one failure mode (a visible Busy) for
/// a worse one (unbounded memory and multi-second tail latency), so the
/// scheduler enforces:
///
///   * a bounded queue — submissions beyond QueueLimit outstanding
///     requests are rejected immediately (the caller sends an explicit
///     Busy response; the client retries);
///   * per-request timeouts — each submission carries its enqueue time;
///     a task that waited past TimeoutMs is handed to its callback as
///     expired *instead of* being executed, so a backlogged server sheds
///     stale work rather than burning replay time on answers nobody is
///     waiting for;
///   * graceful drain — drain() stops admission and blocks until every
///     admitted request has finished, which is what lets shutdown promise
///     "all accepted requests were answered".
///
/// With zero worker threads, admitted tasks run inline in submit() —
/// deterministic, which the bit-identity tests rely on.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_SERVER_REQUESTSCHEDULER_H
#define PPD_SERVER_REQUESTSCHEDULER_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ppd {

struct RequestSchedulerOptions {
  /// Worker threads executing requests (0 = inline, deterministic).
  unsigned Threads = 0;
  /// Maximum admitted-but-unfinished requests before Busy (0 = no cap).
  unsigned QueueLimit = 128;
  /// Queue-wait budget per request; 0 disables timeouts.
  uint64_t TimeoutMs = 0;
};

class RequestScheduler {
public:
  enum class Admission {
    Accepted,     ///< task will run (or ran inline)
    Busy,         ///< queue full — caller answers Busy
    ShuttingDown, ///< drain started — caller answers ShuttingDown
  };

  /// A task receives true when it expired in the queue; it must then
  /// answer with a Timeout error instead of doing the work.
  using Task = std::function<void(bool TimedOut)>;

  explicit RequestScheduler(RequestSchedulerOptions Options)
      : Options(Options) {
    for (unsigned I = 0; I != Options.Threads; ++I)
      Workers.emplace_back([this] { workerLoop(); });
  }

  RequestScheduler(const RequestScheduler &) = delete;
  RequestScheduler &operator=(const RequestScheduler &) = delete;

  ~RequestScheduler() {
    drain();
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Stopping = true;
    }
    Wake.notify_all();
    for (std::thread &W : Workers)
      W.join();
  }

  Admission submit(Task Fn) {
    Queued Entry{std::chrono::steady_clock::now(), std::move(Fn)};
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (Draining)
        return Admission::ShuttingDown;
      if (Options.QueueLimit != 0 && InFlight >= Options.QueueLimit)
        return Admission::Busy;
      ++InFlight;
      if (InFlight > HighWater)
        HighWater = InFlight;
      if (!Workers.empty()) {
        Queue.push_back(std::move(Entry));
        Wake.notify_one();
        return Admission::Accepted;
      }
    }
    run(Entry);
    return Admission::Accepted;
  }

  /// Stops admission and waits until every admitted request finished.
  /// Idempotent.
  void drain() {
    std::unique_lock<std::mutex> Lock(Mutex);
    Draining = true;
    Idle.wait(Lock, [this] { return InFlight == 0; });
  }

  /// Admitted-but-unfinished requests right now.
  unsigned inFlight() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return InFlight;
  }

  /// Deepest the queue has been.
  unsigned highWater() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return HighWater;
  }

  bool draining() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Draining;
  }

private:
  struct Queued {
    std::chrono::steady_clock::time_point Enqueued;
    Task Fn;
  };

  void run(Queued &Entry) {
    bool TimedOut = false;
    if (Options.TimeoutMs != 0) {
      auto Waited = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - Entry.Enqueued);
      TimedOut = uint64_t(Waited.count()) > Options.TimeoutMs;
    }
    Entry.Fn(TimedOut);
    std::lock_guard<std::mutex> Lock(Mutex);
    if (--InFlight == 0)
      Idle.notify_all();
  }

  void workerLoop() {
    for (;;) {
      std::unique_lock<std::mutex> Lock(Mutex);
      Wake.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return;
      Queued Entry = std::move(Queue.front());
      Queue.pop_front();
      Lock.unlock();
      run(Entry);
    }
  }

  RequestSchedulerOptions Options;
  mutable std::mutex Mutex;
  std::condition_variable Wake;
  std::condition_variable Idle;
  std::deque<Queued> Queue;
  unsigned InFlight = 0;
  unsigned HighWater = 0;
  bool Draining = false;
  bool Stopping = false;
  std::vector<std::thread> Workers;
};

} // namespace ppd

#endif // PPD_SERVER_REQUESTSCHEDULER_H
