//===- support/ThreadPool.h - Work-stealing task pool -----------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small work-stealing thread pool for the replay service. Log intervals
/// are independent by construction (prelog-seeded and, on race-free
/// instances, interleaving-independent, §5.5), so regenerating their
/// traces is embarrassingly parallel — the same observation distributed
/// event-graph debuggers exploit.
///
/// Design: one deque per worker. A worker pops its own deque LIFO (hot
/// caches for freshly spawned work) and steals FIFO from the other end of
/// a victim's deque (the oldest — and typically largest — task). External
/// submissions are distributed round-robin. A pool constructed with zero
/// threads degenerates to inline execution on the submitting thread, which
/// gives callers a deterministic serial mode with the same API.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_SUPPORT_THREADPOOL_H
#define PPD_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ppd {

/// Point-in-time snapshot of a pool's activity counters. Plain values so
/// callers (the debugger `stats` command, the server metrics layer) can
/// format or aggregate them without touching atomics.
struct ThreadPoolStats {
  /// Tasks accepted by submit().
  uint64_t Submitted = 0;
  /// Tasks run to completion (on workers, helpers, or inline).
  uint64_t Executed = 0;
  /// Tasks a worker took from another worker's deque.
  uint64_t Stolen = 0;
  /// Tasks run inline on the submitting thread (zero-worker pools).
  uint64_t InlineRuns = 0;
};

class ThreadPool {
public:
  /// Spawns \p Threads workers; 0 means "run every task inline".
  explicit ThreadPool(unsigned Threads) {
    for (unsigned I = 0; I != Threads; ++I)
      Queues.push_back(std::make_unique<WorkerQueue>());
    for (unsigned I = 0; I != Threads; ++I)
      Workers.emplace_back([this, I] { workerLoop(I); });
  }

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> Lock(WakeMutex);
      Stopping = true;
    }
    WakeCv.notify_all();
    for (std::thread &W : Workers)
      W.join();
  }

  unsigned numThreads() const { return unsigned(Workers.size()); }

  /// A sensible worker count for CPU-bound replay on this machine.
  static unsigned defaultConcurrency() {
    unsigned N = std::thread::hardware_concurrency();
    return N ? N : 1;
  }

  /// Schedules \p Task. Inline when the pool has no workers; onto the
  /// submitting worker's own deque when called from inside the pool
  /// (nested fan-out never blocks on a full pipeline); round-robin
  /// otherwise.
  void submit(std::function<void()> Task) {
    Submitted.fetch_add(1, std::memory_order_relaxed);
    if (Queues.empty()) {
      InlineRuns.fetch_add(1, std::memory_order_relaxed);
      Task();
      Executed.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    unsigned Target;
    if (CurrentPool == this)
      Target = CurrentWorker;
    else
      Target = NextQueue.fetch_add(1, std::memory_order_relaxed) %
               unsigned(Queues.size());
    {
      std::lock_guard<std::mutex> Lock(Queues[Target]->Mutex);
      Queues[Target]->Tasks.push_back(std::move(Task));
    }
    Pending.fetch_add(1, std::memory_order_release);
    // Synchronize with the sleep predicate: a worker between its predicate
    // check and the wait would otherwise miss this notification.
    { std::lock_guard<std::mutex> Lock(WakeMutex); }
    WakeCv.notify_one();
  }

  /// True when called from one of this pool's workers.
  bool onWorkerThread() const { return CurrentPool == this; }

  /// Cooperatively runs one queued task on the calling thread, stealing if
  /// necessary. Returns false when no task was available. Lets a thread
  /// that is waiting for pool work help drain it instead of idling — and
  /// keeps single-threaded pools deadlock-free when a caller blocks.
  bool runOneTask() {
    std::function<void()> Task;
    if (!takeTask(CurrentPool == this ? CurrentWorker : 0, Task))
      return false;
    Task();
    Executed.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Relaxed snapshot of the activity counters; safe to call while tasks
  /// are running (values may be mid-update but never torn).
  ThreadPoolStats stats() const {
    ThreadPoolStats Out;
    Out.Submitted = Submitted.load(std::memory_order_relaxed);
    Out.Executed = Executed.load(std::memory_order_relaxed);
    Out.Stolen = Stolen.load(std::memory_order_relaxed);
    Out.InlineRuns = InlineRuns.load(std::memory_order_relaxed);
    return Out;
  }

private:
  struct WorkerQueue {
    std::mutex Mutex;
    std::deque<std::function<void()>> Tasks;
  };

  /// Pops from our own deque (back, LIFO) or steals (front, FIFO) from
  /// another worker's. \p Self is the preferred queue index.
  bool takeTask(unsigned Self, std::function<void()> &Out) {
    if (Queues.empty())
      return false;
    unsigned N = unsigned(Queues.size());
    for (unsigned Attempt = 0; Attempt != N; ++Attempt) {
      unsigned Idx = (Self + Attempt) % N;
      WorkerQueue &Q = *Queues[Idx];
      std::lock_guard<std::mutex> Lock(Q.Mutex);
      if (Q.Tasks.empty())
        continue;
      if (Idx == Self) {
        Out = std::move(Q.Tasks.back());
        Q.Tasks.pop_back();
      } else {
        Out = std::move(Q.Tasks.front());
        Q.Tasks.pop_front();
        Stolen.fetch_add(1, std::memory_order_relaxed);
      }
      Pending.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  void workerLoop(unsigned Index) {
    CurrentPool = this;
    CurrentWorker = Index;
    for (;;) {
      std::function<void()> Task;
      if (takeTask(Index, Task)) {
        Task();
        Executed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      std::unique_lock<std::mutex> Lock(WakeMutex);
      WakeCv.wait(Lock, [this] {
        return Stopping || Pending.load(std::memory_order_acquire) != 0;
      });
      if (Stopping && Pending.load(std::memory_order_acquire) == 0)
        return;
    }
  }

  std::vector<std::unique_ptr<WorkerQueue>> Queues;
  std::vector<std::thread> Workers;
  std::mutex WakeMutex;
  std::condition_variable WakeCv;
  std::atomic<uint64_t> NextQueue{0};
  std::atomic<uint64_t> Pending{0};
  std::atomic<uint64_t> Submitted{0};
  std::atomic<uint64_t> Executed{0};
  std::atomic<uint64_t> Stolen{0};
  std::atomic<uint64_t> InlineRuns{0};
  bool Stopping = false;

  static thread_local const ThreadPool *CurrentPool;
  static thread_local unsigned CurrentWorker;
};

/// Runs Fn(0), ..., Fn(N-1), fanning the calls out across \p Pool when one
/// is available. The waiting thread steals queued tasks, so a pool shared
/// with other work still makes progress. A null pool, an empty pool, or a
/// trip count of one degrades to a plain serial loop.
template <typename FnT>
void parallelFor(ThreadPool *Pool, size_t N, const FnT &Fn) {
  if (!Pool || Pool->numThreads() == 0 || N < 2) {
    for (size_t I = 0; I != N; ++I)
      Fn(I);
    return;
  }
  std::atomic<size_t> Done{0};
  for (size_t I = 0; I != N; ++I)
    Pool->submit([&, I] {
      Fn(I);
      Done.fetch_add(1, std::memory_order_acq_rel);
    });
  while (Done.load(std::memory_order_acquire) != N)
    if (!Pool->runOneTask())
      std::this_thread::yield();
}

} // namespace ppd

#endif // PPD_SUPPORT_THREADPOOL_H
