//===- core/ReplayService.cpp ---------------------------------------------===//
//
// Part of PPD. See ReplayService.h.
//
//===----------------------------------------------------------------------===//

#include "core/ReplayService.h"

#include <algorithm>
#include <cassert>

using namespace ppd;

namespace {

/// Accounted size of one cached replay: the trace itself plus the shadow
/// state vectors the controller inspects.
size_t replayBytes(const ReplayResult &R) {
  size_t Bytes = sizeof(ReplayResult) + R.Events.byteSize();
  Bytes += 8 * (R.Shared.size() + R.PrivateGlobals.size() +
                R.RootSlots.size());
  Bytes += sizeof(OutputRecord) * R.Output.size();
  Bytes += sizeof(ReplayMismatch) * R.PostlogMismatches.size();
  return Bytes;
}

} // namespace

uint64_t
ParallelReplayer::fingerprint(const std::vector<ReplayOverride> &Overrides) {
  uint64_t H = 0;
  for (const ReplayOverride &O : Overrides) {
    uint64_t Fields[4] = {O.AtEvent, O.Var, uint64_t(O.Index),
                          uint64_t(O.Value)};
    for (uint64_t F : Fields) {
      H ^= F + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
    }
  }
  // Reserve 0 for the faithful (override-free) replay.
  return Overrides.empty() ? 0 : (H ? H : 1);
}

std::string ppd::renderReplayServiceStats(const ReplayServiceStats &Stats) {
  std::string Out;
  Out += "cache: hits " + std::to_string(Stats.Cache.Hits) + ", misses " +
         std::to_string(Stats.Cache.Misses) + ", entries " +
         std::to_string(Stats.Cache.Entries) + ", bytes " +
         std::to_string(Stats.Cache.Bytes) + ", evictions " +
         std::to_string(Stats.Cache.Evictions) + ", prefetches " +
         std::to_string(Stats.PrefetchesIssued) + "\n";
  Out += "pool: submitted " + std::to_string(Stats.Pool.Submitted) +
         ", executed " + std::to_string(Stats.Pool.Executed) + ", stolen " +
         std::to_string(Stats.Pool.Stolen) + ", inline " +
         std::to_string(Stats.Pool.InlineRuns) + "\n";
  Out += "bufferpool: hits " + std::to_string(Stats.Buffer.Hits) +
         ", misses " + std::to_string(Stats.Buffer.Misses) +
         ", evictions " + std::to_string(Stats.Buffer.Evictions) +
         ", resident " + std::to_string(Stats.Buffer.BytesResident) +
         ", pinned " + std::to_string(Stats.Buffer.BytesPinned) +
         ", peak " + std::to_string(Stats.Buffer.PeakBytes) +
         ", budget " + std::to_string(Stats.Buffer.Budget) + "\n";
  return Out;
}

ParallelReplayer::ParallelReplayer(const CompiledProgram &Prog,
                                   PagedLog Log, const LogIndex &Index,
                                   ReplayServiceOptions Options)
    : Prog(Prog), Log(std::move(Log)), Index(Index), Options(Options),
      Engine(Prog) {
  assert(bool(this->Options.SharedCache) ==
             bool(this->Options.SharedFlights) &&
         "a shared cache needs a shared single-flight table (and vice "
         "versa) — they dedupe the same keyspace");
  if (this->Options.SharedCache) {
    Cache = this->Options.SharedCache;
    Flights = this->Options.SharedFlights;
  } else {
    Cache = std::make_shared<ReplayCache<ReplayResult>>(
        this->Options.CacheBytes, this->Options.CacheShards);
    Flights = std::make_shared<ReplayFlightTable>();
  }
  if (this->Options.SharedPool) {
    Pool = this->Options.SharedPool;
  } else {
    OwnedPool = std::make_unique<ThreadPool>(this->Options.Threads);
    Pool = OwnedPool.get();
  }
}

ParallelReplayer::~ParallelReplayer() { drain(); }

void ParallelReplayer::drain() {
  std::unique_lock<std::mutex> Lock(BackgroundMutex);
  BackgroundCv.wait(Lock, [this] { return BackgroundPending == 0; });
}

void ParallelReplayer::finishBackgroundTask() {
  std::lock_guard<std::mutex> Lock(BackgroundMutex);
  if (--BackgroundPending == 0)
    BackgroundCv.notify_all();
}

ParallelReplayer::ReplayPtr
ParallelReplayer::replayMiss(const ReplayKey &Key,
                             const std::vector<ReplayOverride> &Overrides) {
  // Single-flight: the first requester replays; concurrent requesters for
  // the same key share its future instead of redoing the work.
  std::promise<ReplayPtr> Promise;
  {
    std::unique_lock<std::mutex> Lock(Flights->Mutex);
    auto It = Flights->Pending.find(Key);
    if (It != Flights->Pending.end()) {
      std::shared_future<ReplayPtr> Future = It->second;
      Lock.unlock();
      return Future.get();
    }
    // No flight in progress — but a leader may have finished between our
    // caller's cache miss and this lock: it inserts into the cache before
    // erasing its flight, so re-checking the cache here closes the window
    // where we would redo its replay.
    if (ReplayPtr Cached = Cache->peek(Key))
      return Cached;
    Flights->Pending.emplace(Key, Promise.get_future().share());
  }

  assert(Key.Interval < Index.intervals(Key.Pid).size() &&
         "interval index out of range");
  ReplayOptions ROpts;
  ROpts.Overrides = Overrides;
  // Fault the section in and pin it for exactly the span of the interval
  // re-execution; the pin releases before the result is published, so
  // cached hits hold no pool memory. A failed pin or a record the program
  // cannot have leaves the store failed; the controller's caller reports
  // its failure().
  const PageStore &Store = *Log.Store;
  ReplayResult Replay;
  if (BufferPool::Pin Pin = Log.Pool->pin(Store, Key.Pid)) {
    Replay = Engine.replay(Pin.log(), Key.Pid,
                           Index.intervals(Key.Pid)[Key.Interval], ROpts);
    if (Replay.BadRecord)
      Store.markCorrupt("section " + std::to_string(Key.Pid) + ": " +
                        Replay.Error);
  } else {
    Replay.Error = Store.failure();
  }
  auto Result = std::make_shared<const ReplayResult>(std::move(Replay));
  EngineReplays.fetch_add(1, std::memory_order_relaxed);
  EngineInstructions.fetch_add(Result->Instructions,
                               std::memory_order_relaxed);
  Cache->insert(Key, Result, replayBytes(*Result));

  Promise.set_value(Result);
  {
    std::lock_guard<std::mutex> Lock(Flights->Mutex);
    Flights->Pending.erase(Key);
  }
  return Result;
}

ParallelReplayer::ReplayPtr
ParallelReplayer::get(uint32_t Pid, uint32_t IntervalIdx,
                      const std::vector<ReplayOverride> &Overrides) {
  ReplayKey Key{Pid, IntervalIdx, fingerprint(Overrides)};
  if (ReplayPtr Cached = Cache->lookup(Key))
    return Cached;
  return replayMiss(Key, Overrides);
}

std::vector<ParallelReplayer::ReplayPtr>
ParallelReplayer::getMany(const std::vector<IntervalRef> &Requests) {
  std::vector<ReplayPtr> Results(Requests.size());
  if (Requests.empty())
    return Results;

  // Serial pool (or a single request): no coordination needed.
  if (Pool->numThreads() == 0 || Requests.size() == 1) {
    for (size_t I = 0; I != Requests.size(); ++I)
      Results[I] = get(Requests[I].first, Requests[I].second);
    return Results;
  }

  struct FanOut {
    std::mutex Mutex;
    std::condition_variable Cv;
    size_t Remaining;
  };
  auto State = std::make_shared<FanOut>();
  State->Remaining = Requests.size();

  for (size_t I = 0; I != Requests.size(); ++I) {
    Pool->submit([this, &Results, &Requests, State, I] {
      Results[I] = get(Requests[I].first, Requests[I].second);
      std::lock_guard<std::mutex> Lock(State->Mutex);
      if (--State->Remaining == 0)
        State->Cv.notify_all();
    });
  }

  // Help drain the queue rather than idling; the single-flight table
  // guarantees we never duplicate a replay already in progress.
  while (Pool->runOneTask())
    ;
  std::unique_lock<std::mutex> Lock(State->Mutex);
  State->Cv.wait(Lock, [&] { return State->Remaining == 0; });
  return Results;
}

std::vector<ParallelReplayer::IntervalRef>
ParallelReplayer::transitiveIntervals(uint32_t Pid,
                                      uint32_t IntervalIdx) const {
  const std::vector<LogInterval> &Intervals = Index.intervals(Pid);
  std::vector<IntervalRef> Out;
  if (IntervalIdx >= Intervals.size())
    return Out;
  std::vector<bool> Seen(Intervals.size(), false);
  auto Add = [&](uint32_t Idx) {
    if (Idx < Intervals.size() && !Seen[Idx]) {
      Seen[Idx] = true;
      Out.push_back({Pid, Idx});
    }
  };

  // The interval itself, then the ancestor chain with each level's
  // preceding siblings (their postlogs produced the prelog's values).
  for (uint32_t Walk = IntervalIdx; Walk != InvalidId;
       Walk = Intervals[Walk].Parent) {
    Add(Walk);
    for (const LogInterval &Other : Intervals)
      if (Other.Parent == Intervals[Walk].Parent &&
          Other.PrelogRecord < Intervals[Walk].PrelogRecord)
        Add(Other.Index);
  }
  // Direct children: the sub-graph nodes an expand query opens.
  for (const LogInterval &Other : Intervals)
    if (Other.Parent == IntervalIdx)
      Add(Other.Index);
  return Out;
}

void ParallelReplayer::prefetchNeighbors(uint32_t Pid,
                                         uint32_t IntervalIdx) {
  if (!Options.Prefetch || Pool->numThreads() == 0)
    return;
  const std::vector<LogInterval> &Intervals = Index.intervals(Pid);
  if (IntervalIdx >= Intervals.size())
    return;
  const LogInterval &Interval = Intervals[IntervalIdx];

  std::vector<uint32_t> Targets;
  if (Interval.Parent != InvalidId)
    Targets.push_back(Interval.Parent);
  // Preceding sibling: same parent, greatest prelog before ours.
  const LogInterval *Sibling = nullptr;
  for (const LogInterval &Other : Intervals)
    if (Other.Parent == Interval.Parent &&
        Other.PrelogRecord < Interval.PrelogRecord &&
        (!Sibling || Other.PrelogRecord > Sibling->PrelogRecord))
      Sibling = &Other;
  if (Sibling)
    Targets.push_back(Sibling->Index);

  for (uint32_t Target : Targets) {
    {
      std::lock_guard<std::mutex> Lock(BackgroundMutex);
      ++BackgroundPending;
    }
    PrefetchesIssued.fetch_add(1, std::memory_order_relaxed);
    Pool->submit([this, Pid, Target] {
      get(Pid, Target);
      finishBackgroundTask();
    });
  }
}

ReplayServiceStats ParallelReplayer::stats() const {
  ReplayServiceStats Out;
  Out.Cache = Cache->stats();
  Out.Pool = Pool->stats();
  Out.EngineReplays = EngineReplays.load(std::memory_order_relaxed);
  Out.EngineInstructions =
      EngineInstructions.load(std::memory_order_relaxed);
  Out.PrefetchesIssued = PrefetchesIssued.load(std::memory_order_relaxed);
  Out.Buffer = Log.Pool->stats();
  return Out;
}
