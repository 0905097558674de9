//===- server/SessionRegistry.cpp -----------------------------------------===//
//
// Part of PPD. See SessionRegistry.h.
//
//===----------------------------------------------------------------------===//

#include "server/SessionRegistry.h"

#include "log/ProgramDb.h"

using namespace ppd;

SessionRegistry::SessionRegistry(SessionRegistryOptions Options)
    : Options(Options) {
  if (this->Options.ReplayThreads > 0)
    ReplayPool = std::make_unique<ThreadPool>(this->Options.ReplayThreads);
}

SessionRegistry::~SessionRegistry() = default;

uint32_t SessionRegistry::addProgram(std::unique_ptr<CompiledProgram> Prog,
                                     const ExecutionLog &Log) {
  return addProgram(std::move(Prog),
                    PagedLog{PageStore::fromLog(Log), nullptr});
}

uint32_t SessionRegistry::addProgram(
    std::unique_ptr<CompiledProgram> Prog, PagedLog Log,
    std::shared_ptr<const LogIndex> Index,
    std::shared_ptr<const ParallelDynamicGraph> Graph) {
  if (!Log.Pool)
    Log.Pool = sectionPool();
  std::lock_guard<std::mutex> Lock(Mutex);
  ProgramEntry Entry;
  Entry.Prog = std::move(Prog);
  Entry.Index = Index ? std::move(Index)
                      : std::make_shared<const LogIndex>(*Log.Store);
  Entry.Graph = std::move(Graph);
  Entry.Log = std::move(Log);
  return pushProgram(std::move(Entry));
}

std::shared_ptr<BufferPool> SessionRegistry::sectionPool() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!SectionPool)
    SectionPool = std::make_shared<BufferPool>(Options.PoolBudget);
  return SectionPool;
}

uint32_t SessionRegistry::pushProgram(ProgramEntry Entry) {
  Entry.Hash = programHash(*Entry.Prog);
  Entry.Cache = std::make_shared<ReplayCache<ReplayResult>>(
      Options.CacheBytes, Options.CacheShards);
  Entry.Flights = std::make_shared<ReplayFlightTable>();
  Programs.push_back(std::move(Entry));
  return uint32_t(Programs.size() - 1);
}

size_t SessionRegistry::numPrograms() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Programs.size();
}

uint64_t SessionRegistry::open(uint32_t ProgramIndex) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (ProgramIndex >= Programs.size())
    return 0;
  if (Options.MaxSessions != 0 && Sessions.size() >= Options.MaxSessions)
    return 0;
  ProgramEntry &Entry = Programs[ProgramIndex];

  PpdControllerOptions COpts;
  COpts.Service.SharedCache = Entry.Cache;
  COpts.Service.SharedFlights = Entry.Flights;
  COpts.Service.SharedPool = ReplayPool.get();

  auto S = std::make_shared<Session>();
  S->Id = NextId++;
  S->ProgramIndex = ProgramIndex;
  // Sessions share the program's store, index and pool: record bodies
  // fault in through the pool and are never duplicated per session.
  COpts.AdoptedGraph = Entry.Graph;
  S->Controller = std::make_unique<PpdController>(*Entry.Prog, Entry.Log,
                                                  Entry.Index, COpts);
  S->Debug = std::make_unique<DebugSession>(*Entry.Prog, *S->Controller);
  S->LastUsedTick = ++Tick;
  Sessions.emplace(S->Id, S);
  return S->Id;
}

SessionRegistry::Handle SessionRegistry::acquire(uint64_t Id) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Sessions.find(Id);
  if (It == Sessions.end() || It->second->Closed)
    return Handle();
  It->second->LastUsedTick = ++Tick;
  return Handle(It->second);
}

bool SessionRegistry::close(uint64_t Id) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Sessions.find(Id);
  if (It == Sessions.end() || It->second->Closed)
    return false;
  It->second->Closed = true;
  Sessions.erase(It);
  return true;
}

unsigned SessionRegistry::evictIdle(uint64_t IdleTicks) {
  std::lock_guard<std::mutex> Lock(Mutex);
  unsigned Evicted = 0;
  for (auto It = Sessions.begin(); It != Sessions.end();) {
    Session &S = *It->second;
    bool Idle = Tick >= S.LastUsedTick && Tick - S.LastUsedTick >= IdleTicks;
    if (Idle && S.Pins.load(std::memory_order_relaxed) == 0) {
      It = Sessions.erase(It);
      ++Evicted;
    } else {
      ++It;
    }
  }
  return Evicted;
}

size_t SessionRegistry::numSessions() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Sessions.size();
}

ReplayServiceStats SessionRegistry::aggregateReplayStats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  ReplayServiceStats Out;
  // The shared caches know hits/misses across all sessions — including
  // already-evicted ones — so cache numbers come from the program
  // entries, engine counters from the live sessions.
  for (const ProgramEntry &Entry : Programs) {
    ReplayCacheStats C = Entry.Cache->stats();
    Out.Cache.Hits += C.Hits;
    Out.Cache.Misses += C.Misses;
    Out.Cache.Insertions += C.Insertions;
    Out.Cache.Evictions += C.Evictions;
    Out.Cache.Bytes += C.Bytes;
    Out.Cache.Entries += C.Entries;
  }
  for (const auto &KV : Sessions) {
    ReplayServiceStats S =
        KV.second->Controller->replayService().stats();
    Out.EngineReplays += S.EngineReplays;
    Out.EngineInstructions += S.EngineInstructions;
    Out.PrefetchesIssued += S.PrefetchesIssued;
  }
  if (ReplayPool)
    Out.Pool = ReplayPool->stats();
  // Buffer-pool stats: programs may share one pool (the registry's) or
  // bring their own, so sum each distinct pool exactly once.
  std::vector<const BufferPool *> Seen;
  auto AddPool = [&](const std::shared_ptr<BufferPool> &P) {
    if (!P)
      return;
    for (const BufferPool *Q : Seen)
      if (Q == P.get())
        return;
    Seen.push_back(P.get());
    BufferPoolStats B = P->stats();
    Out.Buffer.Hits += B.Hits;
    Out.Buffer.Misses += B.Misses;
    Out.Buffer.Evictions += B.Evictions;
    Out.Buffer.Insertions += B.Insertions;
    Out.Buffer.BytesResident += B.BytesResident;
    Out.Buffer.BytesPinned += B.BytesPinned;
    Out.Buffer.Entries += B.Entries;
    Out.Buffer.PeakBytes += B.PeakBytes;
    Out.Buffer.Budget += B.Budget;
  };
  AddPool(SectionPool);
  for (const ProgramEntry &Entry : Programs)
    AddPool(Entry.Log.Pool);
  return Out;
}
