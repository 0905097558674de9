//===- log/PageStore.cpp - mmap-backed paged view of a v2 log -------------===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//

#include "log/PageStore.h"

#include "log/LogFormatV2.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <cassert>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define PPD_HAVE_MMAP 1
#endif

using namespace ppd;

namespace {

std::atomic<uint64_t> NextStoreId{1};

/// Same shape as the loader's helper: fan Fn across the pool when one is
/// available, degrade to a serial loop otherwise.
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

void setError(std::string *Error, std::string Why) {
  if (Error)
    *Error = std::move(Why);
}

} // namespace

PageStore::~PageStore() {
#ifdef PPD_HAVE_MMAP
  if (MapBase)
    ::munmap(MapBase, FileBytes);
#endif
}

std::shared_ptr<const PageStore> PageStore::open(const std::string &Path,
                                                std::string *Error) {
  // shared_ptr<PageStore> with a private ctor: construct through a local
  // subclass that re-exposes it.
  struct Openable : PageStore {};
  auto Store = std::make_shared<Openable>();
  Store->Path = Path;

  // Map the file; fall back to a heap read where mmap is unavailable
  // (or fails — e.g. a pseudo file system). Either way Data/FileBytes
  // describe the same bytes.
#ifdef PPD_HAVE_MMAP
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0) {
    setError(Error, "cannot open '" + Path + "'");
    return nullptr;
  }
  struct stat St;
  if (::fstat(Fd, &St) != 0 || St.st_size < 0) {
    ::close(Fd);
    setError(Error, "cannot stat '" + Path + "'");
    return nullptr;
  }
  Store->FileBytes = size_t(St.st_size);
  if (Store->FileBytes != 0) {
    void *Map = ::mmap(nullptr, Store->FileBytes, PROT_READ, MAP_PRIVATE, Fd,
                       0);
    if (Map != MAP_FAILED) {
      Store->MapBase = Map;
      Store->Data = static_cast<const uint8_t *>(Map);
    }
  }
  ::close(Fd);
#endif
  if (!Store->Data) {
    if (!readFileBytes(Path, Store->Fallback)) {
      setError(Error, "cannot read '" + Path + "'");
      return nullptr;
    }
    Store->Data = Store->Fallback.data();
    Store->FileBytes = Store->Fallback.size();
  }

  // Walk the header structure: magic/version, section extents, section
  // headers, output trailer. Record bodies are not decoded — open() cost
  // is proportional to process count, not log size.
  ByteReader R(Store->Data, Store->FileBytes);
  if (R.u32() != v2::FileMagic || !R.ok()) {
    setError(Error, "'" + Path + "' is not a PPD log (bad magic)");
    return nullptr;
  }
  uint32_t Version = R.u32();
  if (Version != uint32_t(LogFormat::V2)) {
    setError(Error, "'" + Path + "' has unknown format version " +
                        std::to_string(Version));
    return nullptr;
  }

  uint64_t NumProcs = R.varint();
  if (!R.plausibleCount(NumProcs)) {
    setError(Error, "'" + Path + "' is corrupt (bad process count)");
    return nullptr;
  }
  Store->Sections.resize(NumProcs);
  for (uint64_t I = 0; I != NumProcs; ++I) {
    uint64_t Len = R.varint();
    if (!R.ok() || Len > R.remaining()) {
      setError(Error, "'" + Path + "' is corrupt (bad section extent)");
      return nullptr;
    }
    SectionMeta &M = Store->Sections[I];
    M.Offset = Store->FileBytes - R.remaining();
    M.EncodedBytes = Len;
    ByteReader Section = R.sub(size_t(Len));
    v2::SectionHeader Header;
    if (!v2::readSectionHeader(Section, Header)) {
      setError(Error, "'" + Path + "' is corrupt (bad section header)");
      return nullptr;
    }
    M.Pid = Header.Pid;
    M.RootFunc = Header.RootFunc;
    M.Args = std::move(Header.Args);
    M.NumRecords = Header.NumRecords;
    M.PrelogCount = Header.PrelogCount;
  }
  if (!v2::readOutput(R, Store->Output) || !R.atEnd()) {
    setError(Error, "'" + Path + "' is corrupt (bad output trailer)");
    return nullptr;
  }

  Store->StoreId = NextStoreId.fetch_add(1, std::memory_order_relaxed);
  return Store;
}

bool PageStore::decodeSection(uint32_t Pid, ProcessLog &P) const {
  assert(Pid < Sections.size() && "pid out of range");
  return v2::decodeSection(
      ByteReader(sectionData(Pid), size_t(Sections[Pid].EncodedBytes)), P);
}

bool PageStore::skimIndex(uint32_t Pid, std::vector<LogInterval> &Intervals,
                          std::vector<uint32_t> &Open) const {
  assert(Pid < Sections.size() && "pid out of range");
  return v2::skimSection(
      ByteReader(sectionData(Pid), size_t(Sections[Pid].EncodedBytes)),
      Intervals, Open);
}

ExecutionLog PageStore::facadeLog() const {
  ExecutionLog Log;
  Log.Procs.resize(Sections.size());
  for (size_t Pid = 0; Pid != Sections.size(); ++Pid) {
    const SectionMeta &M = Sections[Pid];
    ProcessLog &P = Log.Procs[Pid];
    P.Pid = M.Pid;
    P.RootFunc = M.RootFunc;
    P.Args = M.Args;
    // Records stay empty — pooled consumers pin sections instead. The
    // prelog count is real, so interval-count reservations still work.
    P.PrelogCount = uint32_t(M.PrelogCount);
  }
  Log.Output = Output;
  return Log;
}

LogIndex::LogIndex(const PageStore &Store, ThreadPool *Pool) {
  size_t NumProcs = Store.numProcs();
  Intervals.resize(NumProcs);
  OpenIntervals.resize(NumProcs);
  parallelFor(Pool, NumProcs, [&](size_t Pid) {
    bool Ok = Store.skimIndex(uint32_t(Pid), Intervals[Pid],
                              OpenIntervals[Pid]);
    // open() validated extents and headers; a skim can only fail on
    // corrupt record bytes, which decode would also reject.
    assert(Ok && "skim failed on a validated store");
    (void)Ok;
  });
}
