//===- log/PageStore.cpp - pread-backed paged view of a v2 log ------------===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//

#include "log/PageStore.h"

#include "log/BufferPool.h"
#include "log/LogFormatV2.h"

#include <algorithm>
#include <cerrno>
#include <fcntl.h>
#include <limits>
#include <sys/stat.h>
#include <unistd.h>

using namespace ppd;

namespace {

std::atomic<uint64_t> NextStoreId{1};

/// One open-time header read: a section's length prefix plus its header
/// fits unless the root call has very many arguments, in which case the
/// read grows to the section's whole extent.
constexpr size_t HeaderWindow = 256;

int64_t mtimeNs(const struct stat &St) {
  return int64_t(St.st_mtim.tv_sec) * 1000000000 + St.st_mtim.tv_nsec;
}

} // namespace

PageStore::~PageStore() {
  if (Fd >= 0)
    ::close(Fd);
}

std::shared_ptr<PageStore> PageStore::make() {
  // shared_ptr<PageStore> with a private ctor: construct through a local
  // subclass that re-exposes it.
  struct Openable : PageStore {};
  return std::make_shared<Openable>();
}

std::shared_ptr<const PageStore> PageStore::open(const std::string &Path,
                                                std::string *Error) {
  auto Store = make();
  Store->Path = Path;
  auto Fail = [&](std::string Why) -> std::shared_ptr<const PageStore> {
    if (Error)
      *Error = std::move(Why);
    return nullptr;
  };

  Store->Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Store->Fd < 0)
    return Fail("cannot open '" + Path + "'");
  struct stat St;
  if (::fstat(Store->Fd, &St) != 0 || St.st_size < 0)
    return Fail("cannot stat '" + Path + "'");
  Store->FileBytes = size_t(St.st_size);
  Store->MtimeNs = mtimeNs(St);
  if (std::string Why = Store->parse(); !Why.empty())
    return Fail(std::move(Why));
  return Store;
}

std::shared_ptr<const PageStore> PageStore::fromLog(const ExecutionLog &Log,
                                                   std::string Source) {
  auto Store = make();
  Store->Path = std::move(Source);
  v2::writeLog(Store->Image, Log);
  Store->FileBytes = Store->Image.size();
  if (std::string Why = Store->parse(); !Why.empty()) {
    Store->Sections.clear();
    Store->fail(Why);
  }
  return Store;
}

PagedLog PagedLog::fromLog(const ExecutionLog &Log) {
  return {PageStore::fromLog(Log),
          std::make_shared<BufferPool>(std::numeric_limits<size_t>::max())};
}

std::string PageStore::parse() {
  StoreId = NextStoreId.fetch_add(1, std::memory_order_relaxed);
  // Walk the header structure with bounded reads: magic/version and the
  // process count, each section's length prefix and header, the output
  // trailer. Record bodies are not read — open cost is proportional to
  // process count, not log size.
  std::vector<uint8_t> Buf;
  if (!readAt(0, std::min(FileBytes, HeaderWindow), Buf))
    return failure();
  ByteReader R(Buf.data(), Buf.size());
  if (R.u32() != v2::FileMagic || !R.ok())
    return "'" + Path + "' is not a PPD log (bad magic)";
  uint32_t Version = R.u32();
  if (Version != uint32_t(LogFormat::V2))
    return "'" + Path + "' has unknown format version " +
           std::to_string(Version);
  uint64_t NumProcs = R.varint();
  if (!R.ok() || NumProcs > FileBytes)
    return "'" + Path + "' is corrupt (bad process count)";

  size_t Offset = Buf.size() - R.remaining();
  for (uint64_t I = 0; I != NumProcs; ++I) {
    if (!readAt(Offset, std::min(FileBytes - Offset, HeaderWindow), Buf))
      return failure();
    ByteReader Window(Buf.data(), Buf.size());
    uint64_t Len = Window.varint();
    size_t Start = Offset + (Buf.size() - Window.remaining());
    if (!Window.ok() || Len > FileBytes - Start)
      return "'" + Path + "' is corrupt (bad section extent)";
    SectionMeta &M = Sections.emplace_back();
    M.Offset = Start;
    M.EncodedBytes = Len;
    bool Whole = Len <= Window.remaining();
    ByteReader Head = Window.sub(size_t(Whole ? Len : Window.remaining()));
    v2::SectionHeader Header;
    if (!v2::readSectionHeader(Head, Header, Len)) {
      // Either corrupt, or a header longer than the window: then read
      // the whole extent and parse again.
      if (!Whole && !readAt(Start, size_t(Len), Buf))
        return failure();
      Head = ByteReader(Buf.data(), Buf.size());
      if (Whole || !v2::readSectionHeader(Head, Header, Len))
        return "'" + Path + "' is corrupt (bad section header)";
    }
    M.Pid = Header.Pid;
    M.RootFunc = Header.RootFunc;
    M.Args = std::move(Header.Args);
    M.NumRecords = Header.NumRecords;
    M.PrelogCount = Header.PrelogCount;
    Offset = Start + size_t(Len);
  }

  if (!readAt(Offset, FileBytes - Offset, Buf))
    return failure();
  R = ByteReader(Buf.data(), Buf.size());
  if (!v2::readOutput(R, Output) || !R.atEnd())
    return "'" + Path + "' is corrupt (bad output trailer)";

  return {};
}

bool PageStore::readAt(size_t Offset, size_t Len,
                       std::vector<uint8_t> &Buf) const {
  if (Fd < 0) {
    // The image never changes, so only an extent past its end can fail.
    if (Offset > Image.size() || Len > Image.size() - Offset) {
      fail("cannot read '" + Path + "'");
      return false;
    }
    Buf.assign(Image.data() + Offset, Image.data() + Offset + Len);
    return true;
  }
  Buf.resize(Len);
  size_t Got = 0;
  while (Got != Len) {
    ssize_t N = ::pread(Fd, Buf.data() + Got, Len - Got, off_t(Offset + Got));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Got += size_t(N);
  }
  // Checked after the read, so it covers the bytes just read: a file cut
  // or rewritten in place (rather than replaced by rename) no longer has
  // the size and mtime open() validated its extents against.
  struct stat St;
  if (::fstat(Fd, &St) != 0 || size_t(St.st_size) != FileBytes ||
      mtimeNs(St) != MtimeNs) {
    fail("'" + Path + "' changed since it was opened");
    return false;
  }
  if (Got != Len) {
    fail("cannot read '" + Path + "'");
    return false;
  }
  return true;
}

bool PageStore::readSection(uint32_t Pid, std::vector<uint8_t> &Buf) const {
  if (Pid >= Sections.size() || failed())
    return false;
  const SectionMeta &M = Sections[Pid];
  return readAt(M.Offset, size_t(M.EncodedBytes), Buf);
}

bool PageStore::decodeSection(uint32_t Pid, ProcessLog &P) const {
  std::vector<uint8_t> Buf;
  if (!readSection(Pid, Buf))
    return false;
  if (v2::decodeSection(ByteReader(Buf.data(), Buf.size()), P))
    return true;
  markCorrupt("section " + std::to_string(Pid) + " does not decode");
  return false;
}

bool PageStore::skimIndex(uint32_t Pid, std::vector<LogInterval> &Intervals,
                          std::vector<uint32_t> &Open, SyncRows *Sync) const {
  std::vector<uint8_t> Buf;
  if (!readSection(Pid, Buf))
    return false;
  if (v2::skimSection(ByteReader(Buf.data(), Buf.size()), Intervals, Open,
                      Sync))
    return true;
  markCorrupt("section " + std::to_string(Pid) + " does not decode");
  return false;
}

std::string PageStore::failure() const {
  std::lock_guard<std::mutex> Lock(FailureMutex);
  return Failure;
}

void PageStore::markCorrupt(const std::string &What) const {
  fail("'" + Path + "' is corrupt (" + What + ")");
}

void PageStore::fail(const std::string &Why) const {
  std::lock_guard<std::mutex> Lock(FailureMutex);
  if (Failure.empty())
    Failure = Why;
  Failed.store(true, std::memory_order_release);
}

LogIndex::LogIndex(const PageStore &Store) {
  size_t NumProcs = Store.numProcs();
  Intervals.resize(NumProcs);
  OpenIntervals.resize(NumProcs);
  for (uint32_t Pid = 0; Pid != NumProcs; ++Pid) {
    // A failed skim marks the store failed, and every consumer of this
    // index checks the store before answering; the failed process's
    // tables are left empty rather than half-built.
    if (!Store.skimIndex(Pid, Intervals[Pid], OpenIntervals[Pid])) {
      Intervals[Pid].clear();
      OpenIntervals[Pid].clear();
    }
  }
}
