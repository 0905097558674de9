//===- log/PageStore.h - mmap-backed paged view of a v2 log -----*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PageStore is a read-only, mmap-backed view of a v2 log file that
/// exposes each process section as an independently decodable extent —
/// the storage half of the paged log tier (DESIGN.md §12). Opening a
/// store costs one mmap plus a header walk (section length prefixes and
/// section headers only); record bodies stay on disk until a BufferPool
/// faults a section in, and the kernel pages the mapped bytes in and out
/// underneath.
///
/// The v2 format was built for exactly this slicing: the file is
/// magic/version, a process count, then length-prefixed self-contained
/// sections, then the output trailer. Every section decodes (or skims)
/// from its own byte range with no shared state, so fault-in is
/// trivially parallel and a skim-built LogIndex never touches record
/// bodies at all.
///
/// PageStores are immutable after open() and shared by shared_ptr: one
/// store serves every session debugging that log, keyed into the shared
/// BufferPool by its process-unique id().
///
//===----------------------------------------------------------------------===//

#ifndef PPD_LOG_PAGESTORE_H
#define PPD_LOG_PAGESTORE_H

#include "log/ExecutionLog.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ppd {

class BufferPool;

class PageStore {
public:
  /// One process section's header fields plus its byte extent. Parsed
  /// eagerly at open() — the header is a few varints; the record stream
  /// (NumRecords records, EncodedBytes total) is what stays cold.
  struct SectionMeta {
    uint32_t Pid = 0;
    uint32_t RootFunc = 0;
    std::vector<int64_t> Args;
    uint64_t NumRecords = 0;
    uint64_t PrelogCount = 0;
    uint64_t EncodedBytes = 0; ///< whole section: header + records.
    size_t Offset = 0;         ///< section start within the file.
  };

  /// Maps \p Path and validates the header, section extents, section
  /// headers, and output trailer (record bodies are not decoded). Returns
  /// null on failure with a human-readable reason in \p Error (an unknown
  /// format version is named in it).
  static std::shared_ptr<const PageStore> open(const std::string &Path,
                                               std::string *Error = nullptr);

  ~PageStore();
  PageStore(const PageStore &) = delete;
  PageStore &operator=(const PageStore &) = delete;

  uint32_t numProcs() const { return uint32_t(Sections.size()); }
  const SectionMeta &section(uint32_t Pid) const { return Sections[Pid]; }
  const std::vector<OutputRecord> &output() const { return Output; }
  const std::string &path() const { return Path; }
  size_t fileBytes() const { return FileBytes; }

  /// Process-unique store identity, assigned at open(). BufferPool keys
  /// frames by (id, pid), so re-opening the same file never aliases stale
  /// pool entries.
  uint64_t id() const { return StoreId; }

  /// Decodes process \p Pid's full section into \p P (the buffer pool's
  /// fault-in path). Thread-safe; touches only that section's bytes.
  /// False if the record stream is corrupt.
  bool decodeSection(uint32_t Pid, ProcessLog &P) const;

  /// Builds process \p Pid's interval tree straight from the encoded
  /// bytes (v2::skimSection): record bodies are never materialized.
  bool skimIndex(uint32_t Pid, std::vector<LogInterval> &Intervals,
                 std::vector<uint32_t> &Open) const;

  /// An ExecutionLog with every per-process header (pid, root function,
  /// args, prelog count) and the output trailer filled in, but empty
  /// record streams. Pooled sessions hold this facade wherever the
  /// whole-load path held a real log — consumers that only need process
  /// count, headers, or output work unchanged; record access goes through
  /// BufferPool pins.
  ExecutionLog facadeLog() const;

private:
  PageStore() = default;

  /// The encoded byte range of one section (header + records).
  const uint8_t *sectionData(uint32_t Pid) const {
    return Data + Sections[Pid].Offset;
  }

  std::string Path;
  uint64_t StoreId = 0;

  // The file's bytes: an mmap when available, else a heap copy. Data/
  // FileBytes always describe the usable span.
  const uint8_t *Data = nullptr;
  size_t FileBytes = 0;
  void *MapBase = nullptr; ///< non-null iff mmap'd (munmap target).
  std::vector<uint8_t> Fallback;

  std::vector<SectionMeta> Sections;
  std::vector<OutputRecord> Output;
};

/// A paged log: the immutable store plus the pool that faults its
/// sections in. The unit the pooled controller/session stack passes
/// around where the whole-load path passed an ExecutionLog.
struct PagedLog {
  std::shared_ptr<const PageStore> Store;
  std::shared_ptr<BufferPool> Pool;

  explicit operator bool() const { return Store != nullptr && Pool != nullptr; }
};

} // namespace ppd

#endif // PPD_LOG_PAGESTORE_H
