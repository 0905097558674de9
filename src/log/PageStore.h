//===- log/PageStore.h - pread-backed paged view of a v2 log ----*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PageStore is a read-only view of a v2 log that exposes each process
/// section as an independently decodable extent — the storage half of the
/// paged log tier (DESIGN.md §12) and the one record source every
/// controller reads through. Opening a store walks the headers with small
/// bounded reads (section length prefixes, section headers, the output
/// trailer); record bodies stay unread until a BufferPool faults a
/// section in, which reads that one extent into a short-lived buffer and
/// decodes it.
///
/// A store has one of two backings, and readAt() is the only code that
/// tells them apart:
///
///   * a file (open()): the store holds the descriptor it opened, so a
///     log replaced by rename keeps serving the inode that was validated.
///     A log truncated or rewritten in place is caught instead: every
///     read checks that the size and mtime recorded at open still hold;
///   * an in-memory image (fromLog()): a log a run just recorded, encoded
///     with the same v2 writer ExecutionLog::save uses. An image cannot
///     change after open, so only corruption can fail it.
///
/// The v2 format was built for exactly this slicing: magic/version, a
/// process count, then length-prefixed self-contained sections, then the
/// output trailer. Every section decodes (or skims) from its own byte
/// range with no shared state, so one section faults in alone and a
/// skim-built LogIndex never materializes record bodies.
///
/// A failed read, skim or decode marks the store failed, and the flag is
/// sticky — every consumer that would otherwise answer from partial data
/// reports failure() instead.
///
/// PageStores are shared by shared_ptr: one store serves every session
/// debugging that log, keyed into the shared BufferPool by its
/// process-unique id(). Apart from the sticky failure record they are
/// immutable once built.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_LOG_PAGESTORE_H
#define PPD_LOG_PAGESTORE_H

#include "log/ExecutionLog.h"
#include "log/LogIO.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
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
    size_t Offset = 0;         ///< section start within the file/image.
  };

  /// Opens \p Path and validates the header, section extents, section
  /// headers, and output trailer (record bodies are not decoded). Returns
  /// null on failure with a human-readable reason in \p Error (an unknown
  /// format version is named in it).
  static std::shared_ptr<const PageStore> open(const std::string &Path,
                                               std::string *Error = nullptr);

  /// Encodes \p Log into an owned v2 image and opens it through the same
  /// header walk as a file. Never null: an image whose headers do not
  /// parse comes back failed, with no sections. \p Source names the image
  /// in failure text (a stream id, say) where a file store names its path.
  static std::shared_ptr<const PageStore>
  fromLog(const ExecutionLog &Log, std::string Source = "in-memory log");

  ~PageStore();
  PageStore(const PageStore &) = delete;
  PageStore &operator=(const PageStore &) = delete;

  uint32_t numProcs() const { return uint32_t(Sections.size()); }
  const SectionMeta &section(uint32_t Pid) const { return Sections[Pid]; }
  const std::vector<OutputRecord> &output() const { return Output; }
  /// Bytes of the file or image.
  size_t fileBytes() const { return FileBytes; }

  /// Process-unique store identity, assigned when the store is built.
  /// BufferPool keys frames by (id, pid), so re-opening the same file
  /// never aliases stale pool entries.
  uint64_t id() const { return StoreId; }

  /// Decodes process \p Pid's full section into \p P (the buffer pool's
  /// fault-in path). Thread-safe; reads only that section's bytes. False
  /// — with the store marked failed — if the file changed since open or
  /// the record stream is corrupt.
  bool decodeSection(uint32_t Pid, ProcessLog &P) const;

  /// Builds process \p Pid's interval tree straight from the encoded
  /// bytes (v2::skimSection): record bodies are never materialized. Fails
  /// like decodeSection.
  bool skimIndex(uint32_t Pid, std::vector<LogInterval> &Intervals,
                 std::vector<uint32_t> &Open) const;

  /// True once any read, skim or decode failed, or a consumer reported
  /// the decoded records corrupt (markCorrupt()). Sticky: a failed store
  /// never reads again.
  bool failed() const { return Failed.load(std::memory_order_acquire); }

  /// Why the store failed — says whether the file changed since open or
  /// a section is corrupt. Empty while the store is healthy.
  std::string failure() const;

  /// Marks the store failed as corrupt, \p What saying how (the first
  /// failure's reason wins). For consumers that find decoded values
  /// wrong in ways the format alone cannot catch: sync sequence numbers
  /// that do not form one order, ids the program does not have.
  void markCorrupt(const std::string &What) const;

private:
  PageStore() = default;
  static std::shared_ptr<PageStore> make();

  /// Walks magic/version, the section extents and headers, and the output
  /// trailer into Sections/Output. Returns the reason it could not, or
  /// an empty string.
  std::string parse();
  /// Reads section \p Pid's whole extent (header + records) into \p Buf.
  bool readSection(uint32_t Pid, std::vector<uint8_t> &Buf) const;
  /// Reads \p Len bytes at \p Offset into \p Buf: a pread followed by a
  /// check that the file still has the size and mtime recorded at open,
  /// or a bounds-checked copy out of the image. On failure, marks the
  /// store failed and returns false.
  bool readAt(size_t Offset, size_t Len, std::vector<uint8_t> &Buf) const;
  void fail(const std::string &Why) const;

  std::string Path; ///< the file's path, or the image's source name.
  uint64_t StoreId = 0;
  int Fd = -1;       ///< file backing; -1 for an image.
  LogWriter Image;   ///< image backing; empty for a file.
  size_t FileBytes = 0;
  int64_t MtimeNs = 0; ///< file backing: st_mtim at open, in nanoseconds.

  std::vector<SectionMeta> Sections;
  std::vector<OutputRecord> Output;

  mutable std::atomic<bool> Failed{false};
  mutable std::mutex FailureMutex;
  mutable std::string Failure; ///< guarded by FailureMutex.
};

/// A paged log: the immutable store plus the pool that faults its
/// sections in. The unit the controller/session stack passes around.
struct PagedLog {
  std::shared_ptr<const PageStore> Store;
  std::shared_ptr<BufferPool> Pool;

  /// \p Log as an in-memory store with a private pool of unbounded
  /// budget: every section, once faulted in, stays resident.
  static PagedLog fromLog(const ExecutionLog &Log);

  explicit operator bool() const { return Store != nullptr && Pool != nullptr; }
};

} // namespace ppd

#endif // PPD_LOG_PAGESTORE_H
