//===- log/LogIO.h - Log file I/O primitives --------------------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte-level machinery under ExecutionLog::save/load:
///
///   * FileHandle — RAII ownership of a C stdio stream, so no early return
///     in the load/save paths can leak a FILE*;
///   * LogWriter — an in-memory byte buffer with fixed-width, LEB128
///     varint, and zigzag emitters; serialization batches into it and
///     publishes the file with one fwrite and a rename;
///   * ByteReader — bounds-checked decoding over an in-memory span, with
///     the same three codecs. Sub-spans let the v2 loader hand each
///     process section to a different thread.
///
/// Multi-byte fixed-width values use the host's (little-endian) layout.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_LOG_LOGIO_H
#define PPD_LOG_LOGIO_H

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace ppd {

/// RAII wrapper for std::fopen/fclose.
class FileHandle {
public:
  FileHandle(const std::string &Path, const char *Mode)
      : File(std::fopen(Path.c_str(), Mode)) {}
  FileHandle(const FileHandle &) = delete;
  FileHandle &operator=(const FileHandle &) = delete;
  ~FileHandle() {
    if (File)
      std::fclose(File);
  }

  explicit operator bool() const { return File != nullptr; }
  FILE *get() const { return File; }

  /// Closes now; true iff the stream flushed cleanly. Safe to call once.
  bool close() {
    if (!File)
      return false;
    bool Ok = std::fclose(File) == 0;
    File = nullptr;
    return Ok;
  }

private:
  FILE *File;
};

/// ZigZag maps small-magnitude signed values onto small unsigned varints.
inline uint64_t zigzagEncode(int64_t V) {
  return (uint64_t(V) << 1) ^ uint64_t(V >> 63);
}
inline int64_t zigzagDecode(uint64_t V) {
  return int64_t(V >> 1) ^ -int64_t(V & 1);
}

/// Buffered serialization sink. A raw tail-pointer buffer rather than a
/// std::vector of bytes: the save path emits hundreds of thousands of
/// one-byte varint pieces, and a single capacity check per field (not per
/// byte) is what keeps varint-heavy saves fast.
class LogWriter {
public:
  LogWriter() = default;
  LogWriter(const LogWriter &) = delete;
  LogWriter &operator=(const LogWriter &) = delete;
  LogWriter(LogWriter &&Other) noexcept
      : Begin(Other.Begin), Cur(Other.Cur), End(Other.End) {
    Other.Begin = Other.Cur = Other.End = nullptr;
  }
  LogWriter &operator=(LogWriter &&Other) noexcept {
    if (this != &Other) {
      ::operator delete(Begin);
      Begin = Other.Begin;
      Cur = Other.Cur;
      End = Other.End;
      Other.Begin = Other.Cur = Other.End = nullptr;
    }
    return *this;
  }
  ~LogWriter() { ::operator delete(Begin); }

  void u8(uint8_t V) {
    ensure(1);
    *Cur++ = V;
  }
  void u32(uint32_t V) { fixed(&V, 4); }
  void u64(uint64_t V) { fixed(&V, 8); }

  /// LEB128. One capacity check covers the worst-case 10 bytes.
  void varint(uint64_t V) {
    ensure(10);
    varintUnchecked(V);
  }
  void svarint(int64_t V) { varint(zigzagEncode(V)); }

  /// Unchecked emitters: callers that know a record's worst-case size can
  /// hoist one ensure() over a burst of fields instead of paying a
  /// capacity branch per field (the v2 record writer's hot loop).
  void ensureBytes(size_t N) { ensure(N); }
  void u8Unchecked(uint8_t V) { *Cur++ = V; }
  void varintUnchecked(uint64_t V) {
    while (V >= 0x80) {
      *Cur++ = uint8_t(V) | 0x80;
      V >>= 7;
    }
    *Cur++ = uint8_t(V);
  }
  void svarintUnchecked(int64_t V) { varintUnchecked(zigzagEncode(V)); }

  void bytes(const LogWriter &Other) {
    size_t N = Other.size();
    ensure(N);
    std::memcpy(Cur, Other.Begin, N);
    Cur += N;
  }

  void reserve(size_t N) {
    if (capacity() < N)
      grow(N - size());
  }

  size_t size() const { return size_t(Cur - Begin); }
  const uint8_t *data() const { return Begin; }

  /// Publishes the buffer as \p Path: one open + one fwrite + one close
  /// of `Path + ".tmp"`, then a rename over \p Path. A reader that has the
  /// old file open or mapped keeps the old inode instead of watching it
  /// truncate underneath it, and no reader ever sees a half-written file.
  /// On failure the temp file is removed and \p Path is left untouched.
  bool writeFile(const std::string &Path) const {
    std::string TmpPath = Path + ".tmp";
    FileHandle File(TmpPath, "wb");
    if (!File)
      return false;
    bool Ok = (size() == 0 ||
               std::fwrite(Begin, 1, size(), File.get()) == size()) &&
              File.close() &&
              std::rename(TmpPath.c_str(), Path.c_str()) == 0;
    if (!Ok)
      std::remove(TmpPath.c_str());
    return Ok;
  }

private:
  size_t capacity() const { return size_t(End - Begin); }

  void fixed(const void *Data, size_t Size) {
    ensure(Size);
    std::memcpy(Cur, Data, Size);
    Cur += Size;
  }

  void ensure(size_t N) {
    if (size_t(End - Cur) < N)
      grow(N);
  }

  void grow(size_t N) {
    size_t Size = this->size();
    size_t NewCap = capacity() < 64 ? 64 : capacity() * 2;
    while (NewCap - Size < N)
      NewCap *= 2;
    uint8_t *NewBuf = static_cast<uint8_t *>(::operator new(NewCap));
    if (Size != 0)
      std::memcpy(NewBuf, Begin, Size);
    ::operator delete(Begin);
    Begin = NewBuf;
    Cur = NewBuf + Size;
    End = NewBuf + NewCap;
  }

  uint8_t *Begin = nullptr;
  uint8_t *Cur = nullptr;
  uint8_t *End = nullptr;
};

/// Bounds-checked decoder over an in-memory byte span. Any read past the
/// end (truncation, corrupt counts) latches the failed state and returns
/// zeros from then on.
class ByteReader {
public:
  ByteReader() = default;
  ByteReader(const uint8_t *Data, size_t Size) : Cur(Data), End(Data + Size) {}

  bool ok() const { return !Failed; }
  void fail() { Failed = true; }
  size_t remaining() const { return size_t(End - Cur); }
  bool atEnd() const { return Cur == End; }

  uint8_t u8() {
    uint8_t V = 0;
    fixed(&V, 1);
    return V;
  }
  uint32_t u32() {
    uint32_t V = 0;
    fixed(&V, 4);
    return V;
  }
  uint64_t u64() {
    uint64_t V = 0;
    fixed(&V, 8);
    return V;
  }
  uint64_t varint() {
    // Fast path: the overwhelmingly common one-byte encoding.
    if (!Failed && Cur != End && *Cur < 0x80) [[likely]]
      return *Cur++;
    uint64_t V = 0;
    unsigned Shift = 0;
    for (;;) {
      if (Failed || Cur == End || Shift > 63) {
        Failed = true;
        return 0;
      }
      uint8_t B = *Cur++;
      V |= uint64_t(B & 0x7f) << Shift;
      if (!(B & 0x80))
        return V;
      Shift += 7;
    }
  }
  int64_t svarint() { return zigzagDecode(varint()); }

  /// Splits off the next \p Size bytes as an independent reader (a v2
  /// process section). Fails both readers on overrun.
  ByteReader sub(size_t Size) {
    if (Failed || Size > remaining()) {
      Failed = true;
      return ByteReader();
    }
    ByteReader R(Cur, Size);
    Cur += Size;
    return R;
  }

  /// Guards container pre-reservation against corrupt counts.
  bool plausibleCount(uint64_t N) {
    // A count can never exceed the bytes that remain to encode it: every
    // element costs at least one byte.
    if (N <= remaining() && N <= (uint64_t(1) << 28))
      return true;
    Failed = true;
    return false;
  }

private:
  void fixed(void *Data, size_t Size) {
    if (Failed || size_t(End - Cur) < Size) {
      Failed = true;
      return;
    }
    std::memcpy(Data, Cur, Size);
    Cur += Size;
  }

  const uint8_t *Cur = nullptr;
  const uint8_t *End = nullptr;
  bool Failed = false;
};

/// Reads a whole file into \p Out. False on open/read errors.
inline bool readFileBytes(const std::string &Path,
                          std::vector<uint8_t> &Out) {
  FileHandle File(Path, "rb");
  if (!File)
    return false;
  if (std::fseek(File.get(), 0, SEEK_END) != 0)
    return false;
  long Size = std::ftell(File.get());
  if (Size < 0 || std::fseek(File.get(), 0, SEEK_SET) != 0)
    return false;
  Out.resize(size_t(Size));
  return Out.empty() ||
         std::fread(Out.data(), 1, Out.size(), File.get()) == Out.size();
}

} // namespace ppd

#endif // PPD_LOG_LOGIO_H
