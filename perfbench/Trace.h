//===- perfbench/Trace.h - Benchmark-side spans -----------------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its calls into each PPD layer:
/// name, start, end, parent and the id of the episode or request they
/// belong to. Spans stay in memory and are written as Chrome trace-event
/// JSON when the run ends. A disabled tracer records nothing; its scopes
/// cost one branch.
///
/// Each thread records into its own buffer (no locking on the hot path);
/// buffers are merged when the trace is written.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_PERFBENCH_TRACE_H
#define PPD_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

struct Span {
  const char *Name = "";
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int32_t Parent = -1; ///< index into the same buffer, or -1.
  uint64_t Group = 0;  ///< episode or request id.
};

/// One thread's spans plus its open-span stack.
struct SpanBuffer {
  uint32_t Tid = 0;
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
  uint64_t Group = 0;

  int32_t begin(const char *Name) {
    Span S;
    S.Name = Name;
    S.Parent = Open.empty() ? -1 : Open.back();
    S.Group = Group;
    S.StartNs = nowNs();
    Spans.push_back(S);
    Open.push_back(int32_t(Spans.size() - 1));
    return Open.back();
  }
  void end() {
    Spans[size_t(Open.back())].EndNs = nowNs();
    Open.pop_back();
  }
};

class Tracer {
public:
  bool enabled() const { return Enabled; }
  void enable() { Enabled = true; }

  /// A fresh buffer for the calling thread; owned by the tracer.
  SpanBuffer *newBuffer() {
    std::lock_guard<std::mutex> Lock(Mutex);
    Buffers.push_back(std::make_unique<SpanBuffer>());
    Buffers.back()->Tid = uint32_t(Buffers.size());
    return Buffers.back().get();
  }

  const std::vector<std::unique_ptr<SpanBuffer>> &buffers() const {
    return Buffers;
  }

  size_t numSpans() const {
    size_t N = 0;
    for (const auto &B : Buffers)
      N += B->Spans.size();
    return N;
  }

  /// Writes every span as Chrome trace-event JSON ("X" events, microsecond
  /// timestamps) with \p Metadata (a JSON object) under "metadata".
  bool writeChromeTrace(const std::string &Path,
                        const std::string &Metadata) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "{\"metadata\": %s,\n\"traceEvents\": [\n",
                 Metadata.c_str());
    bool First = true;
    for (const auto &B : Buffers)
      for (const Span &S : B->Spans) {
        const char *Parent =
            S.Parent < 0 ? "" : B->Spans[size_t(S.Parent)].Name;
        std::fprintf(F,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                     "{\"id\": %llu, \"parent\": \"%s\"}}",
                     First ? "" : ",\n", S.Name, B->Tid,
                     double(S.StartNs) / 1e3,
                     double(S.EndNs - S.StartNs) / 1e3,
                     (unsigned long long)S.Group, Parent);
        First = false;
      }
    std::fprintf(F, "\n]}\n");
    return std::fclose(F) == 0;
  }

private:
  bool Enabled = false;
  std::mutex Mutex; ///< guards Buffers.
  std::vector<std::unique_ptr<SpanBuffer>> Buffers;
};

/// RAII span; a no-op when \p Buffer is null (tracing off).
class SpanScope {
public:
  SpanScope(SpanBuffer *Buffer, const char *Name) : Buffer(Buffer) {
    if (Buffer)
      Buffer->begin(Name);
  }
  ~SpanScope() {
    if (Buffer)
      Buffer->end();
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  SpanBuffer *Buffer;
};

} // namespace perfbench

#endif // PPD_PERFBENCH_TRACE_H
