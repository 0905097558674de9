//===- support/Simd.cpp - Host vector-unit level --------------------------===//
//
// Part of PPD. See Simd.h.
//
//===----------------------------------------------------------------------===//

#include "support/Simd.h"

using namespace ppd;
using namespace ppd::simd;

const char *simd::levelName(Level L) {
  switch (L) {
  case Level::Portable:
    return "portable";
  case Level::SSE2:
    return "sse2";
  case Level::AVX2:
    return "avx2";
  case Level::NEON:
    return "neon";
  }
  return "unknown";
}

Level simd::activeLevel() {
  static const Level Host = [] {
#if defined(__x86_64__) && defined(__GNUC__)
    if (__builtin_cpu_supports("avx2"))
      return Level::AVX2;
    return Level::SSE2; // baseline on x86-64
#elif defined(__aarch64__)
    return Level::NEON;
#else
    return Level::Portable;
#endif
  }();
  return Host;
}
