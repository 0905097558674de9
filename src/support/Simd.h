//===- support/Simd.h - Host vector-unit level ------------------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The widest vector instruction set the host supports, detected once at
/// startup. Nothing in PPD dispatches on it; it is part of the host
/// fingerprint benchmark reports carry, so numbers from different
/// machines are not compared blindly.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_SUPPORT_SIMD_H
#define PPD_SUPPORT_SIMD_H

#include <cstdint>

namespace ppd::simd {

enum class Level : uint8_t { Portable, SSE2, AVX2, NEON };

const char *levelName(Level L);

/// The host's level: AVX2 or SSE2 on x86-64, NEON on aarch64, Portable
/// elsewhere.
Level activeLevel();

} // namespace ppd::simd

#endif // PPD_SUPPORT_SIMD_H
