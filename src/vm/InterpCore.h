//===- vm/InterpCore.h - Pure evaluation kernels ----------------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The side-effect-free evaluation kernels shared by both interpreters in
/// the system: the VM's (execution phase) and the replay engine's
/// emulation interpreter (debugging phase). The paper's correctness story
/// requires the two phases to compute bit-identical values; routing
/// comparisons, builtins, and integer sqrt through one set of inline
/// kernels makes divergence structurally impossible (arithmetic already
/// flows through support/Arith.h for the same reason).
///
//===----------------------------------------------------------------------===//

#ifndef PPD_VM_INTERPCORE_H
#define PPD_VM_INTERPCORE_H

#include "bytecode/Decoded.h"
#include "lang/Ast.h"
#include "support/Arith.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

namespace ppd {

/// Integer square root (floor), defined for nonnegative inputs.
inline int64_t interpSqrt(int64_t X) {
  assert(X >= 0 && "isqrt of negative value");
  int64_t R = int64_t(std::sqrt(double(X)));
  // Compare in uint64: sqrt's rounding can overshoot enough that R*R (or
  // (R+1)^2 near INT64_MAX) overflows int64.
  while (R > 0 && uint64_t(R) * uint64_t(R) > uint64_t(X))
    --R;
  while (uint64_t(R + 1) * uint64_t(R + 1) <= uint64_t(X))
    ++R;
  return R;
}

/// Evaluates one comparison; the result is the canonical 0/1 the stack
/// machine pushes.
inline int64_t evalCmp(CmpKind Kind, int64_t A, int64_t B) {
  switch (Kind) {
  case CmpKind::Eq:
    return A == B;
  case CmpKind::Ne:
    return A != B;
  case CmpKind::Lt:
    return A < B;
  case CmpKind::Le:
    return A <= B;
  case CmpKind::Gt:
    return A > B;
  case CmpKind::Ge:
    return A >= B;
  }
  return 0;
}

/// Applies builtin \p Kind to the operand stack (args already pushed).
/// Returns false for sqrt of a negative value — the operands are consumed
/// either way, matching both engines' historical behavior.
inline bool applyBuiltin(Builtin Kind, std::vector<int64_t> &Stack) {
  switch (Kind) {
  case Builtin::Sqrt: {
    assert(!Stack.empty() && "builtin operand missing");
    int64_t X = Stack.back();
    Stack.pop_back();
    if (X < 0)
      return false;
    Stack.push_back(interpSqrt(X));
    return true;
  }
  case Builtin::Abs: {
    assert(!Stack.empty() && "builtin operand missing");
    int64_t X = Stack.back();
    Stack.back() = X < 0 ? wrapNeg(X) : X;
    return true;
  }
  case Builtin::Min: {
    assert(Stack.size() >= 2 && "builtin operands missing");
    int64_t B = Stack.back();
    Stack.pop_back();
    Stack.back() = std::min(Stack.back(), B);
    return true;
  }
  case Builtin::Max: {
    assert(Stack.size() >= 2 && "builtin operands missing");
    int64_t B = Stack.back();
    Stack.pop_back();
    Stack.back() = std::max(Stack.back(), B);
    return true;
  }
  case Builtin::None:
    break;
  }
  assert(false && "unknown builtin");
  return true;
}

} // namespace ppd

#endif // PPD_VM_INTERPCORE_H
