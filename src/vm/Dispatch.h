//===- vm/Dispatch.h - Token-threaded dispatch machinery --------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dispatch macros for the decoded interpreters (vm/Machine.cpp's
/// execution engine and core/Replay.cpp's emulation engine). Both engines
/// write each handler exactly once; these macros expand the body into
/// classic Bell-style token-threaded dispatch (computed goto). The build
/// already requires GCC or Clang on Linux (the epoll server), so there is
/// one dispatch strategy and no portable fallback.
///
/// Usage inside an interpreter loop:
///
///   PPD_DISPATCH_TABLE();           // once, before the loop
///   for (;;) {
///     ... per-instruction prologue (budget, breakpoints) ...
///     PPD_DISPATCH(I.Opcode) {
///       PPD_OP(PushConst) { ...; continue; }   // continue = next instr
///       PPD_OP(SemP)      { ...; goto Exit; }  // goto to leave the loop
///       ...
///     }
///     PPD_END_DISPATCH();
///   }
///
/// Handlers must leave via `continue` (next instruction) or a `goto` out
/// of the loop — never by falling through into the next handler. PPD_OP
/// labels stack, so several opcodes can share one handler body. The
/// dispatch-table order is the DOp order, both generated from
/// PPD_DECODED_OPCODES (OpcodeTable.h), so a missing handler is a compile
/// error.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_VM_DISPATCH_H
#define PPD_VM_DISPATCH_H

#include "bytecode/Decoded.h"

#if !defined(__GNUC__) && !defined(__clang__)
#error "PPD's interpreters need computed goto (GCC or Clang)"
#endif

#define PPD_DISPATCH_TABLE_ENTRY(Name) &&PpdOp_##Name,
#define PPD_DISPATCH_TABLE()                                                 \
  static const void *const DispatchTable[ppd::NumDecodedOps] = {             \
      PPD_DECODED_OPCODES(PPD_DISPATCH_TABLE_ENTRY)}
#define PPD_DISPATCH(OpValue) goto *DispatchTable[size_t(OpValue)];
#define PPD_OP(Name) PpdOp_##Name:
#define PPD_END_DISPATCH() ((void)0)

#endif // PPD_VM_DISPATCH_H
