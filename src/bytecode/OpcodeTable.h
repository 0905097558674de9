//===- bytecode/OpcodeTable.h - The X-macro opcode table --------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single source of truth for the instruction set. Everything that
/// enumerates opcodes — the `Op` enum (Instr.h), the decoded `DOp` enum
/// (Decoded.h), `opName`, and the dispatch table of the one handler set
/// (vm/Interp.h), which the execution phase and replay both run — expands
/// one of these X-macros, so an opcode added here reaches every consumer
/// and a missing handler is a compile error.
///
/// PPD_BASE_OPCODES lists the encodable instruction set in enum order.
/// PPD_FUSED_OPCODES lists the decode-time superinstructions that exist
/// only in the pre-decoded stream (never in a Chunk): the decoder rewrites
/// common adjacent pairs into them, keeping a 1:1 slot layout so the second
/// instruction of a fused pair remains individually executable (see
/// Decoded.h).
///
//===----------------------------------------------------------------------===//

#ifndef PPD_BYTECODE_OPCODETABLE_H
#define PPD_BYTECODE_OPCODETABLE_H

// clang-format off
#define PPD_BASE_OPCODES(X)                                                  \
  /* Stack. */                                                               \
  X(PushConst) X(Pop) X(ToBool)                                              \
  /* Locals (frame slots). A = slot, B = VarId, Imm = array size. */         \
  X(LoadLocal) X(StoreLocal) X(LoadLocalElem) X(StoreLocalElem)              \
  X(ZeroLocal)                                                               \
  /* Shared globals. A = offset, B = VarId. */                               \
  X(LoadShared) X(StoreShared) X(LoadSharedElem) X(StoreSharedElem)          \
  /* Private (per-process) globals. A = offset, B = VarId. */                \
  X(LoadPriv) X(StorePriv) X(LoadPrivElem) X(StorePrivElem)                  \
  /* Arithmetic / comparison. */                                             \
  X(Add) X(Sub) X(Mul) X(Div) X(Mod) X(Neg) X(Not)                           \
  X(CmpEq) X(CmpNe) X(CmpLt) X(CmpLe) X(CmpGt) X(CmpGe)                      \
  /* Control flow. A = absolute target pc. */                                \
  X(Jump) X(JumpIfFalse) X(JumpIfTrue)                                       \
  /* Calls. A = function index / Builtin kind, B = argc. */                  \
  X(Call) X(Ret) X(CallBuiltin)                                              \
  /* Parallel constructs and I/O. */                                         \
  X(SemP) X(SemV) X(SendCh) X(RecvCh) X(SpawnProc) X(PrintVal) X(InputVal)   \
  /* Instrumentation: object code only. */                                   \
  X(Prelog) X(Postlog) X(UnitLog)                                            \
  /* Instrumentation: emulation package only. */                             \
  X(TraceStmt) X(TraceCallBegin) X(TraceCallEnd)                             \
  X(Halt)

#define PPD_FUSED_OPCODES(X)                                                 \
  /* Cmp* + JumpIf{False,True}: A = target, Sub = (CmpKind<<1)|sense. */     \
  X(JumpIfCmp)                                                               \
  /* PushConst + StoreLocal: A = slot, B = VarId, Imm = constant. */         \
  X(StoreLocalImm)                                                           \
  /* PushConst + {Add,Sub,Mul,Div,Mod}: Imm = the right operand. */          \
  X(AddImm) X(SubImm) X(MulImm) X(DivImm) X(ModImm)

#define PPD_DECODED_OPCODES(X) PPD_BASE_OPCODES(X) PPD_FUSED_OPCODES(X)
// clang-format on

#endif // PPD_BYTECODE_OPCODETABLE_H
