//===- bytecode/Decoded.h - Pre-decoded instruction stream ------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction stream the interpreter (vm/Interp.h) runs, under the
/// VM's policy (vm/Machine.cpp) and the emulation-package replay's
/// (core/Replay.cpp). A DecodedChunk is produced once per function during
/// the preparatory phase: the decoder flattens a Chunk into an array of
/// DecodedInstr with the statement id inlined (no side-table lookup per
/// step) and rewrites common adjacent pairs into superinstructions:
///
///   * Cmp{Eq,Ne,Lt,Le,Gt,Ge} + JumpIf{False,True}  ->  JumpIfCmp
///   * PushConst + StoreLocal                        ->  StoreLocalImm
///   * PushConst + {Add,Sub,Mul,Div,Mod}             ->  {Add,...,Mod}Imm
///
/// The layout is deliberately 1:1 with the source chunk — slot i decodes
/// pc i — which buys three invariants at once:
///
///   * jump targets need no remapping: a decoded index *is* a pc, so
///     EBlockInfo::EmuEntryPc and Process::Pc keep the chunk's meaning;
///   * a jump that lands on the *second* instruction of a fused pair
///     executes it from its own (still fully decoded) slot;
///   * a superinstruction remains splittable: a fused pair still costs
///     two steps, and when the scheduler's quantum, the global step
///     budget, or the replay's instruction budget has only one step left,
///     the interpreter executes just the first half (the compare / the
///     push) and leaves the pc on the second slot. Preemption points —
///     and therefore interleavings, sync sequence numbers, and the log
///     bytes — are those of the unfused instruction stream.
///
/// Fusion requires both instructions to carry the same statement id (the
/// breakpoint check fires on statement transitions, which must not be
/// skipped) and never involves instructions with side effects on the log.
/// DivImm and ModImm with a zero constant fail on their second step, at
/// the statement the unfused Div or Mod would have failed at.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_BYTECODE_DECODED_H
#define PPD_BYTECODE_DECODED_H

#include "bytecode/Chunk.h"
#include "bytecode/Instr.h"

#include <cstdint>
#include <vector>

namespace ppd {

/// Decoded opcodes: every base Op (same numeric value) plus the fused
/// superinstructions. Generated from the X-macro table, like Op.
enum class DOp : uint8_t {
#define PPD_OPCODE_ENUM(Name) Name,
  PPD_DECODED_OPCODES(PPD_OPCODE_ENUM)
#undef PPD_OPCODE_ENUM
};

/// Number of decoded opcodes (the dispatch-table size).
constexpr unsigned NumDecodedOps = 0
#define PPD_OPCODE_COUNT(Name) +1
    PPD_DECODED_OPCODES(PPD_OPCODE_COUNT)
#undef PPD_OPCODE_COUNT
    ;

/// Comparison kinds carried by Cmp* slots and JumpIfCmp (in Sub).
enum class CmpKind : uint8_t { Eq, Ne, Lt, Le, Gt, Ge };

/// One decoded slot. 24 bytes, one cache line per ~2.6 instructions.
struct DecodedInstr {
  DOp Opcode = DOp::Halt;
  /// Cmp*: the CmpKind. JumpIfCmp: (CmpKind << 1) | (1 = branch-on-true).
  uint8_t Sub = 0;
  /// Source statement, inlined from Chunk::stmtAt.
  StmtId Stmt = InvalidId;
  int32_t A = 0;
  int32_t B = 0;
  int64_t Imm = 0;
};

static_assert(sizeof(DecodedInstr) == 24, "keep the hot stream compact");

class DecodedChunk {
public:
  DecodedChunk() = default;

  /// Decodes \p C. Slot i corresponds to pc i of \p C.
  static DecodedChunk decode(const Chunk &C);

  const DecodedInstr *data() const { return Instrs.data(); }
  uint32_t size() const { return uint32_t(Instrs.size()); }
  bool empty() const { return Instrs.empty(); }

  const DecodedInstr &at(uint32_t Pc) const {
    assert(Pc < Instrs.size() && "decoded pc out of range");
    return Instrs[Pc];
  }

private:
  std::vector<DecodedInstr> Instrs;
};

} // namespace ppd

#endif // PPD_BYTECODE_DECODED_H
