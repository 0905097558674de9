//===- bytecode/Decoded.cpp -----------------------------------------------===//
//
// Part of PPD. See Decoded.h.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Decoded.h"

using namespace ppd;

static bool isCmp(DOp Opcode) {
  switch (Opcode) {
  case DOp::CmpEq:
  case DOp::CmpNe:
  case DOp::CmpLt:
  case DOp::CmpLe:
  case DOp::CmpGt:
  case DOp::CmpGe:
    return true;
  default:
    return false;
  }
}

static CmpKind cmpKindOf(DOp Opcode) {
  switch (Opcode) {
  case DOp::CmpEq:
    return CmpKind::Eq;
  case DOp::CmpNe:
    return CmpKind::Ne;
  case DOp::CmpLt:
    return CmpKind::Lt;
  case DOp::CmpLe:
    return CmpKind::Le;
  case DOp::CmpGt:
    return CmpKind::Gt;
  default:
    return CmpKind::Ge;
  }
}

/// The constant-operand form of arithmetic \p Opcode, or PushConst when it
/// has none.
static DOp immFormOf(DOp Opcode) {
  switch (Opcode) {
  case DOp::Add:
    return DOp::AddImm;
  case DOp::Sub:
    return DOp::SubImm;
  case DOp::Mul:
    return DOp::MulImm;
  case DOp::Div:
    return DOp::DivImm;
  case DOp::Mod:
    return DOp::ModImm;
  default:
    return DOp::PushConst;
  }
}

DecodedChunk DecodedChunk::decode(const Chunk &C) {
  DecodedChunk D;
  D.Instrs.resize(C.size());
  for (uint32_t Pc = 0; Pc != C.size(); ++Pc) {
    const Instr &I = C.at(Pc);
    DecodedInstr &DI = D.Instrs[Pc];
    DI.Opcode = DOp(uint8_t(I.Opcode));
    DI.Stmt = C.stmtAt(Pc);
    DI.A = I.A;
    DI.B = I.B;
    DI.Imm = I.Imm;
    if (isCmp(DI.Opcode))
      DI.Sub = uint8_t(cmpKindOf(DI.Opcode));
  }

  // Superinstruction rewriting. The second slot of a fused pair keeps its
  // plain decoding, so jumps into it and split (half-step) execution both
  // work; pairs can never overlap because no second-half opcode
  // (JumpIf*, StoreLocal, Add..Mod) is also a first-half opcode (Cmp*,
  // PushConst). Cmp* stays out of the arithmetic rule for that reason: it
  // is already the first half of JumpIfCmp.
  for (uint32_t Pc = 0; Pc + 1 < D.size(); ++Pc) {
    DecodedInstr &First = D.Instrs[Pc];
    const DecodedInstr &Second = D.Instrs[Pc + 1];
    // A statement transition between the two halves would carry a
    // breakpoint check the fused form must not skip.
    if (First.Stmt != Second.Stmt)
      continue;
    if (isCmp(First.Opcode) && (Second.Opcode == DOp::JumpIfFalse ||
                                Second.Opcode == DOp::JumpIfTrue)) {
      First.Sub = uint8_t((First.Sub << 1) |
                          (Second.Opcode == DOp::JumpIfTrue ? 1 : 0));
      First.Opcode = DOp::JumpIfCmp;
      First.A = Second.A;
    } else if (First.Opcode == DOp::PushConst &&
               Second.Opcode == DOp::StoreLocal) {
      First.Opcode = DOp::StoreLocalImm;
      First.A = Second.A;
      First.B = Second.B;
    } else if (First.Opcode == DOp::PushConst) {
      if (DOp Fused = immFormOf(Second.Opcode); Fused != DOp::PushConst)
        First.Opcode = Fused;
    }
  }
  return D;
}
