//===- vm/Interp.h - The one handler set ------------------------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interpreter of the pre-decoded instruction stream. Every opcode has
/// exactly one handler, written here once. The execution phase
/// (Machine::runSlice in vm/Machine.cpp) and the debugging phase's
/// emulation replay (core/Replay.cpp) are two instantiations of
/// `interpret`, each with its own policy. The paper requires a replayed
/// interval to compute exactly what the logged run computed (§5.5); with
/// one handler set that holds by construction, and only the hooks below
/// can tell the phases apart.
///
/// A policy is a small value type holding references. Its const accessors
/// supply the state the handlers run on (`prog`, `frames`, `slotArena`,
/// `stack`, `shared`, `priv`, `trace`, `pid`, `logCursor`,
/// `currentStmt`); it also has two constants and the hooks:
///
///  * `Tracing`: run the emulation package and record trace events
///    (a FullTrace run, or any replay); otherwise run the object code.
///  * `FreeTrace`: trace instructions refund their step (the live run
///    keeps its quantum mode-independent); replay counts them.
///  * per-step prologue: `outOfBudget()` when the budget is spent (it
///    returns the steps it charges), `stopsAt(Stmt)` on every statement
///    change (breakpoints);
///  * `sharedRead`/`sharedWrite`: the live run's per-edge access sets;
///  * `fail`: a runtime failure (live: the process fails; replay: the
///    failure is reproduced);
///  * `call`/`returnFromRoot`: the live run's 4096-frame limit and
///    ProcEnd; replay skips logged callees (Fig 5.2);
///  * `semP`, `semV`, `send`, `recv`, `spawn`: the live run synchronizes;
///    replay takes the results from the log;
///  * `print`, `input`;
///  * `prelog`, `postlog`, `unitLog`: the live run writes the log; replay
///    reads it back;
///  * `beginStmt`, `traceCall`: the three trace instructions (replay
///    applies what-if overrides and stops at Stop markers);
///  * `halt` and `exit` (the hot state written back).
///
/// Hooks that can stop the process return false (or Next::Stop). The hot
/// state — code base, pc, the innermost frame's slots and the operand
/// stack — stays in locals for the whole run.
///
/// Dispatch is Bell-style token threading (computed goto). The dispatch
/// table is generated from PPD_DECODED_OPCODES (bytecode/OpcodeTable.h) in
/// DOp order, so a missing handler is a compile error. Handlers leave via
/// `continue` (next instruction) or `goto Exit`, never by falling through;
/// PPD_OP labels stack, so several opcodes can share one body. Every
/// handler continues to the one per-step prologue, which holds the only
/// `goto *`, so each instantiation compiles to a single shared table jump
/// (`jmp *(%reg,%reg,8)` under GCC 12 at -O2 and -O3), not one indirect
/// jump per handler.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_VM_INTERP_H
#define PPD_VM_INTERP_H

#include "bytecode/Decoded.h"
#include "compiler/CompiledProgram.h"
#include "support/Arith.h"
#include "trace/TraceEvent.h"
#include "vm/Machine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

#if !defined(__GNUC__) && !defined(__clang__)
#error "PPD's interpreter needs computed goto (GCC or Clang)"
#endif

#define PPD_DISPATCH_TABLE_ENTRY(Name) &&PpdOp_##Name,
#define PPD_OP(Name) PpdOp_##Name:

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
/// Returns false for sqrt of a negative value; the operand is consumed
/// either way.
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

/// What a policy's call hooks ask the handler to do.
enum class Next : uint8_t {
  Run,  ///< carry on as usual (enter the callee, record the event).
  Skip, ///< the policy handled it: continue with the next instruction.
  Stop, ///< the process stops here.
};

/// Runs from pc \p Ip of the innermost frame until a hook stops the
/// process or \p Budget steps are used; returns the steps used. A step is
/// one base instruction: a fused pair is two and splits at the budget,
/// and trace instructions cost none under a FreeTrace policy.
template <class Policy>
uint64_t interpret(Policy Pol, uint32_t Ip, uint64_t Budget) {
  static const void *const DispatchTable[NumDecodedOps] = {
      PPD_DECODED_OPCODES(PPD_DISPATCH_TABLE_ENTRY)};
  constexpr bool Tracing = Policy::Tracing;

  std::vector<int64_t> &Stack = Pol.stack();

  // Slots caches the arena pointer of the innermost frame; it is reloaded
  // after Call and Ret (the arena may reallocate, and the frame changes).
  // Lambdas copy the policy (it is only references): a lambda the
  // compiler keeps out of line then never takes the policy's address,
  // which would force its references out of registers for the whole loop.
  auto CodeOf = [Pol](uint32_t Func) {
    const CompiledFunction &CF = Pol.prog().func(Func);
    return (Tracing ? CF.EmuDecoded : CF.ObjectDecoded).data();
  };
  auto TopSlots = [Pol]() {
    return Pol.slotArena().data() + Pol.frames().back().SlotBase;
  };
  const DecodedInstr *Base = CodeOf(Pol.frames().back().Func);
  int64_t *Slots = TopSlots();
  StmtId CurStmt = Pol.currentStmt();
  // Steps left: one counter rather than a used count and a limit keeps a
  // register free for the hot state.
  uint64_t Left = Budget;

  auto Push = [&](int64_t V) { Stack.push_back(V); };
  auto Pop = [&]() {
    assert(!Stack.empty() && "operand stack underflow");
    int64_t V = Stack.back();
    Stack.pop_back();
    return V;
  };
  auto OpenEvent = [Pol]() -> TraceEvent * {
    uint32_t Idx = Pol.frames().back().OpenEvent;
    return Idx == InvalidId ? nullptr : &Pol.trace().Events[Idx];
  };
  // Inlined: every traced access goes through these.
  auto Read = [&](const DecodedInstr &I, int64_t V,
                  int64_t Idx) __attribute__((always_inline)) {
    if constexpr (Tracing)
      if (TraceEvent *E = OpenEvent())
        E->Reads.push_back({VarId(I.B), V, Idx});
  };
  auto Write = [&](const DecodedInstr &I, int64_t V,
                   int64_t Idx) __attribute__((always_inline)) {
    if constexpr (Tracing)
      if (TraceEvent *E = OpenEvent())
        E->Writes.push_back({VarId(I.B), V, Idx});
  };
  // The second half of a fused pair is a step of its own: it runs only if
  // the budget still has room (and then the pc skips its slot); otherwise
  // the constant is pushed and the pc stays on the second half's own
  // (still fully decoded) slot, so preemption points do not depend on
  // fusion.
  auto SecondHalfRuns = [&](const DecodedInstr &I)
                            __attribute__((always_inline)) {
    if (Left == 0) {
      Push(I.Imm);
      return false;
    }
    --Left;
    ++Ip;
    return true;
  };
  auto Branch = [&](int64_t Cond) {
    if constexpr (Tracing)
      if (TraceEvent *E = OpenEvent()) {
        E->IsPredicate = true;
        E->BranchTaken = Cond != 0;
      }
  };

  for (;;) {
    // Per-step prologue. A step is consumed even when it blocks, fails,
    // or stops at a breakpoint; a breakpoint leaves the pc on the
    // statement, which has not begun.
    if (Left == 0) {
      Pol.exit(Ip, CurStmt);
      return Budget + Pol.outOfBudget();
    }
    --Left;
    const DecodedInstr &I = Base[Ip];
    if (I.Stmt != CurStmt) {
      CurStmt = I.Stmt;
      if (Pol.stopsAt(I.Stmt))
        break;
    }
    ++Ip;

    goto *DispatchTable[size_t(I.Opcode)];
    {
      PPD_OP(PushConst) {
        Push(I.Imm);
        continue;
      }
      PPD_OP(Pop) {
        Pop();
        continue;
      }
      PPD_OP(ToBool) {
        Stack.back() = Stack.back() != 0;
        continue;
      }

      PPD_OP(LoadLocal) {
        int64_t V = Slots[I.A];
        Push(V);
        Read(I, V, -1);
        continue;
      }
      PPD_OP(StoreLocal) {
        int64_t V = Pop();
        Slots[I.A] = V;
        Write(I, V, -1);
        continue;
      }
      PPD_OP(LoadLocalElem) {
        int64_t Idx = Pop();
        if (Idx < 0 || Idx >= I.Imm) {
          Pol.fail(RuntimeErrorKind::IndexOutOfBounds, I.Stmt);
          goto Exit;
        }
        int64_t V = Slots[I.A + Idx];
        Push(V);
        Read(I, V, Idx);
        continue;
      }
      PPD_OP(StoreLocalElem) {
        int64_t V = Pop();
        int64_t Idx = Pop();
        if (Idx < 0 || Idx >= I.Imm) {
          Pol.fail(RuntimeErrorKind::IndexOutOfBounds, I.Stmt);
          goto Exit;
        }
        Slots[I.A + Idx] = V;
        Write(I, V, Idx);
        continue;
      }
      PPD_OP(ZeroLocal) {
        std::fill_n(Slots + I.A, I.Imm, 0);
        Write(I, 0, -1);
        continue;
      }

      PPD_OP(LoadShared) {
        int64_t V = Pol.shared()[uint32_t(I.A)];
        Push(V);
        Read(I, V, -1);
        Pol.sharedRead(VarId(I.B));
        continue;
      }
      PPD_OP(LoadSharedElem) {
        int64_t Idx = Pop();
        if (Idx < 0 || Idx >= I.Imm) {
          Pol.fail(RuntimeErrorKind::IndexOutOfBounds, I.Stmt);
          goto Exit;
        }
        int64_t V = Pol.shared()[uint32_t(I.A) + uint32_t(Idx)];
        Push(V);
        Read(I, V, Idx);
        Pol.sharedRead(VarId(I.B));
        continue;
      }
      PPD_OP(LoadPriv) {
        int64_t V = Pol.priv()[uint32_t(I.A)];
        Push(V);
        Read(I, V, -1);
        continue;
      }
      PPD_OP(LoadPrivElem) {
        int64_t Idx = Pop();
        if (Idx < 0 || Idx >= I.Imm) {
          Pol.fail(RuntimeErrorKind::IndexOutOfBounds, I.Stmt);
          goto Exit;
        }
        int64_t V = Pol.priv()[uint32_t(I.A) + uint32_t(Idx)];
        Push(V);
        Read(I, V, Idx);
        continue;
      }

      PPD_OP(StoreShared) {
        int64_t V = Pop();
        Pol.shared()[uint32_t(I.A)] = V;
        Write(I, V, -1);
        Pol.sharedWrite(VarId(I.B));
        continue;
      }
      PPD_OP(StoreSharedElem) {
        int64_t V = Pop();
        int64_t Idx = Pop();
        if (Idx < 0 || Idx >= I.Imm) {
          Pol.fail(RuntimeErrorKind::IndexOutOfBounds, I.Stmt);
          goto Exit;
        }
        Pol.shared()[uint32_t(I.A) + uint32_t(Idx)] = V;
        Write(I, V, Idx);
        Pol.sharedWrite(VarId(I.B));
        continue;
      }
      PPD_OP(StorePriv) {
        int64_t V = Pop();
        Pol.priv()[uint32_t(I.A)] = V;
        Write(I, V, -1);
        continue;
      }
      PPD_OP(StorePrivElem) {
        int64_t V = Pop();
        int64_t Idx = Pop();
        if (Idx < 0 || Idx >= I.Imm) {
          Pol.fail(RuntimeErrorKind::IndexOutOfBounds, I.Stmt);
          goto Exit;
        }
        Pol.priv()[uint32_t(I.A) + uint32_t(Idx)] = V;
        Write(I, V, Idx);
        continue;
      }

      PPD_OP(Add) {
        int64_t B = Pop();
        Stack.back() = wrapAdd(Stack.back(), B);
        continue;
      }
      PPD_OP(Sub) {
        int64_t B = Pop();
        Stack.back() = wrapSub(Stack.back(), B);
        continue;
      }
      PPD_OP(Mul) {
        int64_t B = Pop();
        Stack.back() = wrapMul(Stack.back(), B);
        continue;
      }
      PPD_OP(Div) {
        int64_t B = Pop();
        if (B == 0) {
          Pol.fail(RuntimeErrorKind::DivideByZero, I.Stmt);
          goto Exit;
        }
        Stack.back() = wrapDiv(Stack.back(), B);
        continue;
      }
      PPD_OP(Mod) {
        int64_t B = Pop();
        if (B == 0) {
          Pol.fail(RuntimeErrorKind::ModuloByZero, I.Stmt);
          goto Exit;
        }
        Stack.back() = wrapMod(Stack.back(), B);
        continue;
      }
      PPD_OP(Neg) {
        Stack.back() = wrapNeg(Stack.back());
        continue;
      }
      PPD_OP(Not) {
        Stack.back() = Stack.back() == 0;
        continue;
      }

      PPD_OP(CmpEq)
      PPD_OP(CmpNe)
      PPD_OP(CmpLt)
      PPD_OP(CmpLe)
      PPD_OP(CmpGt)
      PPD_OP(CmpGe) {
        int64_t B = Pop();
        Stack.back() = evalCmp(CmpKind(I.Sub), Stack.back(), B);
        continue;
      }

      PPD_OP(Jump) {
        Ip = uint32_t(I.A);
        continue;
      }
      PPD_OP(JumpIfFalse)
      PPD_OP(JumpIfTrue) {
        int64_t Cond = Pop();
        Branch(Cond);
        bool Taken = I.Opcode == DOp::JumpIfFalse ? Cond == 0 : Cond != 0;
        if (Taken)
          Ip = uint32_t(I.A);
        continue;
      }
      PPD_OP(JumpIfCmp) {
        // Fused Cmp + JumpIf. The compare is this step and the branch the
        // next, split at the budget as in SecondHalfRuns: without room,
        // the compare result is pushed.
        int64_t B = Pop(), A = Pop();
        int64_t Cond = evalCmp(CmpKind(I.Sub >> 1), A, B);
        if (Left != 0) {
          --Left;
          Branch(Cond);
          bool Taken = (I.Sub & 1) ? Cond != 0 : Cond == 0;
          Ip = Taken ? uint32_t(I.A) : Ip + 1;
        } else {
          Push(Cond);
        }
        continue;
      }
      PPD_OP(StoreLocalImm) {
        if (SecondHalfRuns(I)) {
          Slots[I.A] = I.Imm;
          Write(I, I.Imm, -1);
        }
        continue;
      }
      PPD_OP(AddImm) {
        if (SecondHalfRuns(I))
          Stack.back() = wrapAdd(Stack.back(), I.Imm);
        continue;
      }
      PPD_OP(SubImm) {
        if (SecondHalfRuns(I))
          Stack.back() = wrapSub(Stack.back(), I.Imm);
        continue;
      }
      PPD_OP(MulImm) {
        if (SecondHalfRuns(I))
          Stack.back() = wrapMul(Stack.back(), I.Imm);
        continue;
      }
      PPD_OP(DivImm) {
        if (SecondHalfRuns(I)) {
          if (I.Imm == 0) {
            Pol.fail(RuntimeErrorKind::DivideByZero, I.Stmt);
            goto Exit;
          }
          Stack.back() = wrapDiv(Stack.back(), I.Imm);
        }
        continue;
      }
      PPD_OP(ModImm) {
        if (SecondHalfRuns(I)) {
          if (I.Imm == 0) {
            Pol.fail(RuntimeErrorKind::ModuloByZero, I.Stmt);
            goto Exit;
          }
          Stack.back() = wrapMod(Stack.back(), I.Imm);
        }
        continue;
      }

      PPD_OP(Call) {
        switch (Pol.call(I)) {
        case Next::Stop:
          goto Exit;
        case Next::Skip:
          continue;
        case Next::Run:
          break;
        }
        uint32_t Argc = uint32_t(I.B);
        const CompiledFunction &Callee = Pol.prog().func(uint32_t(I.A));
        assert(Argc == Callee.NumParams && "arity checked by sema");
        assert(Stack.size() >= Argc && "operand stack underflow");
        std::vector<int64_t> &Arena = Pol.slotArena();
        Frame Fr;
        Fr.Func = uint32_t(I.A);
        Fr.ReturnPc = Ip;
        Fr.StackBase = uint32_t(Stack.size() - Argc);
        Fr.SlotBase = uint32_t(Arena.size());
        Fr.SlotCount = Callee.FrameSize;
        Arena.resize(Fr.SlotBase + Callee.FrameSize, 0);
        std::copy(Stack.end() - Argc, Stack.end(),
                  Arena.begin() + Fr.SlotBase);
        Stack.resize(Stack.size() - Argc);
        Pol.frames().push_back(Fr);
        Base = CodeOf(Fr.Func);
        Ip = 0;
        Slots = Arena.data() + Fr.SlotBase;
        continue;
      }
      PPD_OP(Ret) {
        int64_t Result = Pop();
        std::vector<Frame> &Frames = Pol.frames();
        if (Frames.size() == 1) {
          Pol.returnFromRoot(I, Result);
          goto Exit;
        }
        Frame Top = Frames.back();
        Frames.pop_back();
        Pol.slotArena().resize(Top.SlotBase);
        Stack.resize(Top.StackBase);
        Push(Result);
        Ip = Top.ReturnPc;
        Base = CodeOf(Frames.back().Func);
        Slots = TopSlots();
        continue;
      }
      PPD_OP(CallBuiltin) {
        if (!applyBuiltin(Builtin(I.A), Stack)) {
          Pol.fail(RuntimeErrorKind::NegativeSqrt, I.Stmt);
          goto Exit;
        }
        continue;
      }

      PPD_OP(SemP) {
        if (!Pol.semP(I))
          goto Exit;
        continue;
      }
      PPD_OP(SemV) {
        if (!Pol.semV(I))
          goto Exit;
        continue;
      }
      PPD_OP(SendCh) {
        if (!Pol.send(I, Pop()))
          goto Exit;
        continue;
      }
      PPD_OP(RecvCh) {
        if (!Pol.recv(I))
          goto Exit;
        continue;
      }
      PPD_OP(SpawnProc) {
        if (!Pol.spawn(I))
          goto Exit;
        continue;
      }

      PPD_OP(PrintVal) {
        Pol.print(Pop(), I.Stmt);
        continue;
      }
      PPD_OP(InputVal) {
        if (!Pol.input(I))
          goto Exit;
        continue;
      }

      PPD_OP(Prelog) {
        if (!Pol.prelog(I))
          goto Exit;
        continue;
      }
      PPD_OP(Postlog) {
        if (!Pol.postlog(I))
          goto Exit;
        continue;
      }
      PPD_OP(UnitLog) {
        if (!Pol.unitLog(I))
          goto Exit;
        continue;
      }

      // The trace instructions exist only in the emulation package.
      PPD_OP(TraceStmt) {
        if constexpr (Tracing) {
          if constexpr (Policy::FreeTrace)
            ++Left;
          if (!Pol.beginStmt(StmtId(I.A)))
            goto Exit;
          TraceEvent &E = Pol.trace().emplace();
          E.Pid = Pol.pid();
          E.Stmt = StmtId(I.A);
          E.LogCursor = Pol.logCursor();
          Pol.frames().back().OpenEvent = E.Index;
        }
        continue;
      }
      PPD_OP(TraceCallBegin)
      PPD_OP(TraceCallEnd) {
        if constexpr (Tracing) {
          if constexpr (Policy::FreeTrace)
            ++Left;
          bool Begin = I.Opcode == DOp::TraceCallBegin;
          uint32_t Callee = uint32_t(I.A);
          switch (Pol.traceCall(Callee, Begin)) {
          case Next::Stop:
            goto Exit;
          case Next::Skip:
            continue;
          case Next::Run:
            break;
          }
          TraceEvent E;
          E.Pid = Pol.pid();
          E.Callee = Callee;
          E.LogCursor = Pol.logCursor();
          if (Begin) {
            E.Kind = TraceEventKind::CallBegin;
            E.Stmt = StmtId(I.B);
            uint32_t Argc = Pol.prog().func(Callee).NumParams;
            assert(Stack.size() >= Argc && "call arguments missing");
            E.Args.assign(Stack.end() - Argc, Stack.end());
          } else {
            E.Kind = TraceEventKind::CallEnd;
            E.Value = Stack.back();
          }
          Pol.trace().append(std::move(E));
        }
        continue;
      }

      PPD_OP(Halt) {
        Pol.halt();
        goto Exit;
      }
    }
    assert(false && "unknown opcode");
  }

Exit:
  Pol.exit(Ip, CurStmt);
  return Budget - Left;
}

} // namespace ppd

#undef PPD_DISPATCH_TABLE_ENTRY
#undef PPD_OP

#endif // PPD_VM_INTERP_H
