//===- sema/Symbols.h - Resolved symbol information -------------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The symbol table produced by semantic analysis. Every variable in the
/// program — shared globals, per-process globals, parameters, and locals —
/// receives a dense VarId; data-flow sets (USED/DEFINED, §5.1) and log
/// records are keyed by these ids. Shared variables additionally receive a
/// dense SharedIndex used by the per-synchronization-unit READ/WRITE sets of
/// race detection (§6.4), and each variable gets a storage slot for the VM.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_SEMA_SYMBOLS_H
#define PPD_SEMA_SYMBOLS_H

#include "lang/Ast.h"

#include <cassert>
#include <string>
#include <vector>

namespace ppd {

enum class VarKind {
  SharedGlobal,  ///< `shared int x;` — one copy in simulated shared memory.
  PrivateGlobal, ///< `int x;` at top level — one copy per process.
  Param,         ///< function parameter.
  Local,         ///< function-local declaration.
};

/// Everything later phases need to know about one variable.
struct VarInfo {
  VarId Id = InvalidId;
  std::string Name;
  VarKind Kind = VarKind::Local;
  int64_t ArraySize = -1; ///< -1 for scalars.
  int64_t Init = 0;       ///< globals only.
  const FuncDecl *Func = nullptr; ///< owning function (Param/Local only).
  SourceLoc Loc;

  /// Storage offset: within shared memory, the private-global segment, or
  /// the owning function's frame, depending on Kind.
  uint32_t Offset = 0;
  /// Dense index among shared variables, or InvalidId.
  uint32_t SharedIndex = InvalidId;

  bool isArray() const { return ArraySize >= 0; }
  bool isShared() const { return Kind == VarKind::SharedGlobal; }
  bool isGlobal() const {
    return Kind == VarKind::SharedGlobal || Kind == VarKind::PrivateGlobal;
  }
  /// Number of VM value slots this variable occupies.
  uint32_t slotCount() const {
    return isArray() ? uint32_t(ArraySize) : 1u;
  }
};

/// Per-function storage layout computed by sema.
struct FrameInfo {
  const FuncDecl *Func = nullptr;
  /// Total frame slots (params + locals, arrays flattened).
  uint32_t FrameSize = 0;
  /// VarIds of params then locals, in declaration order.
  std::vector<VarId> Vars;
};

/// The program-wide symbol table.
class SymbolTable {
public:
  std::vector<VarInfo> Vars;        ///< indexed by VarId.
  std::vector<FrameInfo> Frames;    ///< indexed by FuncDecl::Index.
  std::vector<VarId> Globals;       ///< every global, in declaration order.
  std::vector<VarId> SharedVars;    ///< indexed by SharedIndex.
  uint32_t SharedMemorySize = 0;    ///< slots of shared memory.
  uint32_t PrivateGlobalSize = 0;   ///< slots per process for plain globals.
  uint32_t NumSharedVars = 0;       ///< dense SharedIndex universe.

  const VarInfo &var(VarId Id) const {
    assert(Id < Vars.size() && "variable id out of range");
    return Vars[Id];
  }

  VarInfo &var(VarId Id) {
    assert(Id < Vars.size() && "variable id out of range");
    return Vars[Id];
  }

  unsigned numVars() const { return unsigned(Vars.size()); }

  /// True when \p Id names a variable with at least \p NumValues slots:
  /// the check values captured in a log read back from disk must pass
  /// before they are written into restored state.
  bool fits(VarId Id, size_t NumValues) const {
    return Id < Vars.size() && NumValues <= Vars[Id].slotCount();
  }

  const FrameInfo &frame(const FuncDecl &F) const {
    assert(F.Index < Frames.size() && "function has no frame info");
    return Frames[F.Index];
  }
};

} // namespace ppd

#endif // PPD_SEMA_SYMBOLS_H
