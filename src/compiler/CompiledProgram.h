//===- compiler/CompiledProgram.h - Preparatory-phase output ----*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the Compiler/Linker produces during the preparatory phase
/// (paper Fig 3.1): the object code, the emulation package, the control
/// dependences of the static program dependence graphs, the simplified
/// static graphs with their synchronization units, and the program
/// database — plus the e-block metadata (USED/DEFINED sets, entry pcs) that
/// prelogs/postlogs and replay are driven by.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_COMPILER_COMPILEDPROGRAM_H
#define PPD_COMPILER_COMPILEDPROGRAM_H

#include "bytecode/Chunk.h"
#include "bytecode/Decoded.h"
#include "cfg/Cfg.h"
#include "compiler/EBlockPartition.h"
#include "dataflow/ModRef.h"
#include "pdg/ControlDependence.h"
#include "pdg/SimplifiedStaticGraph.h"
#include "sema/CallGraph.h"
#include "sema/ProgramDatabase.h"
#include "sema/Symbols.h"

#include <memory>
#include <string>
#include <vector>

namespace ppd {

/// Static description of one e-block.
struct EBlockInfo {
  uint32_t Id = 0;
  uint32_t Func = 0; ///< FuncDecl::Index of the owning function.
  EBlockKind Kind = EBlockKind::FunctionSegment;
  /// Pc of the Prelog instruction in each artifact; replay starts at
  /// EmuEntryPc.
  uint32_t ObjectEntryPc = 0;
  uint32_t EmuEntryPc = 0;
  /// USED(i): the prelog contents (§5.1).
  std::vector<VarId> Used;
  /// DEFINED(i): the postlog contents.
  std::vector<VarId> Defined;
};

/// Static description of one synchronization unit (program-wide id).
struct UnitInfo {
  uint32_t Id = 0;
  uint32_t Func = 0;
  /// Shared variables captured by the unit's additional prelog (§5.5).
  std::vector<VarId> SharedReads;
};

/// One compiled function: both instrumentation artifacts share the frame
/// layout and function index.
struct CompiledFunction {
  std::string Name;
  uint32_t Index = 0;
  uint32_t NumParams = 0;
  uint32_t FrameSize = 0;
  bool Logged = true;
  Chunk Object; ///< execution-phase artifact (Prelog/Postlog/UnitLog)
  Chunk Emu;    ///< debugging-phase artifact (adds TraceStmt/TraceCall*)
  /// Pre-decoded fast-path streams (slot i == pc i of the source chunk);
  /// built once by the compiler, shared read-only by every interpreter.
  DecodedChunk ObjectDecoded;
  DecodedChunk EmuDecoded;
};

struct CompileOptions {
  EBlockOptions EBlocks;
  /// When false, the object code is emitted without Prelog/Postlog/UnitLog
  /// instructions — the uninstrumented baseline of experiment E1 (the
  /// paper's "<15% execution-time overhead" claim is measured against it).
  /// The emulation package is unaffected.
  bool Instrument = true;
};

/// The complete preparatory-phase output. Owns the AST and all analysis
/// results; the VM, logging, and debugging subsystems only ever borrow it.
class CompiledProgram {
public:
  std::unique_ptr<Program> Ast;
  std::unique_ptr<SymbolTable> Symbols;
  std::unique_ptr<ProgramDatabase> Database;
  std::unique_ptr<CallGraph> Callgraph;
  ModRefResult<BitVarSet> ModRef;
  PartitionPlan Plan;
  CompileOptions Options;

  std::vector<CompiledFunction> Funcs; ///< by FuncDecl::Index.
  std::vector<EBlockInfo> EBlocks;     ///< by e-block id.
  std::vector<UnitInfo> Units;         ///< by program-wide unit id.

  /// Per-function static analyses (preparatory phase, Fig 3.1). Of the
  /// static PDG (§4.1) only the control dependences are kept: they are all
  /// the dynamic graph's builder reads. The data edges are built on demand
  /// by constructing a StaticPdg over Ast, Symbols, Cfgs[F] and ModRef.
  std::vector<std::unique_ptr<Cfg>> Cfgs;
  std::vector<ControlDependence> Control;
  std::vector<std::unique_ptr<SimplifiedStaticGraph>> Simplified;

  /// Semaphore initial counts and channel capacities, by id.
  std::vector<int64_t> SemInit;
  std::vector<int64_t> ChanCapacity;

  uint32_t MainIndex = InvalidId;

  const CompiledFunction &func(uint32_t Index) const {
    assert(Index < Funcs.size() && "function index out of range");
    return Funcs[Index];
  }

  /// True when a process header read back from bytes — a log section or
  /// a streamed cut — names one of this program's functions as its root
  /// and passes it as many arguments as it takes.
  bool isRootCall(uint32_t Func, size_t NumArgs) const {
    return Func < Funcs.size() && NumArgs == Funcs[Func].NumParams;
  }

  /// True when a statement id read back from bytes — a sync record, a
  /// Stop marker, a `.ppdb` row — names one of this program's statements.
  bool isStmt(StmtId Id) const { return Id < Ast->numStmts(); }

  const EBlockInfo &eblock(uint32_t Id) const {
    assert(Id < EBlocks.size() && "e-block id out of range");
    return EBlocks[Id];
  }

  const UnitInfo &unit(uint32_t Id) const {
    assert(Id < Units.size() && "unit id out of range");
    return Units[Id];
  }
};

} // namespace ppd

#endif // PPD_COMPILER_COMPILEDPROGRAM_H
