//===- compiler/Compiler.cpp ----------------------------------------------===//
//
// Part of PPD. See Compiler.h.
//
//===----------------------------------------------------------------------===//

#include "compiler/Compiler.h"

#include "compiler/CodeGen.h"
#include "dataflow/UsedDefined.h"
#include "lang/Parser.h"
#include "sema/Sema.h"

using namespace ppd;

/// The statement where control first lands when \p S executes: blocks
/// forward to their first executable child, a for loop starts at its init.
/// Null for empty blocks.
static const Stmt *firstExecutableStmt(const Stmt *S) {
  if (const auto *B = dyn_cast<BlockStmt>(S)) {
    for (const StmtPtr &Child : B->Body)
      if (const Stmt *First = firstExecutableStmt(Child.get()))
        return First;
    return nullptr;
  }
  if (const auto *F = dyn_cast<ForStmt>(S))
    if (F->Init)
      return F->Init.get();
  return S;
}

std::unique_ptr<CompiledProgram>
Compiler::compile(const std::string &Source, const CompileOptions &Options,
                  DiagnosticEngine &Diags) {
  std::unique_ptr<Program> Ast = Parser::parse(Source, Diags);
  if (!Ast)
    return nullptr;
  return compile(std::move(Ast), Options, Diags);
}

std::unique_ptr<CompiledProgram>
Compiler::compile(std::unique_ptr<Program> Ast, const CompileOptions &Options,
                  DiagnosticEngine &Diags) {
  auto Out = std::make_unique<CompiledProgram>();
  Out->Ast = std::move(Ast);
  Out->Options = Options;
  Program &P = *Out->Ast;

  Sema SemaPass(P, Diags);
  Out->Symbols = SemaPass.run();
  if (!Out->Symbols)
    return nullptr;
  const SymbolTable &Symbols = *Out->Symbols;

  Out->Database = std::make_unique<ProgramDatabase>(P, Symbols);
  Out->Callgraph = std::make_unique<CallGraph>(P);
  Out->ModRef = computeModRef<BitVarSet>(P, Symbols, *Out->Callgraph);
  Out->Plan = planEBlocks(P, *Out->Callgraph, Options.EBlocks);
  Out->MainIndex = P.findFunc("main")->Index;

  for (const SemDecl &S : P.Sems)
    Out->SemInit.push_back(S.Init);
  for (const ChanDecl &C : P.Chans)
    Out->ChanCapacity.push_back(C.Capacity);

  auto IsLogged = [&Out](const FuncDecl &F) { return Out->Plan.isLogged(F); };

  // Per-function static analyses and e-block metadata.
  Out->Funcs.resize(P.Funcs.size());
  Out->Cfgs.resize(P.Funcs.size());
  Out->Control.reserve(P.Funcs.size());
  Out->Simplified.resize(P.Funcs.size());

  std::vector<std::vector<uint32_t>> RegionEBlockIds(P.Funcs.size());
  std::vector<std::unordered_map<StmtId, uint32_t>> UnitAtStmt(
      P.Funcs.size());

  for (const auto &F : P.Funcs) {
    uint32_t FI = F->Index;
    Out->Cfgs[FI] = std::make_unique<Cfg>(P, *F);
    const Cfg &G = *Out->Cfgs[FI];
    assert(Out->Control.size() == FI && "functions in index order");
    Out->Control.emplace_back(G, DomTree(G, /*Post=*/true));
    Out->Simplified[FI] = std::make_unique<SimplifiedStaticGraph>(
        P, Symbols, G, Out->ModRef, IsLogged);

    // Global unit numbering. Every unit gets a program-wide id; UnitLog
    // instructions are only emitted for units that actually log (nonempty
    // shared-read set, not the entry unit — the e-block prelog covers it).
    for (const SyncUnit &U : Out->Simplified[FI]->units()) {
      uint32_t GlobalId = uint32_t(Out->Units.size());
      UnitInfo Info;
      Info.Id = GlobalId;
      Info.Func = FI;
      Info.SharedReads = U.SharedReads;
      Out->Units.push_back(std::move(Info));
      if (U.Start != Cfg::EntryId && !U.SharedReads.empty()) {
        const CfgNode &N = G.node(U.Start);
        assert(N.Kind == CfgNodeKind::Stmt && "unit starts at a statement");
        UnitAtStmt[FI][N.Stmt] = GlobalId;
      }
    }

    // E-block metadata with USED/DEFINED summaries.
    const FuncPlan &FP = Out->Plan.Funcs[FI];
    for (const EBlockRegion &Region : FP.Regions) {
      EBlockInfo Info;
      Info.Id = uint32_t(Out->EBlocks.size());
      Info.Func = FI;
      Info.Kind = Region.Kind;

      std::vector<CfgNodeId> Nodes;
      const Stmt *EntryStmt = nullptr;
      for (const Stmt *Top : Region.TopStmts) {
        forEachStmt(*Top, [&](const Stmt &S) {
          if (G.nodeOf(S.Id) != InvalidId)
            Nodes.push_back(G.nodeOf(S.Id));
        });
        if (!EntryStmt)
          EntryStmt = firstExecutableStmt(Top);
      }
      if (EntryStmt && !Nodes.empty()) {
        CfgNodeId Entry = G.nodeOf(EntryStmt->Id);
        assert(Entry != InvalidId && "region entry has no CFG node");
        auto Summary = computeUsedDefined<BitVarSet>(
            P, Symbols, G, Nodes, Entry, Out->ModRef, IsLogged);
        for (unsigned V : Summary.Used.toVector())
          Info.Used.push_back(VarId(V));
        for (unsigned V : Summary.Defined.toVector())
          Info.Defined.push_back(VarId(V));
      }
      RegionEBlockIds[FI].push_back(Info.Id);
      Out->EBlocks.push_back(std::move(Info));
    }

    CompiledFunction &CF = Out->Funcs[FI];
    CF.Name = F->Name;
    CF.Index = FI;
    CF.NumParams = uint32_t(F->Params.size());
    CF.FrameSize = Symbols.frame(*F).FrameSize;
    CF.Logged = FP.Logged;
  }

  // Code generation, both artifacts per function.
  CodeGen Gen(P, Symbols, *Out);
  for (const auto &F : P.Funcs)
    Gen.genFunction(*F, RegionEBlockIds[F->Index], UnitAtStmt[F->Index]);

  // Pre-decode both artifacts for the fast-path interpreters.
  for (CompiledFunction &CF : Out->Funcs) {
    CF.ObjectDecoded = DecodedChunk::decode(CF.Object);
    CF.EmuDecoded = DecodedChunk::decode(CF.Emu);
  }

  return Out;
}
