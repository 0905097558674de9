//===- pdg/StaticPdg.h - Static program dependence graph --------*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static program dependence graph of one function (§4.1): the
/// *possible* data and control dependences between program components, as
/// opposed to the dynamic graph's *actual* run-time dependences. A
/// variation of the PDG of Kuck [13] / Ferrante et al. [17] / Horwitz et
/// al. [18], over the same node space as the Cfg (statements + ENTRY/EXIT).
///
/// The compiled program keeps only the control-dependence half of this
/// graph (CompiledProgram::Control), which is all the dynamic graph's
/// builder reads. The full graph, with its ReachingDefs-based data edges,
/// is built on demand: for `ppd compile --dump-pdg` and in tests.
///
//===----------------------------------------------------------------------===//

#ifndef PPD_PDG_STATICPDG_H
#define PPD_PDG_STATICPDG_H

#include "cfg/Cfg.h"
#include "dataflow/ModRef.h"
#include "dataflow/ReachingDefs.h"
#include "pdg/ControlDependence.h"
#include "support/VarSet.h"

#include <string>
#include <vector>

namespace ppd {

/// A data-dependence edge: \p To reads \p Var which \p From may have
/// written (flow dependence).
struct DataDep {
  CfgNodeId From;
  CfgNodeId To;
  VarId Var;
};

class StaticPdg {
public:
  StaticPdg(const Program &P, const SymbolTable &Symbols, const Cfg &G,
            const ModRefResult<BitVarSet> &MR);

  const Cfg &cfg() const { return G; }

  /// Control-dependence parents of \p Node.
  const std::vector<ControlDep> &controlParents(CfgNodeId Node) const {
    return CD.parents(Node);
  }

  /// Data-dependence predecessors of \p Node (deduplicated).
  const std::vector<DataDep> &dataDepsOf(CfgNodeId Node) const {
    return DataIn[Node];
  }

  /// All data-dependence edges of the function.
  std::vector<DataDep> allDataDeps() const;

  /// Graphviz rendering with the paper's edge styles: solid arrows for
  /// data dependence, dashed for control dependence (cf. Fig 4.1 legend).
  std::string dot(const Program &P) const;

private:
  const Program &P;
  const SymbolTable &Symbols;
  const Cfg &G;
  ControlDependence CD;
  std::vector<std::vector<DataDep>> DataIn; ///< by node id.
};

} // namespace ppd

#endif // PPD_PDG_STATICPDG_H
