//===- core/DebugSession.h - Command-driven debugging session ---*- C++ -*-===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interactive debugging phase as a text-command API: a thin,
/// deterministic shell over PpdController so the same logic backs the
/// `ppd debug` REPL and the test suite. The paper's §7 asks for an
/// easy-to-use interface relating the graphs to program text; every
/// response names statements with their source lines.
///
/// Commands (one per call; the response is the printable result):
///   where [pid]            focus the failure/last event of a process
///   node N                 focus node N and show its dependences
///   back                   follow the first data dependence backwards
///   fwd                    follow the first traced data flow forwards
///   expand N               expand an unexpanded sub-graph node
///   races                  §6.4 race detection
///   restore PID I          §5.7 restoration at interval I
///   whatif PID I E VAR V   §5.7 what-if replay
///   list                   the program source
///   graphdot [N]           DOT text of the (sliced) dynamic graph
///   pardot                 DOT text of the parallel dynamic graph
///   stats                  controller counters
///   help
///
//===----------------------------------------------------------------------===//

#ifndef PPD_CORE_DEBUGSESSION_H
#define PPD_CORE_DEBUGSESSION_H

#include "core/Controller.h"

#include <string>

namespace ppd {

class DebugSession {
public:
  DebugSession(const CompiledProgram &Prog, PpdController &Controller)
      : Prog(Prog), Controller(Controller) {}

  /// Executes one command line; returns the printable response (never
  /// empty — unknown commands yield a hint). Once the controller's paged
  /// log has failed, every response is "error: <reason>" instead: the
  /// answer may have been computed from partial data.
  std::string execute(const std::string &Line);

  /// The currently focused node, or InvalidId.
  DynNodeId current() const { return Current; }

private:
  std::string dispatch(const std::string &Line);
  std::string showNode(DynNodeId Id);
  std::string cmdWhere(std::istream &Args);
  std::string cmdNode(std::istream &Args);
  std::string cmdBack();
  std::string cmdFwd();
  std::string cmdExpand(std::istream &Args);
  std::string cmdRaces();
  std::string cmdRestore(std::istream &Args);
  std::string cmdWhatIf(std::istream &Args);
  std::string cmdStats();

  const CompiledProgram &Prog;
  PpdController &Controller;
  DynNodeId Current = InvalidId;
};

} // namespace ppd

#endif // PPD_CORE_DEBUGSESSION_H
