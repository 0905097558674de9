//===- tools/ppd.cpp - The PPD command-line debugger ----------------------===//
//
// Part of PPD, a reproduction of Miller & Choi, "A Mechanism for Efficient
// Debugging of Parallel Programs" (PLDI 1988).
//
// Drives all three phases of the paper from the command line: `compile`
// is the preparatory phase, `run` and `races` the execution phase, and
// `debug` (interactive, commands from stdin) and `serve` (a daemon for
// concurrent sessions) the debugging phase; `client` scripts a running
// server and `fuzz` checks the pipeline differentially.
//
// Two tables drive the command line: Commands (name, file argument,
// handler, help) and Flags (name, value, the commands that read it, typed
// parser, help). Parsing, per-command acceptance and usage() all come
// from them.
//
//===----------------------------------------------------------------------===//

#include "compiler/Compiler.h"
#include "core/Controller.h"
#include "core/DeadlockAnalyzer.h"
#include "core/DebugSession.h"
#include "lang/AstPrinter.h"
#include "log/BufferPool.h"
#include "log/PageStore.h"
#include "log/ProgramDb.h"
#include "pdg/StaticPdg.h"
#include "server/DebugServer.h"
#include "server/Transport.h"
#include "server/Wire.h"
#include "stream/Ingest.h"
#include "stream/StreamClient.h"
#include "testing/Fuzzer.h"
#include "vm/Machine.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <type_traits>

#include <unistd.h>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace ppd;

namespace {

struct CliOptions {
  std::string File;

  // compile and run (every command that compiles or runs the file)
  uint64_t Seed = 1;
  uint32_t Quantum = 8;
  std::vector<std::vector<int64_t>> Inputs;
  std::vector<uint32_t> BreakLines;
  bool LeafInheritance = false;
  bool LoopBlocks = false;

  // compile
  bool DumpDisassembly = false;
  bool DumpPdg = false;
  bool DumpSimplified = false;
  bool DumpDatabase = false;

  // run
  RunMode Mode = RunMode::Logging;
  std::string SaveLog;
  std::string StreamAddr;       ///< --stream: server endpoint.
  uint32_t StreamProgram = 0;
  uint32_t SectionRecords = 64;
  bool NoPpdb = false;          ///< also debug/serve

  // debug / serve: the paged log tier
  std::vector<std::string> LogPaths;
  size_t PoolBudget = 0; ///< 0 = PPD_POOL_BUDGET env, else 256 MiB.

  // serve / client
  std::string SocketPath;
  std::string TcpAddr;

  // serve
  std::vector<std::string> ExtraPrograms;
  unsigned ServerThreads = 0;
  unsigned QueueLimit = 128;
  uint64_t TimeoutMs = 0;
  unsigned MaxSessions = 64;
  uint64_t IdleTimeoutMs = 0;
  bool MetricsDump = false;
  std::string SpillDir;
  size_t SpillBudget = 0; ///< 0 = unbounded
  unsigned CreditWindow = 8;
  bool SpillSync = false;

  // fuzz
  uint64_t FuzzRuns = 100;
  bool Minimize = false;
  std::string ReproOut;
};

/// Parses a decimal value in [0, Max] into \p Out. strtoull on its own
/// reads "abc" as 0, wraps "-1" to 2^64-1 and saturates on overflow, so
/// every numeric flag goes through here: anything but plain digits in
/// range is rejected.
template <typename T> bool parseUnsigned(const char *V, uint64_t Max, T &Out) {
  if (!std::isdigit(static_cast<unsigned char>(*V)))
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long N = std::strtoull(V, &End, 10);
  if (*End != '\0' || errno == ERANGE || N > Max)
    return false;
  Out = T(N);
  return true;
}

/// The signed sibling of parseUnsigned: an optional sign, then digits
/// only, in int64 range.
bool parseSigned(const char *V, int64_t &Out) {
  const char *Digits = *V == '-' || *V == '+' ? V + 1 : V;
  if (!std::isdigit(static_cast<unsigned char>(*Digits)))
    return false;
  char *End = nullptr;
  errno = 0;
  long long N = std::strtoll(V, &End, 10);
  if (*End != '\0' || errno == ERANGE)
    return false;
  Out = N;
  return true;
}

/// Parses "N", "Nk", "Nm", "Ng" (binary multiples) into bytes.
bool parseByteSize(const char *V, size_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long N = std::strtoull(V, &End, 10);
  if (!std::isdigit(static_cast<unsigned char>(*V)) || errno == ERANGE)
    return false;
  size_t Mult = 1;
  switch (*End) {
  case 'k': case 'K': Mult = size_t(1) << 10; ++End; break;
  case 'm': case 'M': Mult = size_t(1) << 20; ++End; break;
  case 'g': case 'G': Mult = size_t(1) << 30; ++End; break;
  default: break;
  }
  if (*End != '\0' || N > SIZE_MAX / Mult)
    return false;
  Out = size_t(N) * Mult;
  return true;
}

//===----------------------------------------------------------------------===//
// The flag table
//===----------------------------------------------------------------------===//

/// One bit per command; a flag's set is the commands whose handler reads
/// its field.
enum : unsigned {
  Compile = 1u << 0,
  Run = 1u << 1,
  Races = 1u << 2,
  Debug = 1u << 3,
  Serve = 1u << 4,
  Client = 1u << 5,
  Fuzz = 1u << 6,
  /// The commands that run the program (machineOptions).
  Runs = Run | Races | Debug | Serve,
  /// The commands that compile it (compileFile).
  Compiles = Compile | Runs,
};

struct Flag {
  const char *Name;
  const char *Meta; ///< the value's placeholder; null for a switch.
  unsigned Commands;
  /// Stores \p Value (null for a switch) into its field, or prints why
  /// it cannot and returns false. \p Name is the flag's, for the message.
  bool (*Parse)(const char *Name, const char *Value, CliOptions &Opts);
  const char *Help;
};

/// A vector field makes its flag repeatable: each use appends.
template <typename T> struct ElemOf { using type = T; };
template <typename T> struct ElemOf<std::vector<T>> { using type = T; };
template <typename T, typename V> void store(T &Field, V &&Value) {
  Field = std::forward<V>(Value);
}
template <typename T, typename V> void store(std::vector<T> &Field, V &&Value) {
  Field.push_back(std::forward<V>(Value));
}
template <auto Field>
using FieldElem = typename ElemOf<std::remove_reference_t<
    decltype(std::declval<CliOptions &>().*Field)>>::type;

/// Reports a bad value \p V of flag or variable \p What.
bool bad(const char *What, const char *V, const std::string &Expected) {
  std::fprintf(stderr, "error: bad %s '%s' (expected %s)\n", What, V,
               Expected.c_str());
  return false;
}

const char *const ByteSizeForm = "N, Nk, Nm, or Ng, not zero";

/// Digits only, in Min..Max and in the range of the field's type.
template <auto Field, uint64_t Min = 0, uint64_t Max = UINT64_MAX>
bool unsignedArg(const char *Name, const char *V, CliOptions &Opts) {
  using T = FieldElem<Field>;
  uint64_t Hi = std::min<uint64_t>(Max, std::numeric_limits<T>::max());
  T N{};
  if (!parseUnsigned(V, Hi, N) || N < Min)
    return bad(Name, V,
               "an integer in " + std::to_string(Min) + ".." +
                   std::to_string(Hi));
  store(Opts.*Field, N);
  return true;
}

/// A comma-separated list of signed 64-bit integers.
template <auto Field>
bool signedListArg(const char *Name, const char *V, CliOptions &Opts) {
  std::vector<int64_t> List;
  std::stringstream Ss(V);
  std::string Item;
  while (std::getline(Ss, Item, ','))
    if (!parseSigned(Item.c_str(), List.emplace_back()))
      return bad(Name, Item.c_str(), "a 64-bit signed integer");
  store(Opts.*Field, std::move(List));
  return true;
}

/// A positive byte count: N, Nk, Nm or Ng.
template <auto Field>
bool byteSizeArg(const char *Name, const char *V, CliOptions &Opts) {
  size_t N = 0;
  if (!parseByteSize(V, N) || N == 0)
    return bad(Name, V, ByteSizeForm);
  store(Opts.*Field, N);
  return true;
}

template <auto Field>
bool textArg(const char *, const char *V, CliOptions &Opts) {
  store(Opts.*Field, std::string(V));
  return true;
}

template <auto Field>
bool hostPortArg(const char *Name, const char *V, CliOptions &Opts) {
  std::string Host;
  uint16_t Port = 0;
  if (!splitHostPort(V, Host, Port))
    return bad(Name, V, "HOST:PORT");
  store(Opts.*Field, std::string(V));
  return true;
}

template <auto Field>
bool switchArg(const char *, const char *, CliOptions &Opts) {
  Opts.*Field = true;
  return true;
}

bool modeArg(const char *Name, const char *V, CliOptions &Opts) {
  static const std::pair<const char *, RunMode> Modes[] = {
      {"plain", RunMode::Plain},
      {"logging", RunMode::Logging},
      {"fulltrace", RunMode::FullTrace}};
  for (const auto &[Name, Mode] : Modes)
    if (std::strcmp(V, Name) == 0) {
      Opts.Mode = Mode;
      return true;
    }
  return bad(Name, V, "plain, logging, or fulltrace");
}

using O = CliOptions;
const Flag Flags[] = {
    {"--seed", "N", Runs | Fuzz, unsignedArg<&O::Seed>,
     "scheduler seed (default 1); one seed = one execution instance. fuzz: "
     "the first generated program's seed"},
    // A zero quantum runs empty slices forever.
    {"--quantum", "N", Runs, unsignedArg<&O::Quantum, 1>,
     "preemption quantum in instructions (default 8)"},
    {"--input", "v,v,...", Runs, signedListArg<&O::Inputs>,
     "input stream for the next process (repeatable: first use feeds pid "
     "0, second pid 1, ...)"},
    {"--break", "LINE", Runs, unsignedArg<&O::BreakLines>,
     "halt the machine when any process reaches a statement on this "
     "source line (repeatable)"},
    {"--leaf-inheritance", nullptr, Compiles, switchArg<&O::LeafInheritance>,
     "partitioner: unlog small call-graph leaves"},
    {"--loop-blocks", nullptr, Compiles, switchArg<&O::LoopBlocks>,
     "partitioner: loops become their own e-blocks"},
    {"--dump-ir", nullptr, Compile, switchArg<&O::DumpDisassembly>,
     "disassemble both artifacts"},
    {"--dump-pdg", nullptr, Compile, switchArg<&O::DumpPdg>,
     "static PDGs as DOT"},
    {"--dump-simplified", nullptr, Compile, switchArg<&O::DumpSimplified>,
     "simplified static graphs + sync units"},
    {"--dump-db", nullptr, Compile, switchArg<&O::DumpDatabase>,
     "the program database"},
    {"--mode", "M", Run, modeArg,
     "plain | logging | fulltrace (default logging)"},
    {"--save-log", "PATH", Run, textArg<&O::SaveLog>,
     "write the execution log to PATH, and its .ppdb sidecar next to it"},
    {"--stream", "ADDR", Run, textArg<&O::StreamAddr>,
     "live attach: ship completed log sections to the ppd server at this "
     "endpoint (a unix socket path or tcp:HOST:PORT) while the program "
     "runs (requires --mode logging, the default); the server's "
     "`tail`/`frontier` client commands then debug the still-running "
     "program"},
    {"--stream-program", "N", Run, unsignedArg<&O::StreamProgram>,
     "program index on the server the --stream belongs to (default 0)"},
    {"--section-records", "N", Run, unsignedArg<&O::SectionRecords, 1>,
     "unsealed-record threshold at which --stream seals a consistent cut "
     "(default 64)"},
    {"--log", "PATH", Debug | Serve, textArg<&O::LogPaths>,
     "open the saved log instead of re-running; process sections are "
     "paged in on demand. serve: repeatable, the Nth --log pairs with "
     "the Nth program, and more --log flags than programs is an error"},
    {"--no-ppdb", nullptr, Run | Debug | Serve, switchArg<&O::NoPpdb>,
     "neither read nor write the .ppdb program-database sidecar"},
    {"--pool-budget", "N[kmg]", Debug | Serve, byteSizeArg<&O::PoolBudget>,
     "buffer-pool byte budget for decoded log sections (default 256m; the "
     "PPD_POOL_BUDGET env var overrides the default, the flag overrides "
     "both)"},
    {"--socket", "PATH", Serve | Client, textArg<&O::SocketPath>,
     "unix socket path"},
    {"--tcp", "HOST:PORT", Serve | Client, hostPortArg<&O::TcpAddr>,
     "serve: also listen on TCP (port 0 = ephemeral; the bound port is "
     "printed). client: connect over TCP instead of --socket"},
    {"--program", "FILE", Serve, textArg<&O::ExtraPrograms>,
     "serve another program too (repeatable)"},
    // At most 1024 workers: far past any useful count, far short of what
    // would exhaust the process creating them.
    {"--server-threads", "N", Serve, unsignedArg<&O::ServerThreads, 0, 1024>,
     "request worker threads (default 0 = handle requests inline, one at "
     "a time)"},
    {"--queue-limit", "N", Serve, unsignedArg<&O::QueueLimit>,
     "max queued+running requests before Busy (default 128)"},
    {"--timeout-ms", "N", Serve, unsignedArg<&O::TimeoutMs>,
     "drop requests older than N ms at dequeue (default 0 = never)"},
    {"--max-sessions", "N", Serve, unsignedArg<&O::MaxSessions>,
     "concurrent session cap (default 64)"},
    {"--idle-timeout-ms", "N", Serve, unsignedArg<&O::IdleTimeoutMs>,
     "disconnect clients with no traffic for N ms (default 0 = never)"},
    {"--metrics-dump", nullptr, Serve, switchArg<&O::MetricsDump>,
     "print the metrics report on shutdown"},
    {"--spill-dir", "PATH", Serve, textArg<&O::SpillDir>,
     "append each ingested cut to a spill file here and finalize a "
     "canonical v2 log when the stream ends (default: ingest in memory "
     "only)"},
    {"--spill-budget", "N[kmg]", Serve, byteSizeArg<&O::SpillBudget>,
     "total spill bytes across all ingest sessions; past it new cuts are "
     "rejected Busy (default unbounded)"},
    {"--credit-window", "N", Serve, unsignedArg<&O::CreditWindow, 1>,
     "SectionData frames a tracer may have in flight before it must stall "
     "(default 8)"},
    {"--spill-sync", nullptr, Serve, switchArg<&O::SpillSync>,
     "fdatasync the spill file after every acked cut: an ack then "
     "survives power loss, not just a server crash (finalized logs are "
     "always fsynced through their rename)"},
    {"--runs", "N", Fuzz, unsignedArg<&O::FuzzRuns>,
     "number of generated programs (default 100)"},
    {"--minimize", nullptr, Fuzz, switchArg<&O::Minimize>,
     "delta-debug the first divergence down to a minimal repro before "
     "reporting it"},
    {"--repro-out", "PATH", Fuzz, textArg<&O::ReproOut>,
     "write the (minimized) repro source to PATH when a divergence is "
     "found"},
};

/// Buffer-pool budget resolution: --pool-budget, then the PPD_POOL_BUDGET
/// environment variable (how CI squeezes every test under a 1 MiB pool),
/// then 256 MiB. A variable that is set but is not a positive size is an
/// argument error, so a typo cannot quietly test the default pool.
bool poolBudget(const CliOptions &Opts, size_t &Bytes) {
  Bytes = Opts.PoolBudget;
  if (Bytes != 0)
    return true;
  Bytes = size_t(256) << 20;
  const char *Env = std::getenv("PPD_POOL_BUDGET");
  if (!Env || (parseByteSize(Env, Bytes) && Bytes != 0))
    return true;
  return bad("PPD_POOL_BUDGET", Env, ByteSizeForm);
}

//===----------------------------------------------------------------------===//
// The preparatory and execution phases
//===----------------------------------------------------------------------===//

std::unique_ptr<CompiledProgram> compileFile(const CliOptions &Opts,
                                             const std::string &File) {
  std::ifstream In(File);
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", File.c_str());
    return nullptr;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();

  CompileOptions COpts;
  COpts.EBlocks.LeafInheritance = Opts.LeafInheritance;
  COpts.EBlocks.LoopBlocks = Opts.LoopBlocks;
  DiagnosticEngine Diags;
  auto Prog = Compiler::compile(Buffer.str(), COpts, Diags);
  if (!Prog) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return nullptr;
  }
  for (const Diagnostic &D : Diags.diagnostics())
    std::fprintf(stderr, "%s\n", D.str().c_str());
  return Prog;
}

int cmdCompile(const CliOptions &Opts) {
  auto Prog = compileFile(Opts, Opts.File);
  if (!Prog)
    return 1;
  std::printf("%s: %zu function(s), %zu e-block(s), %zu sync unit(s), "
              "%u variable(s), %u shared\n",
              Opts.File.c_str(), Prog->Funcs.size(), Prog->EBlocks.size(),
              Prog->Units.size(), Prog->Symbols->numVars(),
              Prog->Symbols->NumSharedVars);
  for (const EBlockInfo &E : Prog->EBlocks) {
    std::printf("  e-block %u in %s (%s): USED={", E.Id,
                Prog->func(E.Func).Name.c_str(),
                E.Kind == EBlockKind::Loop ? "loop" : "segment");
    for (size_t I = 0; I != E.Used.size(); ++I)
      std::printf("%s%s", I ? "," : "",
                  Prog->Symbols->var(E.Used[I]).Name.c_str());
    std::printf("} DEFINED={");
    for (size_t I = 0; I != E.Defined.size(); ++I)
      std::printf("%s%s", I ? "," : "",
                  Prog->Symbols->var(E.Defined[I]).Name.c_str());
    std::printf("}\n");
  }
  if (Opts.DumpDisassembly)
    for (const CompiledFunction &F : Prog->Funcs) {
      std::printf("\n%s",
                  F.Object.disassemble(F.Name + " [object]").c_str());
      std::printf("\n%s", F.Emu.disassemble(F.Name + " [emu]").c_str());
    }
  if (Opts.DumpPdg)
    for (const auto &F : Prog->Ast->Funcs)
      std::printf("\n%s", StaticPdg(*Prog->Ast, *Prog->Symbols,
                                     *Prog->Cfgs[F->Index], Prog->ModRef)
                               .dot(*Prog->Ast)
                               .c_str());
  if (Opts.DumpSimplified)
    for (const auto &F : Prog->Ast->Funcs)
      std::printf("\n%s",
                  Prog->Simplified[F->Index]->dot(*Prog->Ast).c_str());
  if (Opts.DumpDatabase)
    std::printf("\n%s", Prog->Database->dump(*Prog->Ast).c_str());
  return 0;
}

MachineOptions machineOptions(const CliOptions &Opts,
                              const CompiledProgram &Prog) {
  MachineOptions MOpts;
  MOpts.Seed = Opts.Seed;
  MOpts.Quantum = Opts.Quantum;
  MOpts.ProcessInputs = Opts.Inputs;
  for (uint32_t Line : Opts.BreakLines) {
    bool Found = false;
    for (StmtId Id = 0; Id != Prog.Ast->numStmts(); ++Id)
      if (Prog.Ast->stmt(Id)->getLoc().Line == Line &&
          !isa<BlockStmt>(Prog.Ast->stmt(Id))) {
        MOpts.Breakpoints.push_back(Id);
        Found = true;
      }
    if (!Found)
      std::fprintf(stderr, "warning: no statement on line %u\n", Line);
  }
  return MOpts;
}

void reportRun(const CompiledProgram &Prog, const Machine &M,
               const RunResult &Result) {
  for (const OutputRecord &O : M.output())
    std::printf("[p%u] %lld\n", O.Pid, (long long)O.Value);
  switch (Result.Outcome) {
  case RunResult::Status::Completed:
    std::printf("-- completed: %llu steps, %zu process(es), log %zu "
                "bytes\n",
                (unsigned long long)Result.Steps, M.processes().size(),
                M.log().byteSize());
    break;
  case RunResult::Status::Failed:
    std::printf("-- FAILED: %s\n", Result.Error.str().c_str());
    if (Result.Error.Stmt != InvalidId)
      std::printf("   at: %s (line %u)\n",
                  AstPrinter::summarize(*Prog.Ast->stmt(Result.Error.Stmt))
                      .c_str(),
                  Prog.Ast->stmt(Result.Error.Stmt)->getLoc().Line);
    break;
  case RunResult::Status::Deadlock: {
    std::printf("-- DEADLOCK after %llu steps\n",
                (unsigned long long)Result.Steps);
    DeadlockAnalyzer Analyzer(Prog, M.log());
    std::printf("%s",
                Analyzer.analyze(Result.Deadlock).str(*Prog.Ast).c_str());
    break;
  }
  case RunResult::Status::StepLimit:
    std::printf("-- step limit reached\n");
    break;
  case RunResult::Status::Breakpoint:
    std::printf("-- BREAKPOINT: process %u at %s (line %u)\n",
                Result.BreakPid,
                AstPrinter::summarize(*Prog.Ast->stmt(Result.BreakStmt))
                    .c_str(),
                Prog.Ast->stmt(Result.BreakStmt)->getLoc().Line);
    break;
  }
}

/// Opens \p LogPath as a paged store and resolves its `.ppdb` sidecar:
/// a valid sidecar hands back its persisted index and parallel dynamic
/// graph, anything else skims a fresh index from the store and
/// (re)writes the sidecar (leaving \p Graph null — the controller
/// rebuilds it lazily if a query needs it). Returns null on open
/// failure — including a section the index skim cannot read — with the
/// reason printed.
std::shared_ptr<const PageStore>
openPagedStore(const CliOptions &Opts, const CompiledProgram &Prog,
               const std::string &LogPath,
               std::shared_ptr<const LogIndex> &Index,
               std::shared_ptr<const ParallelDynamicGraph> &Graph) {
  std::string Error;
  auto Store = PageStore::open(LogPath, &Error);
  if (!Store) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return nullptr;
  }
  if (Opts.NoPpdb)
    return Store;
  std::string DbPath = programDbPathFor(LogPath);
  ProgramDbStatus Status = readProgramDb(DbPath, Prog, *Store, Index, &Graph);
  if (Status == ProgramDbStatus::Ok) {
    std::printf("program database: %s (warm)\n", DbPath.c_str());
    return Store;
  }
  Index = std::make_shared<const LogIndex>(*Store);
  if (Store->failed()) {
    std::fprintf(stderr, "error: %s\n", Store->failure().c_str());
    return nullptr;
  }
  if (writeProgramDb(DbPath, Prog, *Store, *Index))
    std::printf("program database: %s rebuilt (was %s)\n", DbPath.c_str(),
                programDbStatusName(Status));
  else
    std::fprintf(stderr, "warning: cannot write %s\n", DbPath.c_str());
  return Store;
}

int cmdRun(const CliOptions &Opts) {
  auto Prog = compileFile(Opts, Opts.File);
  if (!Prog)
    return 1;
  MachineOptions MOpts = machineOptions(Opts, *Prog);
  MOpts.Mode = Opts.Mode;
  if (!Opts.StreamAddr.empty() && MOpts.Mode != RunMode::Logging) {
    std::fprintf(stderr,
                 "error: --stream needs --mode logging (sections are "
                 "sealed from the incremental log)\n");
    return 64;
  }
  Machine M(*Prog, MOpts);

  // Live attach: seal consistent cuts from the growing log at scheduler
  // rounds and ship them; the server debugs the frontier while we run.
  std::unique_ptr<stream::StreamClient> Stream;
  if (!Opts.StreamAddr.empty()) {
    stream::StreamClientOptions SCOpts;
    SCOpts.SocketPath = Opts.StreamAddr;
    SCOpts.Sealer.ProgramIndex = Opts.StreamProgram;
    SCOpts.Sealer.ProgramHash = programHash(*Prog);
    SCOpts.Sealer.SectionRecords = Opts.SectionRecords;
    Stream = std::make_unique<stream::StreamClient>(SCOpts);
    if (!Stream->start()) {
      std::fprintf(stderr, "error: cannot attach stream: %s\n",
                   Stream->error().c_str());
      return 1;
    }
    M.onRound(
        [&Stream](Machine &Mach) { Stream->pollRound(Mach.log()); });
  }

  RunResult Result = M.run();
  reportRun(*Prog, M, Result);

  if (Stream) {
    if (Stream->finish(M.log()))
      std::printf("-- streamed %llu section(s) in %llu cut(s) to %s "
                  "(stream %llu, %llu stall(s))\n",
                  (unsigned long long)Stream->sectionsShipped(),
                  (unsigned long long)Stream->cutsSealed(),
                  Opts.StreamAddr.c_str(),
                  (unsigned long long)Stream->streamId(),
                  (unsigned long long)Stream->stalls());
    else
      std::fprintf(stderr, "warning: stream did not complete: %s\n",
                   Stream->error().c_str());
  }
  if (!Opts.SaveLog.empty()) {
    if (!M.log().save(Opts.SaveLog, LogFormat::V2)) {
      std::fprintf(stderr, "error: cannot write log to %s\n",
                   Opts.SaveLog.c_str());
      return 1;
    }
    std::printf("-- log written to %s\n", Opts.SaveLog.c_str());
    // Drop the `.ppdb` sidecar next to the log so the first debug open
    // is already warm (skims here, where the run just paid far more).
    if (!Opts.NoPpdb) {
      std::string Error;
      auto Store = PageStore::open(Opts.SaveLog, &Error);
      if (Store) {
        LogIndex Index(*Store);
        std::string DbPath = programDbPathFor(Opts.SaveLog);
        if (writeProgramDb(DbPath, *Prog, *Store, Index))
          std::printf("-- program database written to %s\n", DbPath.c_str());
        else
          std::fprintf(stderr, "warning: cannot write %s\n", DbPath.c_str());
      } else {
        std::fprintf(stderr, "warning: cannot reopen %s for the program "
                             "database: %s\n",
                     Opts.SaveLog.c_str(), Error.c_str());
      }
    }
  }
  return Result.Outcome == RunResult::Status::Completed ? 0 : 2;
}

int cmdRaces(const CliOptions &Opts) {
  auto Prog = compileFile(Opts, Opts.File);
  if (!Prog)
    return 1;
  Machine M(*Prog, machineOptions(Opts, *Prog));
  RunResult Result = M.run();
  reportRun(*Prog, M, Result);

  PpdController Controller(*Prog, M.takeLog());
  auto Races = Controller.detectRaces();
  if (Races.raceFree()) {
    std::printf("-- execution instance is race-free (Def 6.4); %llu edge "
                "pair(s) examined\n",
                (unsigned long long)Races.PairsExamined);
    return 0;
  }
  RaceDetector Detector(Controller.parallelGraph(), *Prog->Symbols);
  std::printf("-- %zu race(s) found (%llu pair(s) examined):\n",
              Races.Races.size(),
              (unsigned long long)Races.PairsExamined);
  for (const Race &R : Races.Races)
    std::printf("   %s\n", Detector.describe(R, *Prog->Ast).c_str());
  return 3;
}

//===----------------------------------------------------------------------===//
// The interactive debugging phase
//===----------------------------------------------------------------------===//

int cmdDebug(const CliOptions &Opts) {
  if (Opts.LogPaths.size() > 1) {
    std::fprintf(stderr, "error: %zu --log flags; debug opens one log\n",
                 Opts.LogPaths.size());
    return 64;
  }
  size_t Budget = 0;
  if (!poolBudget(Opts, Budget))
    return 64;
  auto Prog = compileFile(Opts, Opts.File);
  if (!Prog)
    return 1;

  // A --log file opens as a file store (adopting or rebuilding the .ppdb
  // sidecar); otherwise the program runs here and its log becomes an
  // in-memory store. Either way queries fault sections in through the
  // pool, and a log that is unreadable at open is an error.
  std::shared_ptr<const PageStore> Store;
  std::shared_ptr<const LogIndex> Index;
  PpdControllerOptions COpts;
  if (!Opts.LogPaths.empty()) {
    Store = openPagedStore(Opts, *Prog, Opts.LogPaths[0], Index,
                           COpts.AdoptedGraph);
    if (!Store)
      return 1;
    std::printf("paged log: %u process(es), %zu bytes on disk, pool "
                "budget %zu bytes\n",
                Store->numProcs(), Store->fileBytes(), Budget);
  } else {
    Machine M(*Prog, machineOptions(Opts, *Prog));
    RunResult Result = M.run();
    reportRun(*Prog, M, Result);
    Store = PageStore::fromLog(M.takeLog());
  }
  PpdController Controller(
      *Prog, PagedLog{std::move(Store), std::make_shared<BufferPool>(Budget)},
      std::move(Index), COpts);
  if (std::string Failure = Controller.logFailure(); !Failure.empty()) {
    std::fprintf(stderr, "error: %s\n", Failure.c_str());
    return 1;
  }
  DebugSession Session(*Prog, Controller);
  std::printf("PPD debugging phase. Type 'help' for commands.\n");
  std::string Line;
  while (std::printf("(ppd) "), std::fflush(stdout),
         std::getline(std::cin, Line)) {
    if (Line == "quit" || Line == "q")
      break;
    std::fputs(Session.execute(Line).c_str(), stdout);
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// The debug server and its scriptable client
//===----------------------------------------------------------------------===//

int cmdServe(const CliOptions &Opts) {
  if (Opts.SocketPath.empty() && Opts.TcpAddr.empty()) {
    std::fprintf(stderr,
                 "error: serve needs --socket PATH and/or --tcp "
                 "HOST:PORT\n");
    return 64;
  }
  if (Opts.LogPaths.size() > 1 + Opts.ExtraPrograms.size()) {
    std::fprintf(stderr, "error: %zu --log flag(s) for %zu program(s)\n",
                 Opts.LogPaths.size(), 1 + Opts.ExtraPrograms.size());
    return 64;
  }
  DebugServerOptions SOpts;
  if (!poolBudget(Opts, SOpts.Registry.PoolBudget))
    return 64;
  SOpts.Threads = Opts.ServerThreads;
  SOpts.QueueLimit = Opts.QueueLimit;
  SOpts.TimeoutMs = Opts.TimeoutMs;
  SOpts.Registry.MaxSessions = Opts.MaxSessions;
  DebugServer Server(SOpts);

  std::vector<std::string> Files;
  Files.push_back(Opts.File);
  Files.insert(Files.end(), Opts.ExtraPrograms.begin(),
               Opts.ExtraPrograms.end());
  for (size_t I = 0; I != Files.size(); ++I) {
    auto Prog = compileFile(Opts, Files[I]);
    if (!Prog)
      return 1;
    // A --log file is served from its file store; a program without one
    // runs here and its log is served from an in-memory store. Either way
    // every session faults sections through the registry's shared pool.
    bool FromFile = I < Opts.LogPaths.size();
    std::shared_ptr<const PageStore> Store;
    std::shared_ptr<const LogIndex> PagedIndex;
    std::shared_ptr<const ParallelDynamicGraph> PagedGraph;
    if (FromFile) {
      Store = openPagedStore(Opts, *Prog, Opts.LogPaths[I], PagedIndex,
                             PagedGraph);
      if (!Store)
        return 1;
    } else {
      Machine M(*Prog, machineOptions(Opts, *Prog));
      M.run();
      Store = PageStore::fromLog(M.takeLog());
    }
    uint32_t Index = Server.addProgram(
        std::move(Prog), PagedLog{std::move(Store), nullptr},
        std::move(PagedIndex), std::move(PagedGraph));
    std::printf("program %u: %s%s\n", Index, Files[I].c_str(),
                FromFile ? " (saved log)" : "");
  }

  // Streaming ingest is always armed: `ppd run --stream` opens a stream
  // against any served program; --spill-dir adds durability, and
  // --spill-budget bounds the total it may accumulate.
  stream::IngestOptions IOpts;
  if (!Opts.SpillDir.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(Opts.SpillDir, Ec);
    if (Ec) {
      std::fprintf(stderr, "error: cannot create spill directory %s: %s\n",
                   Opts.SpillDir.c_str(), Ec.message().c_str());
      return 1;
    }
  }
  IOpts.SpillDir = Opts.SpillDir;
  IOpts.CreditWindow = Opts.CreditWindow;
  IOpts.SpillBudget = Opts.SpillBudget;
  IOpts.SpillSync = Opts.SpillSync;
  stream::IngestRegistry Ingest(Server, IOpts);
  Server.setStreamDispatcher(
      [&Ingest](const Request &Req) { return Ingest.dispatch(Req); });

  raiseFdLimit();
  EpollServerOptions EOpts;
  if (!Opts.SocketPath.empty()) {
    EOpts.UnixListenFd = listenUnix(Opts.SocketPath);
    if (EOpts.UnixListenFd < 0)
      return 1;
    EOpts.UnixPath = Opts.SocketPath;
    std::printf("ppd server listening on %s\n", Opts.SocketPath.c_str());
  }
  if (!Opts.TcpAddr.empty()) {
    uint16_t BoundPort = 0;
    EOpts.TcpListenFd = listenTcp(Opts.TcpAddr, &BoundPort);
    if (EOpts.TcpListenFd < 0) {
      if (EOpts.UnixListenFd >= 0) {
        ::close(EOpts.UnixListenFd);
        ::unlink(Opts.SocketPath.c_str());
      }
      return 1;
    }
    std::string Host;
    uint16_t Port = 0;
    splitHostPort(Opts.TcpAddr, Host, Port);
    // E2e drivers and scripts parse this line for the ephemeral port.
    std::printf("ppd server listening on tcp %s port %u\n",
                Host.empty() ? "0.0.0.0" : Host.c_str(), unsigned(BoundPort));
  }
  std::fflush(stdout);
  EOpts.IdleTimeoutMs = Opts.IdleTimeoutMs;
  int Rc = runEpollServer(Server, EOpts);
  if (Opts.MetricsDump)
    std::printf("%s", Server.metricsReport().c_str());
  return Rc;
}

/// One client command line → one request, or no request (errors, quit).
/// Returns false to end the script loop.
bool clientCommand(const std::string &Line, Request &Req, bool &Send) {
  Send = false;
  std::stringstream Args(Line);
  std::string Cmd;
  if (!(Args >> Cmd) || Cmd.empty())
    return true;
  if (Cmd == "quit" || Cmd == "q")
    return false;

  // Session and stream ids take the whole token, digits only: `close 1z`
  // is an error, not session 1. A missing id leaves 0 (the commands that
  // need one say so below); a malformed one is reported and sends nothing.
  auto ParseId = [&](const char *What, uint64_t &Id) {
    std::string Token;
    if (!(Args >> Token) || parseUnsigned(Token.c_str(), UINT64_MAX, Id))
      return true;
    std::fprintf(stderr, "client: bad %s id '%s'\n", What, Token.c_str());
    return false;
  };
  // The debugger command that ends a `query` or `tail` line.
  auto RestOfLine = [&] {
    std::string Rest;
    std::getline(Args, Rest);
    size_t Start = Rest.find_first_not_of(' ');
    return Start == std::string::npos ? "" : Rest.substr(Start);
  };

  if (Cmd == "open") {
    Req.Type = MsgType::OpenSession;
    // A bare `open` opens program 0.
    std::string Index;
    if ((Args >> Index) &&
        !parseUnsigned(Index.c_str(), UINT32_MAX, Req.ProgramIndex)) {
      std::fprintf(stderr, "client: bad program index '%s'\n",
                   Index.c_str());
      return true;
    }
    Send = true;
  } else if (Cmd == "query") {
    Req.Type = MsgType::Query;
    if (!ParseId("session", Req.SessionId))
      return true;
    Req.Command = RestOfLine();
    Send = Req.SessionId != 0;
  } else if (Cmd == "step") {
    Req.Type = MsgType::Step;
    if (!ParseId("session", Req.SessionId))
      return true;
    std::string Dir;
    Args >> Dir;
    if (Req.SessionId != 0 && Dir != "back" && Dir != "fwd") {
      std::fprintf(stderr, "client: bad step direction '%s'\n", Dir.c_str());
      return true;
    }
    Req.Direction = Dir == "fwd" ? 1 : 0;
    Send = Req.SessionId != 0;
  } else if (Cmd == "races") {
    Req.Type = MsgType::Races;
    if (!ParseId("session", Req.SessionId))
      return true;
    Send = Req.SessionId != 0;
  } else if (Cmd == "stats") {
    Req.Type = MsgType::Stats;
    if (!ParseId("session", Req.SessionId))
      return true;
    Send = true;
  } else if (Cmd == "close") {
    Req.Type = MsgType::CloseSession;
    if (!ParseId("session", Req.SessionId))
      return true;
    Send = Req.SessionId != 0;
  } else if (Cmd == "tail") {
    // tail STREAM CMD... — run a debug command against the stream's
    // current frontier (the prefix of the run ingested so far).
    Req.Type = MsgType::TailQuery;
    if (!ParseId("stream", Req.StreamId))
      return true;
    Req.Command = RestOfLine();
    Send = Req.StreamId != 0;
  } else if (Cmd == "frontier") {
    // frontier [STREAM] — ingest progress of one stream, or all of them.
    Req.Type = MsgType::Frontier;
    if (!ParseId("stream", Req.StreamId))
      return true;
    Send = true;
  } else if (Cmd == "shutdown") {
    Req.Type = MsgType::Shutdown;
    Send = true;
  } else {
    std::fprintf(stderr, "client: unknown command '%s'\n", Cmd.c_str());
    return true;
  }
  if (!Send)
    std::fprintf(stderr, "client: '%s' needs a session id\n", Cmd.c_str());
  return true;
}

void printResponse(const Response &Resp) {
  switch (Resp.Type) {
  case RespType::SessionOpened:
    std::printf("session %llu\n", (unsigned long long)Resp.SessionId);
    break;
  case RespType::Result:
  case RespType::StatsText:
    std::fputs(Resp.Text.c_str(), stdout);
    break;
  case RespType::Closed:
    std::printf("closed\n");
    break;
  case RespType::Busy:
    std::printf("BUSY\n");
    break;
  case RespType::Error:
    std::printf("ERROR %u: %s\n", unsigned(Resp.Code), Resp.Text.c_str());
    break;
  case RespType::ShutdownAck:
    std::printf("shutdown requested\n");
    break;
  case RespType::Ack:
    std::printf("ack stream %llu, credits %u\n",
                (unsigned long long)Resp.StreamId, Resp.Credits);
    break;
  }
}

int cmdClient(const CliOptions &Opts) {
  // --tcp wins, --socket otherwise.
  std::string Address =
      Opts.TcpAddr.empty() ? Opts.SocketPath : "tcp:" + Opts.TcpAddr;
  if (Address.empty()) {
    std::fprintf(stderr,
                 "error: client needs --socket PATH or --tcp HOST:PORT\n");
    return 64;
  }
  ClientConnection Conn;
  if (!Conn.connect(Address)) {
    std::fprintf(stderr, "error: cannot connect to %s\n", Address.c_str());
    return 1;
  }
  std::string Line;
  while (std::getline(std::cin, Line)) {
    Request Req;
    bool Send = false;
    if (!clientCommand(Line, Req, Send))
      break;
    if (!Send)
      continue;
    Response Resp;
    if (!Conn.roundTrip(std::move(Req), Resp)) {
      std::fprintf(stderr, "error: connection lost\n");
      return 1;
    }
    printResponse(Resp);
    std::fflush(stdout);
  }
  return 0;
}

int cmdFuzz(const CliOptions &Opts) {
  testing::FuzzOptions FOpts;
  FOpts.Runs = Opts.FuzzRuns;
  FOpts.FirstSeed = Opts.Seed;
  FOpts.Minimize = Opts.Minimize;
  FOpts.Log = [](const std::string &Line) {
    std::fprintf(stderr, "%s\n", Line.c_str());
  };

  testing::FuzzResult Result = testing::runFuzz(FOpts);
  std::printf("%s", testing::summarizeFuzz(Result).c_str());

  if (Result.Failed && !Opts.ReproOut.empty()) {
    std::ofstream Out(Opts.ReproOut);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", Opts.ReproOut.c_str());
      return 1;
    }
    Out << "// ppd fuzz repro: seed " << Result.FailingSeed << ", oracle "
        << Result.Report.Oracle << "\n"
        << Result.ReproSource;
    std::fprintf(stderr, "repro written to %s\n", Opts.ReproOut.c_str());
  }
  return Result.Failed ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// The command table, usage and argument parsing
//===----------------------------------------------------------------------===//

struct Command {
  const char *Name;
  unsigned Bit;
  bool TakesFile;
  int (*Run)(const CliOptions &);
  const char *Help;
};

const Command Commands[] = {
    {"compile", Compile, true, cmdCompile,
     "preparatory phase: report the static artifacts"},
    {"run", Run, true, cmdRun,
     "execution phase: run the object code, generate the log"},
    {"races", Races, true, cmdRaces,
     "run, then detect races on the execution instance"},
    {"debug", Debug, true, cmdDebug,
     "debugging phase: interactive flowback session"},
    {"serve", Serve, true, cmdServe,
     "debugging phase as a daemon: concurrent sessions over a unix socket "
     "(--socket) and/or TCP (--tcp); the epoll dispatcher serves both "
     "listeners from one thread"},
    {"client", Client, false, cmdClient,
     "scriptable client for a running server (--socket or --tcp; commands "
     "from stdin: open, query, step, races, stats, close, tail, frontier, "
     "shutdown, quit; `tail ID CMD` debugs a live stream's frontier, "
     "`frontier [ID]` shows ingest progress)"},
    {"fuzz", Fuzz, false, cmdFuzz,
     "differential fuzzing: random PPL programs checked against the "
     "paper's replay theorem and every redundant pipeline pair; every "
     "seed runs, each divergence is listed, and any exits 1"},
};

/// Prints \p Line (the entry's head), then \p Text word-wrapped in a
/// column from \p Col; a head too wide for its column gets a line of its
/// own.
void printEntry(std::string Line, const std::string &Text, size_t Col) {
  constexpr size_t Width = 78;
  if (Line.size() >= Col) {
    std::fprintf(stderr, "%s\n", Line.c_str());
    Line.clear();
  }
  std::stringstream Words(Text);
  std::string Word;
  while (Words >> Word) {
    if (Line.size() > Col && Line.size() + 1 + Word.size() > Width) {
      std::fprintf(stderr, "%s\n", Line.c_str());
      Line.clear();
    }
    Line.resize(std::max(Line.size(), Col), ' ');
    Line += (Line.size() > Col ? " " : "") + Word;
  }
  std::fprintf(stderr, "%s\n", Line.c_str());
}

/// "run/races/debug": the commands in \p Bits, in table order.
std::string commandNames(unsigned Bits) {
  std::string Names;
  for (const Command &C : Commands)
    if (Bits & C.Bit)
      Names += (Names.empty() ? "" : "/") + std::string(C.Name);
  return Names;
}

void usage() {
  std::fprintf(stderr, "usage: ppd <command> <file.ppl> [options]\n\n"
                       "commands:\n");
  for (const Command &C : Commands)
    printEntry(std::string("  ") + C.Name,
               std::string(C.Help) +
                   (C.TakesFile ? "" : " (takes no file argument)"),
               12);
  std::fprintf(stderr, "\noptions (the commands that read each in "
                       "parentheses):\n");
  for (const Flag &F : Flags)
    printEntry(std::string("  ") + F.Name + (F.Meta ? " " : "") +
                   (F.Meta ? F.Meta : ""),
               "(" + commandNames(F.Commands) + ") " + F.Help, 24);
}

/// Reads the program file (for commands that take one) and the flags
/// after it. Every flag must be one the command reads; false, with the
/// reason on stderr, on anything else.
bool parseArgs(const Command &Cmd, int Argc, char **Argv, CliOptions &Opts) {
  int I = 2;
  if (Cmd.TakesFile) {
    if (Argc <= I) {
      std::fprintf(stderr, "error: %s needs a program file\n", Cmd.Name);
      return false;
    }
    Opts.File = Argv[I++];
  }
  for (; I < Argc; ++I) {
    const char *Arg = Argv[I];
    const Flag *F = std::find_if(
        std::begin(Flags), std::end(Flags),
        [Arg](const Flag &F) { return std::strcmp(F.Name, Arg) == 0; });
    if (F == std::end(Flags)) {
      std::fprintf(stderr, "error: unknown option %s\n", Arg);
      return false;
    }
    if (!(F->Commands & Cmd.Bit)) {
      std::fprintf(stderr, "error: %s does not apply to %s (only to %s)\n",
                   Arg, Cmd.Name, commandNames(F->Commands).c_str());
      return false;
    }
    const char *Value = nullptr;
    if (F->Meta) {
      if (I + 1 == Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Arg);
        return false;
      }
      Value = Argv[++I];
    }
    if (!F->Parse(F->Name, Value, Opts))
      return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    usage();
    return 64;
  }
  const Command *Cmd = std::find_if(
      std::begin(Commands), std::end(Commands),
      [&](const Command &C) { return std::strcmp(C.Name, Argv[1]) == 0; });
  // One error path for every unrecognized command: name it, show usage,
  // and exit with a code distinct from argument-parse failures (64).
  if (Cmd == std::end(Commands)) {
    std::fprintf(stderr, "error: unknown command '%s'\n", Argv[1]);
    usage();
    return 65;
  }
  CliOptions Opts;
  if (!parseArgs(*Cmd, Argc, Argv, Opts)) {
    usage();
    return 64;
  }
  return Cmd->Run(Opts);
}
