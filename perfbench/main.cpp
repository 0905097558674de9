//===- perfbench/main.cpp - The debugging-episode benchmark ---------------===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
// One run measures one workload for --seconds:
//
//   1. set-up, five times (the median is setup_s): generate the source
//      from the seed, prepare the served log and `.ppdb`, fork `ppd
//      serve`, open the query sessions;
//   2. one-second slices of in-process debugging episodes (Episode.h)
//      run back to back, and the served variant (Served.h) against the
//      last set-up's server: after each slice's episodes when traced,
//      once after the slices when not;
//   3. output checks; then one report line per metric and, last, one
//      JSON object.
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics, runs every other episode with spans on, and writes
// the spans as Chrome trace-event JSON to --trace-out.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --workdir DIR [--trace-out FILE] [--smoke]
// The benchmark chdirs into DIR (a private, empty directory) and keeps
// every artifact there.
//
//===----------------------------------------------------------------------===//

#include "Episode.h"
#include "Served.h"
#include "Trace.h"
#include "Workloads.h"

#include "log/PageStore.h"
#include "log/ProgramDb.h"
#include "support/Simd.h"
#include "vm/Machine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace ppd;
using namespace perfbench;

namespace {

/// Taken before anything else runs: setup_s starts at process start.
const uint64_t ProcessStartNs = nowNs();
/// setup_s is the median of this many set-ups.
constexpr int SetupRounds = 5;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
  std::string WorkDir;
  std::string TraceOut;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--smoke") {
      A.Smoke = true;
      continue;
    }
    if (I + 1 == Argc)
      return false;
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Value;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
      if (*End)
        return false;
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      if (*End || !(A.Seconds > 0))
        return false;
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        return false;
      A.Trace = Value == "1";
    } else if (Flag == "--workdir") {
      A.WorkDir = Value;
    } else if (Flag == "--trace-out") {
      A.TraceOut = Value;
    } else {
      return false;
    }
  }
  return !A.Workload.empty() && !A.WorkDir.empty();
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank percentile, \p P in (0, 1].
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(std::ceil(P * double(V.size())));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

template <typename Fn>
std::vector<double> field(const std::vector<EpisodeResult> &Eps, Fn Field) {
  std::vector<double> V;
  for (const EpisodeResult &E : Eps)
    V.push_back(double(Field(E)));
  return V;
}

template <typename Fn>
double medianOf(const std::vector<EpisodeResult> &Eps, Fn Field) {
  return median(field(Eps, Field));
}

/// The end-to-end timings come from the quiet part of the run. Outside
/// load only ever adds time, and on a shared host the CPU's speed swings
/// by up to 2x for seconds at a time; an in-run median follows those
/// swings, the fast decile tracks the unperturbed speed and repeats
/// across runs. Phase timings, and each walk's median step, are the lower
/// decile of the episodes.
template <typename Fn>
double lowerDecileOf(const std::vector<EpisodeResult> &Eps, Fn Field) {
  return percentile(field(Eps, Field), 0.10);
}

/// The served latency and throughput: each slice's p50 and requests/s,
/// taken at the fast decile of the run's slices.
double sliceP50Us(const ServedResult &S) {
  std::vector<double> P50;
  for (const std::vector<double> &Us : S.SliceUs)
    if (!Us.empty())
      P50.push_back(median(Us));
  return percentile(P50, 0.10);
}

double sliceQps(const ServedResult &S) {
  std::vector<double> Qps;
  for (size_t I = 0; I != S.SliceUs.size(); ++I)
    Qps.push_back(ratio(double(S.SliceUs[I].size()), S.SliceSeconds[I]));
  return percentile(Qps, 0.90);
}

double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

//===----------------------------------------------------------------------===//
// Host fingerprint
//===----------------------------------------------------------------------===//

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

std::string cpuInfoField(const std::string &Key) {
  std::ifstream Info("/proc/cpuinfo");
  std::string Line;
  while (std::getline(Info, Line))
    if (Line.rfind(Key, 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Line.find_first_not_of(' ', Colon + 1));
    }
  return "unknown";
}

std::string hostFingerprint(const Args &A, const Workload &W) {
  char Hash[32];
  std::snprintf(Hash, sizeof(Hash), "%016llx",
                (unsigned long long)hashText(W.Source));
  std::ostringstream J;
  J << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": " << jsonString(cpuInfoField("model name"))
    << ", \"cpu_mhz\": " << jsonString(cpuInfoField("cpu MHz"))
    << ", \"simd\": "
    << jsonString(simd::levelName(simd::activeLevel()))
    << ", \"jit_compiled_in\": " << (PPD_JIT ? "true" : "false")
    << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
    << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
    << ", \"workload\": " << jsonString(A.Workload)
    << ", \"seed\": " << A.Seed << ", \"source_fnv1a\": \"" << Hash
    << "\", \"smoke\": " << (A.Smoke ? "true" : "false") << "}";
  return J.str();
}

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

/// What one set-up produces and the measured phases consume.
struct Prepared {
  Workload W;
  std::unique_ptr<CompiledProgram> Prog;
  std::unique_ptr<CompiledProgram> Plain;
  std::unique_ptr<ServedRig> Rig;
};

bool fail(const std::string &Why) {
  std::fprintf(stderr, "perfbench: %s\n", Why.c_str());
  return false;
}

bool writeText(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
  return bool(Out.flush());
}

/// Source generation (with its determinism self-check), the served log
/// and `.ppdb`, the forked server and its sessions.
bool setUp(const Args &A, const ServedFiles &Files, Prepared &P) {
  if (!makeWorkload(A.Workload, A.Seed, A.Smoke, P.W))
    return fail("unknown workload '" + A.Workload + "'");
  Workload Again, Other;
  makeWorkload(A.Workload, A.Seed, A.Smoke, Again);
  makeWorkload(A.Workload, A.Seed + 1, A.Smoke, Other);
  if (Again.Source != P.W.Source)
    return fail("generator is not deterministic for one seed");
  if (Other.Source == P.W.Source)
    return fail("two seeds generated the same source");

  std::string Error;
  P.Prog = compileSource(P.W.Source, true, Error);
  P.Plain = P.Prog ? compileSource(P.W.Source, false, Error) : nullptr;
  if (!P.Plain)
    return fail("generated source does not compile:\n" + Error);

  Machine M(*P.Prog, MachineOptions{});
  M.run();
  if (!writeText(Files.Source, P.W.Source) ||
      !M.log().save(Files.Log, LogFormat::V2))
    return fail("cannot write the served program or log");
  auto Store = PageStore::open(Files.Log, &Error);
  if (!Store)
    return fail(Error);
  LogIndex Index(*Store);
  if (!writeProgramDb(programDbPathFor(Files.Log), *P.Prog, *Store, Index))
    return fail("cannot write the served .ppdb");

  P.Rig = std::make_unique<ServedRig>();
  if (!P.Rig->start(Files, 3, Error))
    return fail(Error);
  return true;
}

//===----------------------------------------------------------------------===//
// Span analysis
//===----------------------------------------------------------------------===//

std::string layerOf(const char *Name) {
  std::string S = Name;
  return S.substr(0, S.find('.'));
}

struct SpanSummary {
  /// Per layer, the self time (ms) of each traced episode.
  std::map<std::string, std::vector<double>> SelfMs;
  /// Per traced episode, the share of the episode span no child covers.
  std::vector<double> UncoveredPct;
};

/// Self time of a span is its duration minus its children's. Episode
/// layers count spans under an "episode" root; the front-end breakdown
/// (sema/dataflow/cfg/pdg, timed separately on the same episode) is
/// subtracted from the compiler's share so the layers do not overlap.
SpanSummary summarizeSpans(const Tracer &T) {
  SpanSummary Sum;
  for (const auto &B : T.buffers()) {
    const std::vector<Span> &S = B->Spans;
    std::vector<double> ChildMs(S.size(), 0);
    for (const Span &Sp : S)
      if (Sp.Parent >= 0)
        ChildMs[size_t(Sp.Parent)] += double(Sp.EndNs - Sp.StartNs) / 1e6;
    std::map<uint64_t, std::map<std::string, double>> ByGroup;
    for (size_t I = 0; I != S.size(); ++I) {
      double Dur = double(S[I].EndNs - S[I].StartNs) / 1e6;
      size_t Root = I;
      while (S[Root].Parent >= 0)
        Root = size_t(S[Root].Parent);
      std::string Name = S[I].Name;
      std::string Layer = layerOf(S[I].Name);
      bool UnderEpisode = std::string(S[Root].Name) == "episode";
      if (Name == "episode") {
        Sum.UncoveredPct.push_back(100.0 * ratio(Dur - ChildMs[I], Dur));
        ByGroup[S[I].Group];
      } else if (UnderEpisode) {
        ByGroup[S[I].Group][Layer] += Dur - ChildMs[I];
      } else if (Layer == "sema" || Layer == "dataflow" || Layer == "cfg" ||
                 Layer == "pdg") {
        ByGroup[S[I].Group][Layer] += Dur - ChildMs[I];
        ByGroup[S[I].Group]["compiler"] -= Dur - ChildMs[I];
      }
    }
    for (auto &[Group, Layers] : ByGroup)
      for (auto &[Layer, Ms] : Layers)
        Sum.SelfMs[Layer].push_back(Ms);
  }
  return Sum;
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name, Unit;
  double Value;
};

void printReport(const std::vector<Metric> &Metrics) {
  for (const Metric &M : Metrics)
    std::printf("  %-34s %16.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false", (unsigned long long)Attempted,
              (unsigned long long)Failed);
  for (size_t I = 0; I != Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--trace-out FILE] [--smoke]\n");
    return 64;
  }
  if (::chdir(A.WorkDir.c_str()) != 0) {
    fail("cannot enter " + A.WorkDir);
    return 1;
  }
  ServedFiles Files;
  Files.PpdBinary = PERFBENCH_PPD_BINARY;

  // 1. Set-up, SetupRounds times; keep the last. Each round is timed from
  // its own start, after the previous round's server has shut down; the
  // first from process start.
  Prepared P;
  std::vector<double> SetupS;
  for (int Round = 0; Round != SetupRounds; ++Round) {
    if (P.Rig)
      P.Rig->stop();
    P = Prepared();
    uint64_t T0 = Round ? nowNs() : ProcessStartNs;
    if (!setUp(A, Files, P))
      return 1;
    SetupS.push_back(double(nowNs() - T0) / 1e9);
  }
  const Workload &W = P.W;
  std::printf("host: %s\n", hostFingerprint(A, W).c_str());

  // 2-3. One-second slices of episodes. A traced run gives 40% of each
  // slice to the served variant, whose per-layer metrics it reports, and
  // alternates untraced and traced episodes; the untraced ones are the
  // tracing-overhead baseline. An untraced run gives whole slices to the
  // episodes and runs the served variant once afterwards, for its checks.
  Tracer Trace;
  if (A.Trace)
    Trace.enable();
  SpanBuffer *Spans = A.Trace ? Trace.newBuffer() : nullptr;
  std::vector<EpisodeResult> Plain, Traced;
  ServedResult S;
  bool Correct = true;
  std::string FirstError;
  uint64_t Attempted = 0, Failed = 0;
  auto Note = [&](bool Ok, const std::string &Why) {
    if (!Ok && Correct) {
      Correct = false;
      FirstError = Why;
    }
  };
  const unsigned Slices = std::max(1u, unsigned(std::lround(A.Seconds)));
  const double SliceSeconds = A.Seconds / Slices;
  const double ServedSlice = A.Trace ? SliceSeconds * 0.4 : 0;
  const double EpisodeSlice = SliceSeconds - ServedSlice;
  const size_t MinEpisodes = 3;
  uint64_t Id = 0;
  for (unsigned Slice = 0; Slice != Slices && Correct; ++Slice) {
    const uint64_t SliceStart = nowNs();
    const bool LastSlice = Slice + 1 == Slices;
    while (true) {
      bool Enough = Plain.size() >= MinEpisodes &&
                    (!A.Trace || Traced.size() >= MinEpisodes);
      if (double(nowNs() - SliceStart) / 1e9 >= EpisodeSlice &&
          (!LastSlice || Enough))
        break;
      ++Id;
      bool TraceThis = A.Trace && Id % 2 == 0;
      EpisodeInput In;
      In.W = &W;
      In.Plain = P.Plain.get();
      In.Dir = ".";
      In.Id = Id;
      In.WalkSeed = A.Seed * 7919 + Id;
      In.Spans = TraceThis ? Spans : nullptr;
      EpisodeResult R = runEpisode(In);
      Attempted += R.Attempted;
      Failed += R.Failed;
      Note(R.Correct, R.Error);
      if (!R.Correct)
        break;
      (TraceThis ? Traced : Plain).push_back(std::move(R));
    }
    if (Correct && A.Trace) {
      runServed(*P.Rig, *P.Prog, ServedSlice, Trace, S);
      Note(S.Correct, S.Error);
    }
  }
  if (Correct && !A.Trace) {
    runServed(*P.Rig, *P.Prog, SliceSeconds, Trace, S);
    Note(S.Correct, S.Error);
  }
  Attempted += S.Attempted;
  Failed += S.Failed;
  if (Correct)
    readServerStats(*P.Rig, S);
  // The checks below are the benchmark's own work, not the user's.
  const double RssMb = peakRssMb();
  const double ServerRssMb = P.Rig->serverPeakRssMb();
  Note(P.Rig->stop(), "ppd serve did not shut down cleanly");

  // 3. Byte-equality of served answers against in-process handleFrame.
  std::vector<double> HandleUs;
  if (Correct) {
    std::string Error;
    HandleUs = checkServed(S, P.Rig->Opens, W.Source, Files.Log, Spans,
                           Error);
    ++Attempted;
    if (!Error.empty())
      ++Failed;
    Note(Error.empty(), Error);
  }
  if (!Correct) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", FirstError.c_str());
    printResult(false, std::max<uint64_t>(Attempted, 1), Failed, {});
    return 1;
  }

  std::vector<double> StepUs, ColdUs, WarmUs;
  for (const auto *Set : {&Plain, &Traced})
    for (const EpisodeResult &E : *Set)
      for (size_t I = 0; I != E.StepUs.size(); ++I) {
        StepUs.push_back(E.StepUs[I]);
        (E.StepCold[I] ? ColdUs : WarmUs).push_back(E.StepUs[I]);
      }
  std::printf("workload %s seed %llu: %zu untraced + %zu traced episodes, "
              "%zu flowback steps (%zu cold), %zu served requests over %u "
              "query connections, %zu streamed runs, %zu handleFrame "
              "checks\n",
              A.Workload.c_str(), (unsigned long long)A.Seed, Plain.size(),
              Traced.size(), StepUs.size(), ColdUs.size(),
              S.RequestUs.size(), unsigned(P.Rig->Sessions.size()),
              S.StreamRunMs.size(), HandleUs.size());
  std::printf("note: the episode log is re-read from the OS page cache, "
              "not from disk\n");
  std::printf("set-up s over %zu rounds:", SetupS.size());
  for (double S : SetupS)
    std::printf(" %.4f", S);
  std::printf("\n");
  std::printf("flowback step us: p10 %.1f p25 %.1f p40 %.1f p50 %.1f p60 %.1f "
              "p75 %.1f p90 %.1f p99 %.1f\n",
              percentile(StepUs, 0.10), percentile(StepUs, 0.25),
              percentile(StepUs, 0.40), percentile(StepUs, 0.50),
              percentile(StepUs, 0.60), percentile(StepUs, 0.75),
              percentile(StepUs, 0.90), percentile(StepUs, 0.99));
  {
    std::vector<double> Ep;
    for (const EpisodeResult &E : Plain)
      Ep.push_back(E.EpisodeMs);
    std::printf("episode_ms over %zu untraced episodes: p10 %.3f, p25 %.3f, "
                "p50 %.3f, p90 %.3f\n",
                Ep.size(), percentile(Ep, 0.10), percentile(Ep, 0.25),
                median(Ep), percentile(Ep, 0.90));
  }

  std::vector<Metric> Metrics;
  if (!A.Trace) {
    const auto &E = Plain;
    Metrics = {
        {"setup_s", "s", median(SetupS)},
        {"compile_ms", "ms", lowerDecileOf(E, [](auto &R) { return R.CompileMs; })},
        {"logged_run_ms", "ms",
         lowerDecileOf(E, [](auto &R) { return R.LoggedRunMs; })},
        {"persist_ms", "ms", lowerDecileOf(E, [](auto &R) { return R.PersistMs; })},
        {"open_to_first_flowback_ms", "ms",
         lowerDecileOf(E, [](auto &R) { return R.OpenMs; })},
        {"flowback_p50_us", "us",
         lowerDecileOf(E, [](auto &R) { return median(R.StepUs); })},
        {"races_ms", "ms",
         lowerDecileOf(E, [](auto &R) { return R.RacesMs; })},
        {"episode_ms", "ms",
         lowerDecileOf(E, [](auto &R) { return R.EpisodeMs; })},
        {"peak_rss_mb", "MB", RssMb},
    };
  } else {
    const auto &E = Traced;
    auto Med = [&E](auto Field) { return medianOf(E, Field); };
    SpanSummary Sum = summarizeSpans(Trace);
    auto Self = [&Sum](const char *Layer) { return median(Sum.SelfMs[Layer]); };
    double ClientP50 = percentile(S.RequestUs, 0.50);
    double HandleP50 = percentile(HandleUs, 0.50);
    double LoggedMs = Med([](auto &R) { return R.LogOverheadRunMs; });
    double PlainMs = Med([](auto &R) { return R.PlainRunMs; });
    double Compile = Med([](auto &R) { return R.CompileAstMs; });
    double FrontEnd =
        Med([](auto &R) { return R.SemaMs + R.ModRefMs + R.CfgMs + R.PdgMs; });
    Metrics = {
        {"lang.parse_ms", "ms", Med([](auto &R) { return R.ParseMs; })},
        {"sema.run_ms", "ms", Med([](auto &R) { return R.SemaMs; })},
        {"dataflow.modref_ms", "ms", Med([](auto &R) { return R.ModRefMs; })},
        {"cfg.build_ms", "ms", Med([](auto &R) { return R.CfgMs; })},
        {"pdg.build_ms", "ms", Med([](auto &R) { return R.PdgMs; })},
        {"compiler.codegen_decode_ms", "ms", Compile - FrontEnd},
        {"compiler.instrs", "count",
         Med([](auto &R) { return R.CompilerInstrs; })},
        {"vm.plain_run_ms", "ms", PlainMs},
        {"vm.log_overhead_pct", "%", 100.0 * ratio(LoggedMs - PlainMs, PlainMs)},
        {"vm.minstr_s", "Minstr/s",
         Med([](auto &R) { return ratio(double(R.VmSteps) / 1e3, R.LoggedRunMs); })},
        {"vm.steps", "count", Med([](auto &R) { return R.VmSteps; })},
        {"vm.jit_compiles", "count", Med([](auto &R) { return R.JitCompiles; })},
        {"vm.jit_bailouts", "count", Med([](auto &R) { return R.JitBailouts; })},
        {"vm.jit_compile_ms", "ms",
         Med([](auto &R) { return double(R.JitCompileNs) / 1e6; })},
        {"log.records", "count", Med([](auto &R) { return R.Records; })},
        {"log.file_bytes", "bytes", Med([](auto &R) { return R.FileBytes; })},
        {"log.bytes_per_event", "bytes",
         Med([](auto &R) { return ratio(double(R.FileBytes), double(R.Records)); })},
        {"log.save_ms", "ms", Med([](auto &R) { return R.SaveMs; })},
        {"log.ppdb_write_ms", "ms", Med([](auto &R) { return R.PpdbWriteMs; })},
        {"log.store_open_ms", "ms", Med([](auto &R) { return R.StoreOpenMs; })},
        {"log.ppdb_read_ms", "ms", Med([](auto &R) { return R.PpdbReadMs; })},
        {"log.sections_faulted", "count",
         Med([](auto &R) { return R.SectionsFaulted; })},
        {"log.sections_total", "count",
         Med([](auto &R) { return R.SectionsTotal; })},
        {"log.pool_hit_ratio", "ratio",
         Med([](auto &R) { return ratio(double(R.PoolHits), double(R.PoolLookups)); })},
        {"log.pool_lookups", "count", Med([](auto &R) { return R.PoolLookups; })},
        {"log.pool_peak_bytes", "bytes",
         Med([](auto &R) { return R.PoolPeakBytes; })},
        {"core.replays", "count", Med([](auto &R) { return R.Replays; })},
        {"core.replay_instructions", "count",
         Med([](auto &R) { return R.ReplayInstructions; })},
        {"core.events_traced", "count",
         Med([](auto &R) { return R.EventsTraced; })},
        {"core.replay_cache_hit_ratio", "ratio",
         Med([](auto &R) { return ratio(double(R.CacheHits), double(R.CacheLookups)); })},
        {"core.replay_cache_lookups", "count",
         Med([](auto &R) { return R.CacheLookups; })},
        {"core.step_p99_us", "us", percentile(StepUs, 0.99)},
        {"core.step_cold_us", "us", median(ColdUs)},
        {"core.step_warm_us", "us", median(WarmUs)},
        {"core.cold_step_pct", "%",
         100.0 * ratio(double(ColdUs.size()), double(StepUs.size()))},
        {"core.cross_reads_resolved", "count",
         Med([](auto &R) { return R.CrossReads; })},
        {"core.replay_minstr_s.jit", "Minstr/s",
         Med([](auto &R) { return R.JitMinstrS; })},
        {"core.replay_minstr_s.decoded", "Minstr/s",
         Med([](auto &R) { return R.DecodedMinstrS; })},
        {"pardyn.graph_build_ms", "ms",
         Med([](auto &R) { return R.GraphBuildMs; })},
        {"pardyn.edges", "count", Med([](auto &R) { return R.ParEdges; })},
        {"pardyn.closure_ms", "ms",
         Med([](auto &R) { return double(R.ClosureNs) / 1e6; })},
        {"pardyn.sweep_ms", "ms",
         Med([](auto &R) { return R.RacesMs - double(R.ClosureNs) / 1e6; })},
        {"pardyn.pairs_examined", "count",
         Med([](auto &R) { return R.PairsExamined; })},
        {"pardyn.races", "count", Med([](auto &R) { return R.Races; })},
        {"server.p50_us", "us", sliceP50Us(S)},
        {"server.qps", "1/s", sliceQps(S)},
        {"server.p99_us", "us", percentile(S.RequestUs, 0.99)},
        {"server.handle_us", "us", HandleP50},
        {"server.transport_us", "us", ClientP50 - HandleP50},
        {"server.requests", "count", double(S.SrvRequests)},
        {"server.busy", "count", double(S.SrvBusy)},
        {"server.errors", "count", double(S.SrvErrors)},
        {"server.timeouts", "count", double(S.SrvTimeouts)},
        {"server.resp_bytes", "bytes",
         ratio(double(S.RespBytes), double(S.RequestUs.size()))},
        {"server.conns_accepted", "count", double(S.ConnsAccepted)},
        {"server.conns_peak", "count", double(S.ConnsPeak)},
        {"server.peak_rss_mb", "MB", ServerRssMb},
        {"stream.run_ms", "ms", percentile(S.StreamRunMs, 0.10)},
        {"stream.cuts", "count", double(S.Cuts)},
        {"stream.bytes_ingested", "bytes", double(S.IngestBytes)},
        {"stream.credit_stalls", "count", double(S.CreditStalls)},
        {"stream.stall_pct", "%",
         100.0 * ratio(double(S.StallMicros), S.StreamWallMicros)},
        {"stream.tail_queries", "count", double(S.TailQueries)},
        {"trace.uncovered_pct", "%", median(Sum.UncoveredPct)},
        {"trace.overhead_ms", "ms",
         Med([](auto &R) { return R.EpisodeMs; }) -
             medianOf(Plain, [](auto &R) { return R.EpisodeMs; })},
        {"trace.spans", "count", double(Trace.numSpans())},
    };
    for (const char *Layer : {"lang", "sema", "dataflow", "cfg", "pdg",
                              "compiler", "vm", "log", "core", "pardyn"})
      Metrics.push_back(
          {std::string("self.") + Layer + "_ms", "ms", Self(Layer)});
    if (!A.TraceOut.empty()) {
      if (Trace.writeChromeTrace(A.TraceOut, hostFingerprint(A, W)))
        std::printf("trace: %zu spans written to %s\n", Trace.numSpans(),
                    A.TraceOut.c_str());
      else
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     A.TraceOut.c_str());
    }
  }
  printReport(Metrics);
  printResult(true, Attempted, Failed, Metrics);
  return 0;
}
