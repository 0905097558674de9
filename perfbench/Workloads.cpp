//===- perfbench/Workloads.cpp - Seeded workload generators ---------------===//
//
// Part of PPD, a reproduction of Miller & Choi (PLDI 1988).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>

namespace perfbench {

namespace {

class SeedRng {
public:
  explicit SeedRng(uint64_t Seed) : State(Seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t next() { return splitMix64(State); }
  /// Uniform in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi) {
    return Lo + int64_t(next() % uint64_t(Hi - Lo + 1));
  }
  template <typename T> const T &pick(const std::vector<T> &From) {
    return From[next() % From.size()];
  }

private:
  uint64_t State;
};

// Two-digit primes as multipliers and six-digit primes as moduli: every
// seed's constants have the same magnitudes, so no intermediate value
// leaves int64 and no seed changes the instruction count.
const std::vector<int64_t> Multipliers = {11, 13, 17, 19, 23, 29, 31,
                                          37, 41, 43, 47, 53, 59, 61,
                                          67, 71, 73, 79, 83, 89, 97};
const std::vector<int64_t> Moduli = {999983, 999979, 999961, 999959,
                                     999953};

std::string str(int64_t V) { return std::to_string(V); }

//===----------------------------------------------------------------------===//
// replay_walk: compute-heavy unit() intervals in two processes.
//===----------------------------------------------------------------------===//

struct MixStep {
  int64_t Mul[4];
  int64_t Add[4];
};

MixStep makeMix(SeedRng &Rng) {
  MixStep S;
  for (int I = 0; I != 4; ++I) {
    S.Mul[I] = Rng.pick(Multipliers);
    S.Add[I] = Rng.range(1, 9);
  }
  return S;
}

std::string mixExpr(const MixStep &S, int64_t M) {
  std::string E = "s";
  for (int I = 0; I != 4; ++I)
    E = "(" + E + " * " + str(S.Mul[I]) + " + " + str(S.Add[I]) + ") % " +
        str(M);
  return E;
}

int64_t mixRef(const MixStep &S, int64_t M, int64_t V) {
  for (int I = 0; I != 4; ++I)
    V = (V * S.Mul[I] + S.Add[I]) % M;
  return V;
}

void makeReplayWalk(uint64_t Seed, bool Smoke, Workload &W) {
  SeedRng Rng(Seed);
  const unsigned Units = Smoke ? 40 : 1200;
  const unsigned Inner = 10;
  const int64_t M = Rng.pick(Moduli);
  const int64_t Start = Rng.range(1, 9);
  const int64_t Base = 100000 + Rng.range(0, 899) * 100;
  MixStep First = makeMix(Rng), Second = makeMix(Rng);

  W.Source = "sem done;\n"
             "func unit(int k) {\n"
             "  int i = 0;\n"
             "  int s = k + " + str(Start) + ";\n"
             "  for (i = 0; i < " + str(Inner) + "; i = i + 1) {\n"
             "    s = " + mixExpr(First, M) + ";\n"
             "    s = " + mixExpr(Second, M) + ";\n"
             "  }\n"
             "  return s;\n"
             "}\n"
             "func worker(int base) {\n"
             "  int j = 0;\n"
             "  int acc = 0;\n"
             "  for (j = 0; j < " + str(Units) + "; j = j + 1)\n"
             "    acc = (acc + unit(base + j)) % " + str(M) + ";\n"
             "  print(acc);\n"
             "  V(done);\n"
             "}\n"
             "func main() {\n"
             "  spawn worker(" + str(Base) + ");\n"
             "  int j = 0;\n"
             "  int acc = 0;\n"
             "  for (j = 0; j < " + str(Units) + "; j = j + 1)\n"
             "    acc = (acc + unit(j)) % " + str(M) + ";\n"
             "  P(done);\n"
             "  print(acc);\n"
             "}\n";

  auto Unit = [&](int64_t K) {
    int64_t S = K + Start;
    for (unsigned I = 0; I != Inner; ++I)
      S = mixRef(Second, M, mixRef(First, M, S));
    return S;
  };
  auto Acc = [&](int64_t From) {
    int64_t A = 0;
    for (unsigned J = 0; J != Units; ++J)
      A = (A + Unit(From + J)) % M;
    return A;
  };
  W.Output[0] = {Acc(0)};
  W.Output[1] = {Acc(Base)};
  W.Walk = {Smoke ? 20u : 150u, 15, 0};
}

//===----------------------------------------------------------------------===//
// sync_races: lock-step workers, a channel, planted races, and a planted
// failure in main.
//===----------------------------------------------------------------------===//

void makeSyncRaces(uint64_t Seed, bool Smoke, Workload &W) {
  const unsigned Workers = Smoke ? 3 : 16;
  const unsigned Rounds = Smoke ? 4 : 100;
  SeedRng Rng(Seed);
  const int64_t M = Rng.pick(Moduli);
  const int64_t A = Rng.pick(Multipliers);
  const int64_t C = Rng.range(1, 9);
  const int64_t K1 = Rng.range(100, 999);
  const int64_t K2 = Rng.range(1, 9);
  const unsigned NumRacy = 3;

  // Each racy variable is written, unprotected, by two distinct workers
  // after their last lock section: nothing orders those two writes.
  std::vector<std::pair<unsigned, unsigned>> Writers;
  for (unsigned K = 0; K != NumRacy; ++K) {
    unsigned First = unsigned(Rng.range(0, Workers - 1));
    unsigned Second = unsigned(Rng.range(0, Workers - 2));
    if (Second >= First)
      ++Second;
    Writers.push_back({First, Second});
  }

  int64_t Sum = 0, Total = 0;
  for (unsigned Wk = 0; Wk != Workers; ++Wk) {
    int64_t X = int64_t(Wk) * K1 + K2;
    for (unsigned R = 0; R != Rounds; ++R) {
      X = (X * A + R + C) % M;
      Total += X % 97;
      Sum += X % 13;
    }
  }

  std::string S = "shared int total;\nshared int tally;\n";
  for (unsigned K = 0; K != NumRacy; ++K)
    S += "shared int racy" + str(K) + ";\n";
  // Each round is its own logged interval (step() calls a helper, so it
  // is not a leaf and keeps its own e-block): the shared reads at its
  // start resolve across processes when the session walks back.
  S += "sem lock = 1;\nsem done;\nchan ch[4];\n"
       "func mix(int x, int r) {\n"
       "  return (x * " + str(A) + " + r + " + str(C) + ") % " + str(M) + ";\n"
       "}\n"
       // main collects the channel in per-worker batches, each its own
       // interval, so the failing interval stays small.
       "func collect(int n) {\n"
       "  int i = 0;\n"
       "  int s = 0;\n"
       "  for (i = 0; i < n; i = i + 1) s = s + recv(ch);\n"
       "  return mix(s, 0) * 0 + s;\n"
       "}\n"
       "func step(int x, int r) {\n"
       "  int y = mix(x, r);\n"
       "  P(lock);\n"
       "  total = total + y % 97;\n"
       "  tally = tally + 1;\n"
       "  V(lock);\n"
       "  send(ch, y % 13);\n"
       "  return y;\n"
       "}\n"
       "func worker(int w) {\n"
       "  int r = 0;\n"
       "  int x = w * " + str(K1) + " + " + str(K2) + ";\n"
       "  for (r = 0; r < " + str(Rounds) + "; r = r + 1) x = step(x, r);\n";
  for (unsigned K = 0; K != NumRacy; ++K) {
    std::string V = "racy" + str(K);
    S += "  if (w == " + str(Writers[K].first) + ") " + V + " = " + V +
         " + w;\n";
    S += "  if (w == " + str(Writers[K].second) + ") " + V + " = " + V +
         " + w;\n";
  }
  S += "  V(done);\n}\nfunc main() {\n";
  for (unsigned Wk = 0; Wk != Workers; ++Wk)
    S += "  spawn worker(" + str(Wk) + ");\n";
  S += "  int i = 0;\n"
       "  int sum = 0;\n"
       "  int t = 0;\n"
       "  int c = 0;\n"
       "  for (i = 0; i < " + str(Workers) + "; i = i + 1)\n"
       "    sum = sum + collect(" + str(Rounds) + ");\n"
       "  for (i = 0; i < " + str(Workers) + "; i = i + 1) P(done);\n"
       "  P(lock);\n"
       "  t = total;\n"
       "  c = tally;\n"
       "  V(lock);\n"
       "  print(sum);\n"
       "  print(t);\n"
       "  print(c);\n"
       // The planted failure: t equals the reference total, so this
       // divides by zero and the session starts at it (§5.3).
       "  print(1000 / (t - " + str(Total) + "));\n"
       "}\n";
  W.Source = std::move(S);
  W.Output[0] = {Sum, Total, int64_t(Workers) * Rounds};
  W.ExpectFailure = true;
  for (unsigned K = 0; K != NumRacy; ++K)
    W.RacyVars.insert("racy" + str(K));
  W.LockedVars = {"total", "tally"};
  W.Walk = {Smoke ? 20u : 150u, 0, 50};
}

//===----------------------------------------------------------------------===//
// compile_large: ~1k functions in call chains over two processes.
//===----------------------------------------------------------------------===//

void makeCompileLarge(uint64_t Seed, bool Smoke, Workload &W) {
  SeedRng Rng(Seed);
  const unsigned Chains = Smoke ? 4 : 20;
  const unsigned Length = Smoke ? 5 : 50;
  const unsigned Globals = 16;
  const int64_t Mod = 10007;

  struct Fn {
    int64_t Mul, Add;
    bool Locks;
    unsigned Global;
  };
  std::vector<std::vector<Fn>> F(Chains, std::vector<Fn>(Length));
  for (unsigned C = 0; C != Chains; ++C)
    for (unsigned K = 0; K != Length; ++K) {
      unsigned Flat = C * Length + K;
      F[C][K] = {Rng.pick(Multipliers), Rng.range(1, 99), Flat % 5 == 0,
                 unsigned(Flat % Globals)};
    }
  auto Name = [](unsigned C, unsigned K) {
    std::string N = "c";
    N += str(C);
    N += '_';
    N += str(K);
    return N;
  };

  std::string S;
  for (unsigned G = 0; G != Globals; ++G)
    S += "shared int g" + str(G) + ";\n";
  S += "sem m = 1;\nsem done;\n";
  // Deepest functions first, so every callee precedes its caller.
  for (unsigned K = Length; K-- != 0;)
    for (unsigned C = 0; C != Chains; ++C) {
      const Fn &Def = F[C][K];
      S += "func " + Name(C, K) + "(int x) {\n"
           "  int i = 0;\n"
           "  int s = x + " + str(Def.Add) + ";\n"
           "  for (i = 0; i < 3; i = i + 1) s = (s * " + str(Def.Mul) +
           " + i) % " + str(Mod) + ";\n";
      if (Def.Locks) {
        std::string G = "g" + str(Def.Global);
        S += "  P(m);\n  " + G + " = (" + G + " + s) % " + str(Mod) +
             ";\n  V(m);\n";
      }
      if (K + 1 != Length)
        S += "  return (" + Name(C, K + 1) + "(s) + s) % " + str(Mod) +
             ";\n";
      else
        S += "  return s;\n";
      S += "}\n";
    }
  auto Calls = [&](unsigned From, unsigned To) {
    std::string Out;
    for (unsigned C = From; C != To; ++C)
      Out += "  acc = (acc + " + Name(C, 0) + "(" + str(C) + ")) % " +
             str(Mod) + ";\n";
    return Out;
  };
  S += "func worker() {\n  int acc = 0;\n" + Calls(Chains / 2, Chains) +
       "  print(acc);\n  V(done);\n}\n";
  S += "func main() {\n  spawn worker();\n  int acc = 0;\n  int gs = 0;\n" +
       Calls(0, Chains / 2) + "  P(done);\n  P(m);\n  gs = g0";
  for (unsigned G = 1; G != Globals; ++G)
    S += " + g" + str(G);
  // acc last: the session starts on its chain of chain-head calls.
  S += ";\n  V(m);\n  print(gs);\n  print(acc);\n}\n";
  W.Source = std::move(S);

  std::vector<int64_t> GlobalVals(Globals, 0);
  auto Run = [&](auto &Self, unsigned C, unsigned K, int64_t X) -> int64_t {
    const Fn &Def = F[C][K];
    int64_t Sv = X + Def.Add;
    for (int64_t I = 0; I != 3; ++I)
      Sv = (Sv * Def.Mul + I) % Mod;
    if (Def.Locks)
      GlobalVals[Def.Global] = (GlobalVals[Def.Global] + Sv) % Mod;
    if (K + 1 == Length)
      return Sv;
    return (Self(Self, C, K + 1, Sv) + Sv) % Mod;
  };
  auto Acc = [&](unsigned From, unsigned To) {
    int64_t A = 0;
    for (unsigned C = From; C != To; ++C)
      A = (A + Run(Run, C, 0, C)) % Mod;
    return A;
  };
  int64_t MainAcc = Acc(0, Chains / 2);
  int64_t WorkerAcc = Acc(Chains / 2, Chains);
  int64_t Gs = 0;
  for (int64_t G : GlobalVals)
    Gs += G;
  W.Output[0] = {Gs, MainAcc};
  W.Output[1] = {WorkerAcc};
  for (unsigned G = 0; G != Globals; ++G)
    W.LockedVars.insert("g" + str(G));
  W.Walk = {Smoke ? 20u : 120u, 1000, 0};
}

} // namespace

bool makeWorkload(const std::string &Name, uint64_t Seed, bool Smoke,
                  Workload &Out) {
  Out = Workload();
  if (Name == "replay_walk") {
    makeReplayWalk(Seed, Smoke, Out);
  } else if (Name == "sync_races") {
    makeSyncRaces(Seed, Smoke, Out);
  } else if (Name == "compile_large") {
    makeCompileLarge(Seed, Smoke, Out);
  } else {
    return false;
  }
  return true;
}

uint64_t hashText(const std::string &Text) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char Ch : Text) {
    H ^= Ch;
    H *= 0x100000001b3ull;
  }
  return H;
}

} // namespace perfbench
