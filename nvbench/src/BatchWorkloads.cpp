//===- BatchWorkloads.cpp - ft-wan and sim-allprefix ----------------------===//
//
// Part of the nv benchmark. The two in-process workloads: each query runs
// the pipeline a one-shot `nv ft` / `nv sim` runs, through the library's
// public entry points, in fresh contexts. A query's latency ends when its
// answer is available; checking the answer is never timed, freeing its
// context is timed into queries_per_s only.
//
// The traced variant runs the same pipeline stage by stage, timing each
// public call and reading the public counters (SimStats, the BddManager
// cache/GC/memory accessors, ValueArena::size()). Traced and untraced
// queries alternate, so the run also reports what tracing costs.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"
#include "Oracles.h"

#include "analysis/FaultTolerance.h"
#include "core/Parser.h"
#include "core/TypeChecker.h"
#include "eval/Compile.h"
#include "sim/Simulator.h"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <unistd.h>

using namespace nv;
using namespace nvbench;

namespace {

/// Nominal per-query cost on the reference machine (4-core Xeon VM), which
/// turns --seconds into a fixed query count.
constexpr double FtNominalMs = 3200;
constexpr double SimNominalMs = 1550;
/// FAT(k) of sim-allprefix: one query (interpreted + native) takes 1-2 s.
constexpr unsigned SimFatK = 24;

/// Per-query layer samples of a traced run: name -> one value per query.
using LayerSamples = std::map<std::string, std::vector<double>>;

/// Parses and type-checks \p Src; null with \p Error set on failure.
std::unique_ptr<Program> load(const std::string &Src, std::string &Error,
                              LayerSamples *L) {
  DiagnosticEngine Diags;
  Stopwatch W;
  auto P = parseProgram(Src, Diags);
  double ParseMs = W.ms();
  if (!P) {
    Error = "parse failed: " + Diags.str();
    return nullptr;
  }
  W.restart();
  bool Ok = typeCheck(*P, Diags);
  double TcMs = W.ms();
  if (!Ok) {
    Error = "type check failed: " + Diags.str();
    return nullptr;
  }
  if (L) {
    (*L)["core.parse_ms"].push_back(ParseMs);
    (*L)["core.typecheck_ms"].push_back(TcMs);
  }
  return std::make_unique<Program>(std::move(*P));
}

/// Records the manager's counters; bdd.cache_hits is only kept to derive
/// bdd.cache_hit_rate once the samples are folded (see addLayers).
void addBddCounters(LayerSamples &L, const BddManager &M) {
  L["bdd.cache_hits"].push_back(static_cast<double>(M.cacheHits()));
  L["bdd.cache_misses"].push_back(static_cast<double>(M.cacheMisses()));
  L["bdd.peak_nodes"].push_back(static_cast<double>(M.gcStats().PeakNodes));
  L["bdd.memory_mb"].push_back(M.memoryBytes() / (1024.0 * 1024.0));
}

void addSimCounters(LayerSamples &L, const SimStats &S) {
  L["sim.pops"].push_back(static_cast<double>(S.Pops));
  L["sim.trans_calls"].push_back(static_cast<double>(S.TransCalls));
  L["sim.merge_calls"].push_back(static_cast<double>(S.MergeCalls));
}

/// Appends one sample per layer for a sim-allprefix query from the samples
/// of its interpreted and native halves (one value each): their sum, or the
/// larger for the peak-style counters.
void addHalves(LayerSamples &L, const LayerSamples &Interp,
               const LayerSamples &Native) {
  LayerSamples Both = Interp;
  for (const auto &[Name, V] : Native)
    Both[Name].insert(Both[Name].end(), V.begin(), V.end());
  for (const auto &[Name, V] : Both) {
    bool Peak = Name == "bdd.peak_nodes" || Name == "bdd.memory_mb";
    L[Name].push_back(Peak ? *std::max_element(V.begin(), V.end())
                           : std::accumulate(V.begin(), V.end(), 0.0));
  }
}

/// The timed parts of one query: until its answer is available, and
/// including the teardown of its contexts.
struct QueryMs {
  double Answer = 0, Total = 0;
};

/// The end-to-end report of a batch run. Peak RSS is the process's
/// high-water mark after its first (cold) query, which is what a one-shot
/// `nv ft` / `nv sim` run peaks at. Later queries in the same process can
/// raise it by heap fragmentation that differs by seed (a 159 MB ft-wan
/// query then peaks at 161 or 183 MB), which no user of the CLI sees.
void addEndToEnd(RunReport &R, const std::vector<double> &SetupMs,
                 const std::vector<double> &AnswerMs, double TotalMs,
                 double ColdPeakMb) {
  R.add("setup_s", median(SetupMs) / 1000.0);
  R.add("query_ms_p50", median(AnswerMs));
  R.add("queries_per_s", AnswerMs.size() / (TotalMs / 1000.0));
  R.add("peak_rss_mb", ColdPeakMb);
}

/// The traced report: the median of each layer over the traced queries, and
/// the traced queries' latency against the untraced ones'.
void addLayers(RunReport &R, const LayerSamples &L,
               const std::vector<double> &TracedMs,
               const std::vector<double> &UntracedMs) {
  for (const auto &[Name, V] : L)
    R.add(Name, median(V));
  double Hits = median(L.count("bdd.cache_hits") ? L.at("bdd.cache_hits")
                                                 : std::vector<double>{});
  double Misses = median(L.count("bdd.cache_misses")
                             ? L.at("bdd.cache_misses")
                             : std::vector<double>{});
  R.add("bdd.cache_hit_rate", Hits + Misses ? Hits / (Hits + Misses) : 0);
  R.add("trace.overhead_pct",
        (median(TracedMs) / median(UntracedMs) - 1.0) * 100.0);
}

//===----------------------------------------------------------------------===//
// ft-wan
//===----------------------------------------------------------------------===//

FtOptions ftOptions() {
  FtOptions Opts; // engine defaults, as `nv ft` builds them
  Opts.LinkFailures = 2;
  Opts.Threads = 1;
  return Opts;
}

/// What one FT query leaves behind: the program and the analysis result
/// (which owns the context its violation routes live in).
struct FtQuery {
  std::unique_ptr<Program> P;
  FtRunResult R;
  std::string EngineError;
};

/// `nv ft --native --links 2` as the CLI runs it: parse, type check, then
/// runFaultTolerance (transform, compile, meta-simulate, check).
void ftPipeline(const std::string &Src, FtQuery &Q) {
  Q.P = load(Src, Q.EngineError, nullptr);
  if (!Q.P)
    return;
  DiagnosticEngine Diags;
  Q.R = runFaultTolerance(*Q.P, ftOptions(), /*UseCompiledEvaluator=*/true,
                          Diags);
}

/// The same pipeline stage by stage, mirroring runFaultTolerance: one
/// governor scope over the analysis, a fresh context after the transform,
/// the compiled evaluator for the meta-program and the interpreter for the
/// base program's assert.
void ftPipelineTraced(const std::string &Src, FtQuery &Q, LayerSamples &L) {
  Q.P = load(Src, Q.EngineError, &L);
  if (!Q.P)
    return;
  FtOptions Opts = ftOptions();
  FtRunResult &R = Q.R;
  Governor::Scope Guard(Opts.Budget);
  try {
    DiagnosticEngine Diags;
    Stopwatch W;
    auto Meta = makeFaultTolerantProgram(*Q.P, Opts, Diags);
    L["transform.ft_ms"].push_back(W.ms());
    if (!Meta) {
      R.Outcome = {RunStatus::EvalError, "fault-tolerance transform failed",
                   ""};
      return;
    }
    auto Ctx = std::make_shared<NvContext>(Q.P->numNodes());
    R.Check.RetainedContexts.push_back(Ctx);
    W.restart();
    CompiledProgramEvaluator Eval(*Ctx, *Meta);
    L["eval.compile_ms"].push_back(W.ms());
    SimOptions SO;
    SO.Budget = RunBudget{}; // governed by the scope above
    W.restart();
    SimResult Sim = simulate(*Meta, Eval, SO);
    L["sim.simulate_ms"].push_back(W.ms());
    R.Converged = Sim.Converged;
    R.Outcome = Sim.Outcome;
    addSimCounters(L, Sim.Stats);
    addBddCounters(L, Ctx->Mgr);
    if (!Sim.Converged)
      return;
    W.restart();
    InterpProgramEvaluator BaseEval(*Ctx, *Q.P);
    FtCheckResult Check =
        checkFaultTolerance(*Ctx, *Q.P, BaseEval, Sim, Opts, nullptr);
    L["analysis.check_ms"].push_back(W.ms());
    L["eval.values_interned"].push_back(
        static_cast<double>(Ctx->Arena.size()));
    Check.RetainedContexts = std::move(R.Check.RetainedContexts);
    R.Check = std::move(Check);
  } catch (const EngineError &E) {
    R.Outcome = E.outcome();
  }
}

std::string ftEngineError(const FtQuery &Q) {
  if (!Q.EngineError.empty())
    return Q.EngineError;
  if (!Q.R.Outcome.ok())
    return "analysis stopped: " + Q.R.Outcome.str();
  if (!Q.R.Converged)
    return "meta-simulation did not converge";
  if (!Q.R.Check.Outcome.ok() || Q.R.Check.ScenariosSkipped)
    return "assert check incomplete: " + Q.R.Check.Outcome.str();
  return "";
}

/// The answer of one ft-wan query against the connectivity oracle: the
/// violations must be exactly the (failure set, node) pairs the failure
/// set cuts off from the destination, and every failure set of at most
/// two links must have been checked.
std::string ftCheckError(const FtCheckResult &C,
                         const std::set<std::pair<FailureSet, uint32_t>> &Cut,
                         size_t NumSets) {
  if (C.ScenariosChecked != NumSets)
    return std::to_string(C.ScenariosChecked) + " scenarios checked, " +
           std::to_string(NumSets) + " failure sets exist";
  std::set<std::pair<FailureSet, uint32_t>> Got;
  for (const FtViolation &V : C.Violations)
    if (!Got.insert({normalizeFailures(V.Scenario.Links), V.Node}).second)
      return "violation reported twice: " + V.Scenario.str() + " node " +
             std::to_string(V.Node);
  for (const auto &E : Cut)
    if (!Got.count(E))
      return "missed violation: node " + std::to_string(E.second) +
             " is cut off by " + std::to_string(E.first.size()) +
             " failed link(s)";
  for (const auto &G : Got)
    if (!Cut.count(G))
      return "spurious violation at node " + std::to_string(G.second);
  return "";
}

/// The scenario list must be every set of 1-2 links, each exactly once.
std::string ftCoverageError(const Program &P, const Graph &G) {
  std::vector<FtScenario> Scen = enumerateScenarios(P, ftOptions());
  std::set<FailureSet> Got;
  for (const FtScenario &S : Scen)
    if (!Got.insert(normalizeFailures(S.Links)).second)
      return "scenario listed twice: " + S.str();
  std::vector<FailureSet> All = allFailureSets(G, 2);
  if (Got != std::set<FailureSet>(All.begin(), All.end()))
    return "scenarios do not cover every set of at most 2 links";
  return "";
}

} // namespace

RunReport nvbench::runFtWan(const Options &O) {
  RunReport Rep;
  const Graph G = makeWan(O.Seed).G;
  const auto Cut = cutOffUnderFailures(G, 0, 2);
  const size_t NumSets = allFailureSets(G, 2).size();
  std::printf("ft-wan: %u nodes, %zu links, %zu failure sets, %zu cut-off "
              "pairs expected\n",
              G.NumNodes, G.Links.size(), NumSets, Cut.size());

  LayerSamples L;
  std::vector<double> SetupMs, AnswerMs, TracedMs, UntracedMs;
  double ColdPeakMb = 0;
  auto Query = [&](const std::string &Src, bool Traced, const char *What) {
    auto Q = std::make_unique<FtQuery>();
    Stopwatch W;
    if (Traced)
      ftPipelineTraced(Src, *Q, L);
    else
      ftPipeline(Src, *Q);
    QueryMs T;
    T.Answer = W.ms();
    std::string Eng = ftEngineError(*Q);
    Rep.op(What, Eng,
           Eng.empty() ? ftCheckError(Q->R.Check, Cut, NumSets) : "");
    W.restart();
    Q.reset();
    T.Total = T.Answer + W.ms();
    return T;
  };

  // Set-up: generate the input, then the first (cold) query.
  unsigned Setups = O.Trace ? 1 : SetupRepeats;
  for (unsigned S = 0; S < Setups; ++S) {
    Stopwatch W;
    WanInput In = makeWan(O.Seed);
    double GenMs = W.ms();
    SetupMs.push_back(GenMs +
                      Query(In.Source, false, "ft-wan cold query").Total);
    if (S == 0)
      ColdPeakMb = procStatusMb(getpid(), "VmHWM");
  }
  {
    std::string Error;
    auto P = load(makeWan(O.Seed).Source, Error, nullptr);
    Rep.op("ft-wan scenario coverage", Error,
           P ? ftCoverageError(*P, G) : "");
  }

  const std::string Src = makeWan(O.Seed).Source;
  size_t N = queryCount(O.Seconds, FtNominalMs);
  double TotalMs = 0;
  for (size_t I = 0; I < N; ++I) {
    bool Traced = O.Trace && I % 2 == 0;
    QueryMs T = Query(Src, Traced, "ft-wan query");
    double Ms = T.Answer;
    TotalMs += T.Total;
    AnswerMs.push_back(Ms);
    (Traced ? TracedMs : UntracedMs).push_back(Ms);
    std::printf("  query %zu: %.1f ms%s\n", I, Ms, Traced ? " (traced)" : "");
  }
  if (O.Trace)
    addLayers(Rep, L, TracedMs, UntracedMs);
  else
    addEndToEnd(Rep, SetupMs, AnswerMs, TotalMs, ColdPeakMb);
  return Rep;
}

//===----------------------------------------------------------------------===//
// sim-allprefix
//===----------------------------------------------------------------------===//

namespace {

/// One half of a sim-allprefix query and what it leaves for the checks.
struct SimHalf {
  std::vector<size_t> LabelHashes; ///< Per node, of the printed label.
  std::string EngineError, CheckError;
  double AnswerMs = 0, TeardownMs = 0;
};

/// `nv sim` (interpreted or --native) on the FAT all-prefixes program.
/// Every node's label is printed and hashed after the answer (not timed),
/// and checked against BFS when \p Checker is given; labels are not kept,
/// so they add nothing to the run's peak memory.
SimHalf simPipeline(const std::string &Src, bool Native, LayerSamples *L,
                    const PrefixLabelChecker *Checker) {
  SimHalf H;
  Stopwatch W;
  auto P = load(Src, H.EngineError, L);
  if (!P)
    return H;
  auto Ctx = std::make_unique<NvContext>(P->numNodes());
  std::unique_ptr<ProtocolEvaluator> Eval;
  Stopwatch C;
  if (Native)
    Eval = std::make_unique<CompiledProgramEvaluator>(*Ctx, *P);
  else
    Eval = std::make_unique<InterpProgramEvaluator>(*Ctx, *P);
  double CompileMs = C.ms();
  C.restart();
  SimResult R = simulate(*P, *Eval);
  double SimMs = C.ms();
  H.AnswerMs = W.ms();
  if (L) {
    (*L)["eval.compile_ms"].push_back(CompileMs);
    (*L)[Native ? "sim.simulate_native_ms" : "sim.simulate_interp_ms"]
        .push_back(SimMs);
    addSimCounters(*L, R.Stats);
    addBddCounters(*L, Ctx->Mgr);
    (*L)["eval.values_interned"].push_back(
        static_cast<double>(Ctx->Arena.size()));
  }
  if (!R.Converged) {
    H.EngineError = "simulation did not converge: " + R.Outcome.str();
  } else {
    for (uint32_t U = 0; U < P->numNodes(); ++U) {
      std::string Label = Ctx->printValue(R.Labels[U]);
      H.LabelHashes.push_back(std::hash<std::string>()(Label));
      if (Checker && H.CheckError.empty())
        H.CheckError = Checker->check(U, Label);
    }
  }
  W.restart();
  R = SimResult();
  Eval.reset();
  Ctx.reset();
  P.reset();
  H.TeardownMs = W.ms();
  return H;
}

} // namespace

RunReport nvbench::runSimAllPrefix(const Options &O) {
  RunReport Rep;
  std::printf("sim-allprefix: FAT(%u), %u nodes, %u prefixes\n", SimFatK,
              5 * SimFatK * SimFatK / 4, SimFatK * SimFatK / 2);

  LayerSamples L;
  std::vector<double> SetupMs, AnswerMs, TracedMs, UntracedMs;
  double ColdPeakMb = 0;
  // The query checks the interpreted labels against BFS and the native
  // ones against the interpreted.
  auto Query = [&](const FatInput &F, bool Traced, const char *What) {
    PrefixLabelChecker Checker(F);
    LayerSamples LI, LN;
    SimHalf I = simPipeline(F.Source, false, Traced ? &LI : nullptr, &Checker);
    SimHalf N;
    if (I.EngineError.empty())
      N = simPipeline(F.Source, true, Traced ? &LN : nullptr, nullptr);
    if (Traced)
      addHalves(L, LI, LN);
    std::string Eng = I.EngineError.empty() ? N.EngineError : I.EngineError;
    std::string Chk;
    if (Eng.empty())
      Chk = !I.CheckError.empty()               ? I.CheckError
            : I.LabelHashes != N.LabelHashes ? "interpreted and native "
                                               "labels differ"
                                             : "";
    Rep.op(What, Eng, Chk);
    return QueryMs{I.AnswerMs + N.AnswerMs,
                   I.AnswerMs + I.TeardownMs + N.AnswerMs + N.TeardownMs};
  };

  // Set-up: generate the input, then the first (cold) query.
  unsigned Setups = O.Trace ? 1 : SetupRepeats;
  for (unsigned S = 0; S < Setups; ++S) {
    Stopwatch W;
    FatInput F = makeFatAllPrefixes(SimFatK, O.Seed);
    double GenMs = W.ms();
    SetupMs.push_back(GenMs +
                      Query(F, false, "sim-allprefix cold query").Total);
    if (S == 0)
      ColdPeakMb = procStatusMb(getpid(), "VmHWM");
  }

  const FatInput F = makeFatAllPrefixes(SimFatK, O.Seed);
  size_t N = queryCount(O.Seconds, SimNominalMs);
  double TotalMs = 0;
  for (size_t I = 0; I < N; ++I) {
    bool Traced = O.Trace && I % 2 == 0;
    QueryMs T = Query(F, Traced, "sim-allprefix query");
    double Ms = T.Answer;
    TotalMs += T.Total;
    AnswerMs.push_back(Ms);
    (Traced ? TracedMs : UntracedMs).push_back(Ms);
    std::printf("  query %zu: %.1f ms%s\n", I, Ms, Traced ? " (traced)" : "");
  }
  if (O.Trace)
    addLayers(Rep, L, TracedMs, UntracedMs);
  else
    addEndToEnd(Rep, SetupMs, AnswerMs, TotalMs, ColdPeakMb);
  return Rep;
}
