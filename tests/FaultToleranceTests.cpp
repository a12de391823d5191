//===- FaultToleranceTests.cpp - Fig. 5 meta-protocol tests -----------------===//
//
// The MTBDD fault-tolerance analysis is checked against the naive
// per-scenario simulation baseline: for every scenario, indexing the
// meta-program's converged dict must give exactly the label the scenario's
// own simulation computes.
//
//===----------------------------------------------------------------------===//

#include "analysis/FaultTolerance.h"
#include "baselines/NaiveFailures.h"
#include "core/Parser.h"
#include "core/Printer.h"
#include "core/TypeChecker.h"
#include "eval/Compile.h"
#include "support/Journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <tuple>

using namespace nv;

namespace {

Program parseAndCheck(const std::string &Src) {
  DiagnosticEngine Diags;
  auto P = parseProgram(Src, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  EXPECT_TRUE(typeCheck(*P, Diags)) << Diags.str();
  return *P;
}

/// Shortest-path routing on a configurable topology, with an
/// all-nodes-reachable assertion unless \p Assert overrides its body
/// (an expression over `x : option[int]`).
std::string spProgram(uint32_t Nodes,
                      const std::vector<std::pair<int, int>> &Links,
                      const std::string &Assert =
                          "match x with | None -> false | Some d -> true") {
  std::string Edges;
  for (size_t I = 0; I < Links.size(); ++I) {
    if (I)
      Edges += ";";
    Edges += std::to_string(Links[I].first) + "n=" +
             std::to_string(Links[I].second) + "n";
  }
  return "let nodes = " + std::to_string(Nodes) +
         "\n"
         "let edges = {" +
         Edges +
         "}\n"
         "let init (u : node) = match u with | 0n -> Some 0 | _ -> None\n"
         "let trans (e : edge) (x : option[int]) =\n"
         "  match x with | None -> None | Some d -> Some (d + 1)\n"
         "let merge (u : node) (x : option[int]) (y : option[int]) =\n"
         "  match x, y with\n"
         "  | _, None -> x\n"
         "  | None, _ -> y\n"
         "  | Some a, Some b -> if a <= b then x else y\n"
         "let assert (u : node) (x : option[int]) =\n  " +
         Assert + "\n";
}

/// Diamond: 0-1, 0-2, 1-3, 2-3 — survives any single link failure.
const std::vector<std::pair<int, int>> Diamond = {{0, 1}, {0, 2}, {1, 3},
                                                  {2, 3}};
/// Line: 0-1-2-3 — any link failure cuts reachability.
const std::vector<std::pair<int, int>> Line = {{0, 1}, {1, 2}, {2, 3}};
/// Ring 0-1-2-3-4-5-0 with chords 0-3 and 1-4.
const std::vector<std::pair<int, int>> ChordedRing = {
    {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}, {1, 4}};

/// Oracle check: the meta-program's per-scenario routes equal the naive
/// per-scenario simulation's routes, for every node and scenario.
void expectMatchesNaive(const std::string &Src, const FtOptions &Opts) {
  Program P = parseAndCheck(Src);
  DiagnosticEngine Diags;
  auto Meta = makeFaultTolerantProgram(P, Opts, Diags);
  ASSERT_TRUE(Meta.has_value()) << Diags.str();

  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator MetaEval(Ctx, *Meta);
  SimResult MetaR = simulate(*Meta, MetaEval);
  ASSERT_TRUE(MetaR.Converged);

  InterpProgramEvaluator BaseEval(Ctx, P);
  for (const FtScenario &S : enumerateScenarios(P, Opts)) {
    SimResult NaiveR = simulateScenario(P, BaseEval, S, Ctx.noneV());
    ASSERT_TRUE(NaiveR.Converged) << S.str();
    const Value *Key = scenarioKey(Ctx, S, Opts);
    for (uint32_t U = 0; U < P.numNodes(); ++U) {
      const Value *FromMeta = Ctx.mapGet(MetaR.Labels[U], Key);
      EXPECT_EQ(FromMeta, NaiveR.Labels[U])
          << "scenario " << S.str() << " node " << U << ": meta="
          << FromMeta->str() << " naive=" << NaiveR.Labels[U]->str();
    }
  }
}

TEST(FaultTolerance, SingleLinkMatchesNaiveOnDiamond) {
  expectMatchesNaive(spProgram(4, Diamond), FtOptions{});
}

TEST(FaultTolerance, SingleLinkMatchesNaiveOnLine) {
  expectMatchesNaive(spProgram(4, Line), FtOptions{});
}

TEST(FaultTolerance, TwoLinksMatchesNaive) {
  FtOptions Opts;
  Opts.LinkFailures = 2;
  expectMatchesNaive(spProgram(4, Diamond), Opts);
}

TEST(FaultTolerance, NodeAndLinkMatchesNaive) {
  FtOptions Opts;
  Opts.NodeFailure = true;
  Opts.LinkFailures = 1;
  expectMatchesNaive(spProgram(4, Diamond), Opts);
}

TEST(FaultTolerance, NodeOnlyMatchesNaive) {
  FtOptions Opts;
  Opts.NodeFailure = true;
  Opts.LinkFailures = 0;
  expectMatchesNaive(spProgram(5, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}}),
                     Opts);
}

TEST(FaultTolerance, BgpPolicyMatchesNaive) {
  // The Fig. 2 BGP model (lp/med tie-breaking) under single link failure.
  const char *Src = R"nv(
include bgp
let nodes = 5
let edges = {0n=1n;0n=2n;1n=4n;2n=4n;1n=3n;2n=3n}
let trans e x = transBgp e x
let merge u x y = mergeBgp u x y
let init (u : node) =
  match u with
  | 0n -> Some {length = 0; lp = 100; med = 80; comms = {}; origin = 0n}
  | _ -> None
let assert (u : node) (x : attribute) =
  match x with
  | None -> false
  | Some b -> b.origin = 0n
)nv";
  expectMatchesNaive(Src, FtOptions{});
}

/// Differential check of FtChecker against the direct per-scenario
/// lookup: for every scenario and node, Mgr.get on the encoded scenario
/// key, then the assert. Violations must match in order and by Route
/// pointer, and the checker's packed keys must equal encodeValue's bits.
/// Returns the most distinct failing routes any one node showed.
size_t expectCheckerMatchesLookup(const std::string &Src,
                                  const FtOptions &Opts) {
  Program P = parseAndCheck(Src);
  DiagnosticEngine Diags;
  auto Meta = makeFaultTolerantProgram(P, Opts, Diags);
  EXPECT_TRUE(Meta.has_value()) << Diags.str();
  if (!Meta)
    return 0;
  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator MetaEval(Ctx, *Meta);
  SimResult MetaR = simulate(*Meta, MetaEval);
  EXPECT_TRUE(MetaR.Converged);
  if (!MetaR.Converged)
    return 0;
  InterpProgramEvaluator BaseEval(Ctx, P);

  FtOptions ChunkOpts = Opts;
  ChunkOpts.CheckChunkSize = 7; // several chunks, one of them partial
  FtChecker Checker(Ctx, P, BaseEval, MetaR, ChunkOpts);
  std::vector<FtViolation> Got = Checker.check().Violations;

  const std::vector<FtScenario> Scenarios = enumerateScenarios(P, Opts);
  EXPECT_EQ(Checker.chunks().Scenarios, Scenarios.size());
  std::vector<FtViolation> Want;
  std::vector<std::set<const Value *>> FailingRoutes(P.numNodes());
  for (size_t I = 0; I < Scenarios.size(); ++I) {
    const FtScenario &S = Scenarios[I];
    std::vector<bool> Bits;
    Ctx.encodeValue(scenarioKey(Ctx, S, Opts), MetaR.Labels[0]->KeyType,
                    Bits);
    EXPECT_EQ(Checker.keyBits(I), Bits) << S.str();
    for (uint32_t U = 0; U < P.numNodes(); ++U) {
      if (S.Node && *S.Node == U)
        continue;
      const auto *Route = static_cast<const Value *>(
          Ctx.Mgr.get(MetaR.Labels[U]->MapRoot, Bits));
      if (!BaseEval.assertAt(U, Route)) {
        Want.push_back({S, U, Route, {}});
        FailingRoutes[U].insert(Route);
      }
    }
  }

  EXPECT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < std::min(Got.size(), Want.size()); ++I) {
    EXPECT_EQ(Got[I].Scenario.str(), Want[I].Scenario.str()) << I;
    EXPECT_EQ(Got[I].Node, Want[I].Node) << I;
    EXPECT_EQ(Got[I].Route, Want[I].Route) << I;
  }
  size_t MaxDistinct = 0;
  for (const auto &Routes : FailingRoutes)
    MaxDistinct = std::max(MaxDistinct, Routes.size());
  return MaxDistinct;
}

TEST(FaultTolerance, CheckerMatchesLookupOnLinkFailures) {
  for (unsigned K = 1; K <= 3; ++K) {
    SCOPED_TRACE("links " + std::to_string(K));
    FtOptions Opts;
    Opts.LinkFailures = K;
    expectCheckerMatchesLookup(spProgram(4, Diamond), Opts);
    expectCheckerMatchesLookup(spProgram(4, Line), Opts);
    expectCheckerMatchesLookup(spProgram(6, ChordedRing), Opts);
  }
}

TEST(FaultTolerance, CheckerMatchesLookupOnNodeAndLink) {
  for (unsigned K = 0; K <= 1; ++K) {
    SCOPED_TRACE("node + links " + std::to_string(K));
    FtOptions Opts;
    Opts.NodeFailure = true;
    Opts.LinkFailures = K;
    expectCheckerMatchesLookup(spProgram(4, Diamond), Opts);
    expectCheckerMatchesLookup(spProgram(4, Line), Opts);
    expectCheckerMatchesLookup(spProgram(6, ChordedRing), Opts);
  }
}

TEST(FaultTolerance, CheckerMatchesLookupWithSeveralFailingRoutes) {
  // "At most one hop" fails both on a longer path and, once two failures
  // can cut a node off, on no route at all: some node then fails with at
  // least two distinct routes.
  std::string Src = spProgram(
      6, ChordedRing, "match x with | None -> false | Some d -> d <= 1");
  for (unsigned K = 1; K <= 3; ++K) {
    SCOPED_TRACE("links " + std::to_string(K));
    FtOptions Opts;
    Opts.LinkFailures = K;
    size_t Distinct = expectCheckerMatchesLookup(Src, Opts);
    if (K >= 2) {
      EXPECT_GE(Distinct, 2u);
    }
  }
  FtOptions Opts;
  Opts.NodeFailure = true;
  Opts.LinkFailures = 1;
  EXPECT_GE(expectCheckerMatchesLookup(Src, Opts), 2u);
}

TEST(FaultTolerance, CheckerSurvivesCompactingCollection) {
  // The checker holds no MTBDD Refs: a collection that compacts the node
  // store after construction must not change a single record.
  Program P = parseAndCheck(spProgram(6, ChordedRing));
  FtOptions Opts;
  Opts.LinkFailures = 2;
  Opts.CheckChunkSize = 5;
  DiagnosticEngine Diags;
  auto Meta = makeFaultTolerantProgram(P, Opts, Diags);
  ASSERT_TRUE(Meta.has_value()) << Diags.str();
  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator MetaEval(Ctx, *Meta);
  SimResult MetaR = simulate(*Meta, MetaEval);
  ASSERT_TRUE(MetaR.Converged);
  InterpProgramEvaluator BaseEval(Ctx, P);

  FtChecker Reference(Ctx, P, BaseEval, MetaR, Opts);
  std::vector<std::string> Want;
  for (size_t C = 0; C < Reference.chunks().count(); ++C)
    Want.push_back(Reference.checkChunk(C).render());

  FtChecker Checker(Ctx, P, BaseEval, MetaR, Opts);
  // Keep the labels alive so the collection moves them rather than
  // freeing them: stale Refs would then read other nodes.
  BddManager::RootSet Labels(Ctx.Mgr);
  for (const Value *L : MetaR.Labels)
    Labels.add(L->MapRoot);
  std::vector<BddManager::Ref> Before = Labels.refs();
  ASSERT_GT(Ctx.Mgr.collectGarbage(), 0u);
  EXPECT_NE(Labels.refs(), Before) << "the collection moved no label";

  ASSERT_EQ(Checker.chunks().count(), Want.size());
  for (size_t C = 0; C < Checker.chunks().count(); ++C)
    EXPECT_EQ(Checker.checkChunk(C).render(), Want[C]) << "chunk " << C;
  EXPECT_TRUE(std::any_of(Want.begin(), Want.end(), [](const std::string &R) {
    return R.find("\nv=") != std::string::npos;
  })) << "no chunk recorded a violation";
}

using ViolationKey = std::tuple<std::string, uint32_t, std::string>;

std::vector<ViolationKey> violationKeys(const FtCheckResult &R) {
  std::vector<ViolationKey> Keys;
  for (const FtViolation &V : R.Violations)
    Keys.emplace_back(V.Scenario.str(), V.Node, V.routeStr());
  return Keys;
}

/// Rewrites \p Path to hold only the first \p Entries entries of \p Full.
void writeJournalPrefix(const std::string &Path, const JournalRead &Full,
                        size_t Entries) {
  std::remove(Path.c_str());
  std::string Err;
  auto W = createJournal(Path, Full.Header, Err);
  ASSERT_TRUE(W) << Err;
  for (size_t I = 0; I < Entries; ++I)
    ASSERT_TRUE(W->append(Full.Entries[I]));
}

TEST(FaultTolerance, JournaledCheckMatchesUnjournaled) {
  // The one chunk loop with a journal attached — fresh, fully replayed,
  // and resumed from a journal cut after its first chunks — must report
  // exactly the violations and counts of the run without one, at any
  // chunk size and thread count.
  Program P = parseAndCheck(spProgram(
      6, ChordedRing, "match x with | None -> false | Some d -> d <= 1"));
  FtOptions Base;
  Base.LinkFailures = 2;
  DiagnosticEngine Diags;
  FtRunResult Ref = runFaultTolerance(P, Base, /*Compiled=*/false, Diags);
  ASSERT_TRUE(Ref.Converged && Ref.Outcome.ok()) << Diags.str();
  ASSERT_TRUE(Ref.Check.Outcome.ok()) << Ref.Check.Outcome.str();
  ASSERT_FALSE(Ref.Check.Violations.empty());
  const std::vector<ViolationKey> Want = violationKeys(Ref.Check);
  const uint64_t Scenarios = Ref.Check.ScenariosChecked;

  RunBinding Binding;
  Binding.set("tool", "fault-tolerance-tests");
  const std::string Path = ::testing::TempDir() + "nv_ft_check_journal";
  const std::string Cut = Path + "_cut";

  for (unsigned ChunkSize : {1u, 7u, FtOptions{}.CheckChunkSize}) {
    for (unsigned Threads : {1u, 4u}) {
      SCOPED_TRACE("chunk " + std::to_string(ChunkSize) + ", threads " +
                   std::to_string(Threads));
      FtOptions Opts = Base;
      Opts.CheckChunkSize = ChunkSize;
      Opts.Threads = Threads;
      FtChunks Chunks(Scenarios, ChunkSize);

      auto Expect = [&](const std::string &Journal, uint64_t Replayed) {
        std::unique_ptr<ResumeLog> Log;
        if (!Journal.empty()) {
          auto Open = ResumeLog::open(Journal, Binding);
          ASSERT_TRUE(Open.Log) << Open.Error;
          Log = std::move(Open.Log);
        }
        FtOptions RunOpts = Opts;
        RunOpts.Resume = Log.get();
        FtRunResult R = runFaultTolerance(P, RunOpts, false, Diags);
        ASSERT_TRUE(R.Outcome.ok()) << R.Outcome.str();
        EXPECT_TRUE(R.Check.Outcome.ok()) << R.Check.Outcome.str();
        EXPECT_EQ(violationKeys(R.Check), Want);
        EXPECT_EQ(R.Check.ScenariosChecked, Scenarios);
        EXPECT_EQ(R.Check.ScenariosSkipped, Ref.Check.ScenariosSkipped);
        EXPECT_EQ(R.Check.ScenariosReplayed, Replayed);
        if (Log) {
          EXPECT_EQ(Log->entryCount(), Chunks.count());
        }
      };

      {
        SCOPED_TRACE("no journal");
        Expect("", 0);
      }
      std::remove(Path.c_str());
      {
        SCOPED_TRACE("fresh journal");
        Expect(Path, 0);
      }
      {
        SCOPED_TRACE("full replay");
        Expect(Path, Scenarios);
      }
      JournalRead Full = readJournal(Path);
      ASSERT_EQ(Full.St, JournalRead::State::Ok) << Full.Error;
      ASSERT_EQ(Full.Entries.size(), Chunks.count());
      size_t Kept = std::max<size_t>(1, Chunks.count() / 2);
      writeJournalPrefix(Cut, Full, Kept);
      {
        SCOPED_TRACE("resume after " + std::to_string(Kept) + " chunk(s)");
        Expect(Cut, Chunks.end(Kept - 1));
      }
    }
  }
  std::remove(Path.c_str());
  std::remove(Cut.c_str());
}

TEST(FaultTolerance, DiamondSurvivesSingleFailure) {
  Program P = parseAndCheck(spProgram(4, Diamond));
  DiagnosticEngine Diags;
  FtRunResult R = runFaultTolerance(P, FtOptions{}, /*Compiled=*/false, Diags);
  ASSERT_TRUE(R.Converged) << Diags.str();
  EXPECT_TRUE(R.Check.holds());
  EXPECT_EQ(R.Check.ScenariosChecked, 4u);
}

TEST(FaultTolerance, LineViolatesSingleFailure) {
  Program P = parseAndCheck(spProgram(4, Line));
  DiagnosticEngine Diags;
  FtRunResult R = runFaultTolerance(P, FtOptions{}, /*Compiled=*/false, Diags);
  ASSERT_TRUE(R.Converged) << Diags.str();
  EXPECT_FALSE(R.Check.holds());
  // Failing link 1-2 cuts nodes 2 and 3; failing 2-3 cuts node 3; failing
  // 0-1 cuts 1, 2, 3.
  EXPECT_EQ(R.Check.Violations.size(), 6u);
}

TEST(FaultTolerance, DiamondDoesNotSurviveTwoFailures) {
  Program P = parseAndCheck(spProgram(4, Diamond));
  FtOptions Opts;
  Opts.LinkFailures = 2;
  DiagnosticEngine Diags;
  FtRunResult R = runFaultTolerance(P, Opts, /*Compiled=*/false, Diags);
  ASSERT_TRUE(R.Converged) << Diags.str();
  EXPECT_FALSE(R.Check.holds());
}

TEST(FaultTolerance, CompiledEvaluatorAgrees) {
  Program P = parseAndCheck(spProgram(4, Diamond));
  DiagnosticEngine Diags;
  FtRunResult RI = runFaultTolerance(P, FtOptions{}, false, Diags);
  FtRunResult RC = runFaultTolerance(P, FtOptions{}, true, Diags);
  ASSERT_TRUE(RI.Converged && RC.Converged);
  EXPECT_EQ(RI.Check.holds(), RC.Check.holds());
  EXPECT_EQ(RI.Check.Violations.size(), RC.Check.Violations.size());
}

TEST(FaultTolerance, SharingCollapsesScenarios) {
  // Fig. 4's insight: the number of distinct routes across scenarios is
  // far below the number of scenarios. On the diamond, node 3's dict over
  // 4+ scenarios holds at most 3 distinct routes.
  Program P = parseAndCheck(spProgram(4, Diamond));
  DiagnosticEngine Diags;
  auto Meta = makeFaultTolerantProgram(P, FtOptions{}, Diags);
  ASSERT_TRUE(Meta.has_value()) << Diags.str();
  NvContext Ctx(P.numNodes());
  InterpProgramEvaluator Eval(Ctx, *Meta);
  SimResult R = simulate(*Meta, Eval);
  ASSERT_TRUE(R.Converged);
  for (uint32_t U = 0; U < 4; ++U) {
    ASSERT_EQ(R.Labels[U]->K, Value::Kind::Map);
    EXPECT_LE(Ctx.Mgr.numDistinctLeaves(R.Labels[U]->MapRoot), 3u) << U;
  }
}

TEST(FaultTolerance, GeneratedProgramPrintsAndReparses) {
  Program P = parseAndCheck(spProgram(4, Diamond));
  DiagnosticEngine Diags;
  auto Meta = makeFaultTolerantProgram(P, FtOptions{}, Diags);
  ASSERT_TRUE(Meta.has_value()) << Diags.str();
  std::string Printed = printProgram(*Meta);
  DiagnosticEngine D2;
  auto Again = parseProgram(Printed, D2);
  ASSERT_TRUE(Again.has_value()) << D2.str() << "\n" << Printed;
  EXPECT_TRUE(typeCheck(*Again, D2)) << D2.str();
}

} // namespace
