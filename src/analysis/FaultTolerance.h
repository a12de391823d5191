//===- FaultTolerance.h - Fig. 5 fault-tolerance meta-protocol --*- C++ -*-===//
//
// Part of nv-cpp, a C++ reproduction of "NV: An Intermediate Language for
// Verification of Network Control Planes" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's novel fault-tolerance analysis (Sec. 2.7, Fig. 5): an
/// NV-to-NV transform that lifts a protocol's attribute A to
/// dict[K, A], where each key of K is one failure scenario. The transfer
/// function uses mapIte to drop the route in exactly the scenarios whose
/// failed links (or node) affect the edge being traversed; merge becomes a
/// pointwise combine. One simulation then computes the routes of *every*
/// scenario at once, with MTBDD sharing collapsing scenarios that behave
/// alike (Fig. 4's pod locality).
///
/// Scenario keys:
///   LinkFailures = 1, no node:  K = edge
///   LinkFailures = k:           K = (edge, ..., edge)   (k components)
///   NodeFailure  = true:        K = (node, edge, ...)
///
/// A key containing the same link twice models a smaller failure set, so
/// the key space covers "at most k failures". Keys naming non-topology
/// links behave like the failure-free scenario and share leaves.
///
//===----------------------------------------------------------------------===//

#ifndef NV_ANALYSIS_FAULTTOLERANCE_H
#define NV_ANALYSIS_FAULTTOLERANCE_H

#include "core/Ast.h"
#include "eval/ProgramEvaluator.h"
#include "sim/Simulator.h"
#include "support/Diagnostics.h"
#include "support/Sweep.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>

namespace nv {

struct FtOptions {
  unsigned LinkFailures = 1; ///< Link components in the scenario key.
  bool NodeFailure = false;  ///< Also fail one node per scenario.
  /// NV source of the "dropped route" value (Fig. 5 uses None; override
  /// for protocols whose attribute is not an option).
  std::string DropValueSource = "None";
  /// Worker threads for the per-scenario assert check (1 = serial; 0 =
  /// NV_THREADS / hardware concurrency). The meta-simulation itself is one
  /// fixpoint and stays single-threaded.
  unsigned Threads = 1;
  /// Resource budget for the whole analysis (transform, meta-simulation,
  /// assert check). Budget.MaxSteps bounds the meta-simulation's pops:
  /// non-monotone policies (e.g. BGP community filters) can oscillate
  /// under some failure scenarios, and an oscillating meta-sim grows
  /// fresh MTBDD leaves every round — bound it and report Converged =
  /// false instead of diverging. Subsumes the old MaxSteps field; a
  /// deadline, MTBDD node budget, heap watermark, or shared CancelToken
  /// compose the same way.
  RunBudget Budget{/*DeadlineMs=*/0, /*MaxSteps=*/100'000'000};
  /// Per-scenario retry for transient trips (naive baseline).
  RetryPolicy Retry;
  /// Scenarios per assert-check chunk (0 = 512): chunks are the journal
  /// and fleet unit ("c<C>" keys), so this binds in the journal.
  unsigned CheckChunkSize = 512;
  /// Optional checkpoint/resume journal of the unit sweep (support/
  /// Sweep.h): scenarios, or check chunks, replay instead of re-running.
  /// The caller owns binding validation.
  ResumeLog *Resume = nullptr;
};

/// Builds the fault-tolerant meta-program: the input's init/trans/merge
/// (and assert) are renamed to __base_* and wrapped per Fig. 5. The result
/// is parsed from generated NV source and type-checked; null on failure
/// (diagnostics filed). \p P must already be type-checked (AttrType set).
std::optional<Program> makeFaultTolerantProgram(const Program &P,
                                                const FtOptions &Opts,
                                                DiagnosticEngine &Diags);

/// One concrete failure scenario.
struct FtScenario {
  std::vector<std::pair<uint32_t, uint32_t>> Links; ///< LinkFailures entries.
  std::optional<uint32_t> Node;

  std::string str() const;
};

/// Enumerates all scenarios of the key space that name real topology
/// links (combinations with repetition, covering "at most k" failures).
std::vector<FtScenario> enumerateScenarios(const Program &P,
                                           const FtOptions &Opts);

/// The dict key value of a scenario.
const Value *scenarioKey(NvContext &Ctx, const FtScenario &S,
                         const FtOptions &Opts);

struct FtViolation {
  FtScenario Scenario;
  uint32_t Node;
  const Value *Route; ///< The route selected under the scenario; null when
                      ///< the violation was replayed from a journal.
  /// The route's rendering, recorded at completion time. Journal replay
  /// reconstructs violations from text (the originating arena is gone), so
  /// reporting must go through routeStr(), which is identical for live and
  /// replayed violations.
  std::string RouteText;

  std::string routeStr() const;
};

/// Serializes one violation into \p R as a "v" field
/// ("<scenarioIdx> <node> <routeText>").
void addViolationField(UnitRecord &R, size_t ScenarioIdx,
                       const FtViolation &V);
/// Parses every "v" field of \p R back into (scenarioIdx, violation) pairs
/// (Route null, RouteText filled, Scenario resolved from \p Scenarios).
/// Returns false on malformed fields or out-of-range scenario indices.
bool parseViolationFields(const UnitRecord &R,
                          const std::vector<FtScenario> &Scenarios,
                          std::vector<std::pair<size_t, FtViolation>> &Out);

struct FtCheckResult {
  uint64_t ScenariosChecked = 0;
  /// Scenarios whose run ended early (budget trip, cancellation, injected
  /// fault, evaluation error) in the per-scenario baselines. A skipped
  /// scenario contributes no violations; the first non-ok outcome in
  /// scenario order is recorded in Outcome, so the report is deterministic
  /// for any thread count.
  uint64_t ScenariosSkipped = 0;
  /// Scenarios (or scenario chunks' worth of scenarios) replayed from a
  /// resume journal instead of re-simulated. Counted inside
  /// ScenariosChecked, so aggregate counts match an uninterrupted run.
  uint64_t ScenariosReplayed = 0;
  /// Extra attempts spent by the retry policy across all scenarios.
  uint64_t RetriesPerformed = 0;
  RunOutcome Outcome;
  std::vector<FtViolation> Violations;
  /// Keeps evaluation contexts alive so Violation::Route pointers interned
  /// in them stay valid: per-worker arenas for the parallel naive baseline,
  /// and the context an FtAnalysis made itself (empty when a
  /// caller-provided context already owns the values).
  std::vector<std::shared_ptr<NvContext>> RetainedContexts;
  bool holds() const { return Violations.empty(); }
};

/// fnv1a64 over one "<scenario>@<node>=<route>" line per violation: the
/// same for live and replayed violations, and the "violations_hash" of
/// `nv ft`/`nv naive --json` and serve's ft responses.
std::string violationsHash(const std::vector<FtViolation> &Vs);

/// The assert check's unit list: chunks of CheckChunkSize scenarios (0
/// means the 512 default), chunk C keyed "c<C>" in journals and fleet jobs.
struct FtChunks {
  FtChunks(size_t Scenarios, unsigned Size)
      : Scenarios(Scenarios), Size(Size ? Size : 512) {}
  size_t count() const { return (Scenarios + Size - 1) / Size; }
  size_t begin(size_t C) const { return C * Size; }
  size_t end(size_t C) const { return std::min(begin(C) + Size, Scenarios); }
  size_t size(size_t C) const { return end(C) - begin(C); }
  static std::string key(size_t C) {
    std::string K = "c"; // not "c" + ...: GCC 12 -Wrestrict false positive
    return K += std::to_string(C);
  }

  size_t Scenarios, Size;
};

/// Checks the base program's assert under every scenario, by indexing the
/// converged dict labels of the meta-program with each scenario key. The
/// failed node (if any) is exempt from its own assertion. FtChecker::check
/// alone, for callers that run the transform and simulation themselves.
FtCheckResult checkFaultTolerance(NvContext &Ctx, const Program &BaseProgram,
                                  ProtocolEvaluator &BaseEval,
                                  const SimResult &MetaResult,
                                  const FtOptions &Opts,
                                  ThreadPool *Pool = nullptr);

/// The assert-check engine. The serial part runs once at construction:
/// one memoized walk per node label compiles its MTBDD into a
/// failing-region DAG (the assert evaluated once per distinct leaf, only
/// the diagram nodes that reach a failing leaf kept), and every scenario
/// key is bit-packed from per-component encodings. The checker then holds
/// no MTBDD Refs: a later garbage collection cannot invalidate it, and
/// lookups are read-only, so they shard over a pool without locking.
/// checkChunk returns a chunk's canonical UnitRecord ("c<C>", status, one
/// "v" field per violation); check() journals these records and fleet
/// workers send the *same* ones, which is what makes `--workers N`
/// aggregates bit-identical to `--workers 0`.
class FtChecker {
public:
  /// \p MetaResult must be converged with dict labels. It and \p BaseEval
  /// are read only during construction; \p Ctx, whose arena owns the
  /// violation routes, and Opts' Resume and Cancel must outlive it.
  FtChecker(NvContext &Ctx, const Program &BaseProgram,
            ProtocolEvaluator &BaseEval, const SimResult &MetaResult,
            const FtOptions &Opts);
  ~FtChecker();

  const FtChunks &chunks() const;

  /// The whole check: a serial sweep over the chunks (journaled through
  /// Opts.Resume; without it no record is rendered), each checked over
  /// \p Pool. The output is identical for any pool size.
  FtCheckResult check(ThreadPool *Pool = nullptr);

  /// Checks chunk \p C and returns its record.
  UnitRecord checkChunk(size_t C, ThreadPool *Pool = nullptr);

  /// Scenario \p I's key in diagram variable order: the bits
  /// encodeValue(scenarioKey(...)) yields.
  std::vector<bool> keyBits(size_t I) const;

private:
  /// Chunk \p C's violations, one slot per scenario (read-only).
  std::vector<std::vector<FtViolation>> checkSlots(size_t C,
                                                   ThreadPool *Pool) const;

  struct ImplTy;
  std::unique_ptr<ImplTy> Impl;
};

/// The assert check with its chunks run on the worker fleet \p Fleet, whose
/// workers answer with FtChecker::checkChunk. The records fold like
/// replayed ones, so the result equals the in-process check. \p FleetOut
/// receives the fleet's stats and quarantined chunks.
FtCheckResult checkFaultToleranceOnFleet(const Program &BaseProgram,
                                         const FtOptions &Opts,
                                         const FleetOptions &Fleet,
                                         FleetResult &FleetOut);

/// What one fault-tolerance run reports.
struct FtRunResult {
  bool Converged = false;
  FtCheckResult Check;
  SimStats Stats;
  double TransformMs = 0, SimulateMs = 0, CheckMs = 0;
  /// MTBDD operation-cache statistics of the meta-simulation (deltas).
  uint64_t CacheHits = 0, CacheMisses = 0;
  /// How the run ended: Ok, a budget/cancellation/fault trip (Converged
  /// false, phases completed so far are reported), or an evaluation error.
  RunOutcome Outcome;
};

/// The Fig. 5 pipeline for one program and failure model: it owns the
/// meta-program, the meta evaluator and the base interpreter, and every
/// fault-tolerance entry point goes through it. run() is the one governed
/// step: it arms a single Governor::Scope with the caller's budget over the
/// transform (first run only), the meta-simulation (itself run unlimited)
/// and the assert check, and reports any trip in its result instead of
/// throwing. The evaluators pin what they intern, so a caller that keeps
/// the analysis (nv serve) repeats run() without a new transform.
class FtAnalysis {
public:
  /// Runs in \p Ctx when given, garbage-collected down to its pinned
  /// baseline at the start of each run (so one run's violation routes stay
  /// valid until the next); otherwise in a context of its own, made on the
  /// first run. No work happens here. \p Ctx, \p P and Opts' Resume and
  /// Budget.Cancel must outlive the analysis.
  FtAnalysis(const Program &P, const FtOptions &Opts,
             bool UseCompiledEvaluator, NvContext *Ctx = nullptr);
  /// Pinned: the meta evaluator refers to the meta-program member.
  FtAnalysis(const FtAnalysis &) = delete;
  FtAnalysis &operator=(const FtAnalysis &) = delete;

  /// One run under \p Budget: the meta-simulation, then, when \p Check is
  /// set and it converged, the assert check over Opts.Threads threads.
  /// TransformMs is nonzero only on the run that transformed. A failed
  /// transform files its diagnostics in \p Diags and reports an evaluation
  /// error; an EngineError outside the simulator (context set-up, the
  /// check) is reported in Outcome, keeping the completed phases, with a
  /// diagnostic. When the analysis owns its context and the check ran,
  /// Check.RetainedContexts keeps that context (and the routes) alive.
  FtRunResult run(const RunBudget &Budget, bool Check,
                  DiagnosticEngine &Diags);

  /// False until a run has transformed the program: the transform failed.
  bool ok() const { return Meta.has_value(); }

  /// The checker over the last run's converged labels, built on first use
  /// under \p Budget (a trip throws EngineError). For fleet workers, which
  /// check chunks one at a time.
  FtChecker &checker(const RunBudget &Budget);

private:
  NvContext &ctx() { return Borrowed ? *Borrowed : *Own; }
  FtChecker &buildChecker();

  const Program &Base;
  FtOptions Opts;
  bool Compiled;
  NvContext *Borrowed;
  std::shared_ptr<NvContext> Own; ///< Outlives the evaluators below.
  std::optional<Program> Meta;
  std::unique_ptr<ProtocolEvaluator> MetaEval;
  std::unique_ptr<InterpProgramEvaluator> BaseEval;
  SimResult Sim; ///< The last run's meta-simulation.
  std::unique_ptr<FtChecker> Checker;
};

/// Convenience driver: one checking FtAnalysis run under Opts.Budget.
/// Null base assert means only convergence is checked.
///
/// \p ReuseCtx (optional) runs the analysis in a caller-owned context
/// instead of a fresh one — e.g. one context per network reused across
/// failure budgets. The context is garbage-collected down to its pinned
/// baseline at the START of each run, so one run's result (violation
/// routes, cache stats) stays valid until the next call with the same
/// context.
FtRunResult runFaultTolerance(const Program &P, const FtOptions &Opts,
                              bool UseCompiledEvaluator,
                              DiagnosticEngine &Diags,
                              NvContext *ReuseCtx = nullptr);

} // namespace nv

#endif // NV_ANALYSIS_FAULTTOLERANCE_H
