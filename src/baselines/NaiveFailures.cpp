//===- NaiveFailures.cpp - Per-scenario failure simulation ------------------===//

#include "baselines/NaiveFailures.h"

#include "core/Parser.h"
#include "core/Printer.h"
#include "core/TypeChecker.h"
#include "support/Fatal.h"

#include <optional>

using namespace nv;

SimResult nv::simulateScenario(const Program &P, ProtocolEvaluator &BaseEval,
                               const FtScenario &S, const Value *DropValue) {
  FailureInjectedEvaluator Eval(BaseEval, S, DropValue);
  return simulate(P, Eval);
}

namespace {

/// Runs one scenario into \p Slot under its own governed scope: the
/// per-scenario budget confines a trip to this scenario (and this worker,
/// in the sharded path) — siblings are untouched. A non-ok outcome leaves
/// \p Slot empty, so skipped scenarios contribute nothing and results stay
/// deterministic.
RunOutcome runScenario(const Program &P, ProtocolEvaluator &BaseEval,
                       const FtScenario &S, const Value *Drop,
                       const RunBudget &Budget,
                       std::vector<FtViolation> &Slot) {
  Slot.clear();
  Governor::Scope Guard(Budget);
  try {
    SimResult Sim = simulateScenario(P, BaseEval, S, Drop);
    if (!Sim.Converged)
      return Sim.Outcome;
    for (uint32_t U = 0; U < Sim.Labels.size(); ++U)
      if ((!S.Node || *S.Node != U) && !BaseEval.assertAt(U, Sim.Labels[U]))
        Slot.push_back({S, U, Sim.Labels[U], {}});
    return {};
  } catch (const EngineError &E) {
    Slot.clear();
    return E.outcome();
  }
}

/// Builds the canonical record of a completed scenario: its outcome, how
/// many attempts the retry policy spent, and its violations. Every producer
/// of scenario records — the sweep's journal step and the fleet worker
/// (result frames) — goes through here, which is what makes their records
/// byte-identical.
UnitRecord makeScenarioRecord(size_t I, const RunOutcome &O, unsigned Attempts,
                              const std::vector<FtViolation> &Vs) {
  UnitRecord Rec;
  Rec.Key = naiveScenarioKey(I);
  addOutcome(Rec, O, Attempts);
  for (const FtViolation &V : Vs)
    addViolationField(Rec, I, V);
  return Rec;
}

/// Restores a journaled or fleet scenario record: outcome into \p O,
/// violations (Route null, RouteText filled) into \p Slot. False, leaving
/// \p Slot untouched, when the record is malformed.
bool decodeScenarioRecord(const UnitRecord &Rec,
                          const std::vector<FtScenario> &Scenarios,
                          RunOutcome &O, std::vector<FtViolation> &Slot) {
  unsigned Attempts = 1;
  std::vector<std::pair<size_t, FtViolation>> Vs;
  if (!parseOutcome(Rec, O, Attempts) ||
      !parseViolationFields(Rec, Scenarios, Vs))
    return false;
  Slot.clear();
  for (auto &IV : Vs)
    Slot.push_back(std::move(IV.second));
  return true;
}

/// runScenario on an evaluator reused across scenarios: the violation
/// routes are pinned (for good: the result refers to them), then the
/// scenario's fixpoint garbage is collected back down to the pinned
/// baseline (evaluator globals and partials, drop value, violations).
RunOutcome runAndCollect(const Program &P, ProtocolEvaluator &BaseEval,
                         const FtScenario &S, const Value *Drop,
                         const RunBudget &Budget,
                         std::vector<FtViolation> &Slot) {
  RunOutcome O = runScenario(P, BaseEval, S, Drop, Budget, Slot);
  for (const FtViolation &V : Slot)
    BaseEval.ctx().pinValue(V.Route);
  BaseEval.ctx().resetBetweenRuns();
  return O;
}

/// Each scenario's violations, by scenario index.
using ScenarioSlots = std::vector<std::vector<FtViolation>>;

/// The naive analysis as a sweep: unit I is scenario I, keyed "s<I>", its
/// slot the scenario's violations, folded in scenario order. The serial,
/// pool and fleet entry points differ only in their workers.
FtCheckResult sweepScenarios(
    const std::vector<FtScenario> &Scenarios, const FtOptions &Opts,
    const std::function<SweepRunner(unsigned, ScenarioSlots &)> &Worker,
    ThreadPool *Pool, const FleetOptions *Fleet = nullptr,
    FleetResult *FleetOut = nullptr) {
  ScenarioSlots Slots(Scenarios.size());
  FtCheckResult R;
  SweepUnits U;
  U.Count = Scenarios.size();
  U.Key = naiveScenarioKey;
  U.Worker = [&](unsigned W) { return Worker(W, Slots); };
  U.Encode = [&](size_t I, const RunOutcome &O, unsigned Attempts) {
    return makeScenarioRecord(I, O, Attempts, Slots[I]);
  };
  U.Decode = [&](size_t I, const UnitRecord &Rec, RunOutcome &O) {
    return decodeScenarioRecord(Rec, Scenarios, O, Slots[I]);
  };
  U.Fold = [&](size_t I, const RunOutcome &, bool) {
    for (FtViolation &V : Slots[I])
      R.Violations.push_back(std::move(V));
    std::vector<FtViolation>().swap(Slots[I]);
  };
  SweepResult S = runSweep(U, {.Budget = Opts.Budget,
                                .Retry = Opts.Retry,
                                .Resume = Opts.Resume,
                                .Pool = Pool,
                                .Fleet = Fleet});
  R.ScenariosChecked = S.Units;
  R.ScenariosSkipped = S.Skipped;
  R.ScenariosReplayed = S.Replayed;
  R.RetriesPerformed = S.Retries;
  R.Outcome = S.Outcome;
  if (FleetOut)
    *FleetOut = std::move(S.Fleet);
  return R;
}

} // namespace

std::string nv::naiveScenarioKey(size_t I) {
  std::string K = "s";
  K += std::to_string(I);
  return K;
}

UnitRecord nv::runNaiveScenarioRecord(const Program &P,
                                      ProtocolEvaluator &BaseEval,
                                      const std::vector<FtScenario> &Scenarios,
                                      size_t I, const Value *DropValue,
                                      const FtOptions &Opts) {
  std::vector<FtViolation> Vs;
  SweepUnits U;
  U.Encode = [&](size_t I, const RunOutcome &O, unsigned Attempts) {
    return makeScenarioRecord(I, O, Attempts, Vs);
  };
  // Render the record (routeStr reads the live routes) BEFORE collecting
  // the scenario's garbage; nothing in Vs needs to survive the reset.
  UnitRecord Rec = runSweepUnit(
      U,
      [&](size_t I, const RunBudget &B) {
        return runScenario(P, BaseEval, Scenarios[I], DropValue, B, Vs);
      },
      I, {.Budget = Opts.Budget, .Retry = Opts.Retry});
  BaseEval.ctx().resetBetweenRuns();
  return Rec;
}

FtCheckResult nv::naiveFaultTolerance(const Program &P,
                                      ProtocolEvaluator &BaseEval,
                                      const FtOptions &Opts,
                                      const Value *DropValue) {
  NvContext &Ctx = BaseEval.ctx();
  if (DropValue)
    Ctx.pinValue(DropValue);
  auto Scenarios = enumerateScenarios(P, Opts);
  FtCheckResult R = sweepScenarios(
      Scenarios, Opts,
      [&](unsigned, ScenarioSlots &Slots) {
        return [&](size_t I, const RunBudget &B) {
          return runAndCollect(P, BaseEval, Scenarios[I], DropValue, B,
                               Slots[I]);
        };
      },
      /*Pool=*/nullptr);
  if (DropValue)
    Ctx.unpinValue(DropValue);
  return R;
}

FtCheckResult nv::naiveFaultToleranceParallel(
    const Program &P, const FtOptions &Opts, ThreadPool &Pool,
    const std::function<const Value *(NvContext &)> &MakeDrop) {
  auto Scenarios = enumerateScenarios(P, Opts);
  // One persistent worker per pool thread. Each worker re-parses the
  // program ONCE (AST nodes carry a lazily-filled free-variable cache, so
  // sharing them across threads would race), builds one evaluator over its
  // own NvContext/BddManager arena, then claims scenarios off the sweep and
  // garbage-collects its arena back to the pinned baseline between them.
  // Violations land in per-scenario slots folded in scenario order, so the
  // logical result is identical for any pool size (route pointers live in
  // the per-worker arenas retained by the result).
  struct Worker {
    std::optional<Program> Local;
    std::shared_ptr<NvContext> Ctx;
    std::unique_ptr<InterpProgramEvaluator> Eval;
    const Value *Drop = nullptr;
  };
  std::string Src = printProgram(P);
  std::vector<std::shared_ptr<NvContext>> Ctxs(Pool.numThreads());
  FtCheckResult R = sweepScenarios(
      Scenarios, Opts,
      [&](unsigned W, ScenarioSlots &Slots) {
        auto Wk = std::make_shared<Worker>();
        DiagnosticEngine Diags;
        Wk->Local = parseProgram(Src, Diags);
        if (!Wk->Local || !typeCheck(*Wk->Local, Diags))
          fatalError("internal: naive-baseline worker failed to re-parse the "
                     "program:\n" +
                     Diags.str());
        Wk->Ctx = std::make_shared<NvContext>(Wk->Local->numNodes());
        Wk->Eval =
            std::make_unique<InterpProgramEvaluator>(*Wk->Ctx, *Wk->Local);
        Wk->Drop = MakeDrop ? MakeDrop(*Wk->Ctx) : Wk->Ctx->noneV();
        Wk->Ctx->pinValue(Wk->Drop);
        Ctxs[W] = Wk->Ctx;
        // Each scenario is governed in its own scope on this worker thread
        // (the thread-local governor chain does not cross the pool), so a
        // budget trip or injected fault skips exactly this scenario.
        return SweepRunner([Wk, &Scenarios, &Slots](size_t I,
                                                    const RunBudget &B) {
          return runAndCollect(*Wk->Local, *Wk->Eval, Scenarios[I], Wk->Drop,
                               B, Slots[I]);
        });
      },
      &Pool);
  for (auto &C : Ctxs)
    if (C)
      R.RetainedContexts.push_back(std::move(C));
  return R;
}

FtCheckResult nv::naiveFaultToleranceOnFleet(const Program &P,
                                             const FtOptions &Opts,
                                             const FleetOptions &Fleet,
                                             FleetResult &FleetOut) {
  return sweepScenarios(enumerateScenarios(P, Opts), Opts, nullptr,
                        /*Pool=*/nullptr, &Fleet, &FleetOut);
}
