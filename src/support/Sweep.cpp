//===- Sweep.cpp - One protocol for sweeps over independent units ---------===//
//
// Part of nv-cpp, a C++ reproduction of "NV: An Intermediate Language for
// Verification of Network Control Planes" (PLDI 2020).
//
//===----------------------------------------------------------------------===//

#include "support/Sweep.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <mutex>

namespace nv {

//===----------------------------------------------------------------------===//
// RetryPolicy
//===----------------------------------------------------------------------===//

bool isTransientOutcome(const RunOutcome &O) {
  // Canceled means the whole run is stopping; Quarantined means the fleet
  // already exhausted its retry policy on the job — neither should be
  // retried by the per-unit policy.
  return O.resourceLimit() && O.Status != RunStatus::Canceled &&
         O.Status != RunStatus::Quarantined;
}

RunBudget escalateBudget(const RunBudget &Budget, double Scale,
                         unsigned Attempt) {
  RunBudget B = Budget;
  if (Attempt <= 1 || Scale <= 1.0)
    return B;
  double F = 1.0;
  for (unsigned I = 1; I < Attempt; ++I)
    F *= Scale;
  // An unlimited (0) limit stays unlimited.
  B.DeadlineMs *= F;
  B.MaxSteps = uint64_t(double(B.MaxSteps) * F);
  B.MaxLiveNodes = size_t(double(B.MaxLiveNodes) * F);
  B.MaxHeapBytes = size_t(double(B.MaxHeapBytes) * F);
  return B;
}

RunOutcome
runUnitWithRetry(const RunBudget &Budget, const RetryPolicy &Policy,
                 unsigned &AttemptsOut,
                 const std::function<RunOutcome(const RunBudget &)> &Unit) {
  unsigned MaxAttempts = Policy.MaxAttempts ? Policy.MaxAttempts : 1;
  RunOutcome O;
  for (unsigned Attempt = 1;; ++Attempt) {
    O = Unit(escalateBudget(Budget, Policy.BudgetScale, Attempt));
    AttemptsOut = Attempt;
    if (O.ok() || !isTransientOutcome(O) || Attempt >= MaxAttempts)
      return O;
  }
}

//===----------------------------------------------------------------------===//
// Sweep
//===----------------------------------------------------------------------===//

namespace {

/// Unit \p I run with retry, as both halves of a sweep run it.
RunOutcome attempt(const SweepRunner &Run, size_t I, const SweepOptions &O,
                   unsigned &Attempts) {
  return runUnitWithRetry(O.Budget, O.Retry, Attempts,
                          [&](const RunBudget &B) { return Run(I, B); });
}

class Sweeper {
public:
  Sweeper(const SweepUnits &U, const SweepOptions &O) : U(U), O(O) {}

  SweepResult run() {
    if (O.Fleet)
      runOnFleet();
    else if (O.Pool && O.Pool->numThreads() > 1)
      O.Pool->parallelFor(O.Pool->numThreads(),
                          [&](size_t W) { runInProcess(unsigned(W)); });
    else
      runInProcess(0);
    return std::move(R);
  }

private:
  const SweepUnits &U;
  const SweepOptions &O;
  SweepResult R;
  std::mutex PullM; ///< Guards Pulled.
  size_t Pulled = 0; ///< Units [0, Pulled) are replayed or handed out.
  std::mutex M;      ///< Guards the fold state and R's counts.
  std::map<size_t, std::pair<RunOutcome, bool>> Waiting; ///< Not yet folded.
  size_t NextFold = 0;

  bool canceled() const {
    return O.Budget.Cancel && O.Budget.Cancel->isCanceled();
  }

  /// Hands out the next unit to run, replaying the ones the journal holds
  /// on the way; false when the source is exhausted.
  bool next(size_t &I) {
    std::lock_guard<std::mutex> Lock(PullM);
    while (U.More ? !canceled() && U.More(Pulled) : Pulled < U.Count) {
      I = Pulled++;
      UnitRecord Rec;
      RunOutcome Out;
      if (!O.Resume || !O.Resume->replay(U.Key(I), Rec) ||
          !U.Decode(I, Rec, Out))
        return true; // a record that does not decode re-runs its unit
      finish(I, Out, /*Replayed=*/true, 0);
    }
    return false;
  }

  /// Journals unit \p I unless it was canceled.
  void record(size_t I, const RunOutcome &Out, unsigned Attempts) {
    if (!O.Resume || Out.Status == RunStatus::Canceled)
      return;
    UnitRecord Rec = U.Encode(I, Out, Attempts);
    if (!Rec.Key.empty())
      O.Resume->recordDone(Rec);
  }

  /// One in-process worker: builds its runner before its first unit and
  /// starts no unit once the sweep is canceled.
  void runInProcess(unsigned W) {
    SweepRunner Run;
    for (size_t I; next(I);) {
      if (canceled()) {
        finish(I, {RunStatus::Canceled, "canceled before the unit started",
                   ""},
               false, 0);
        continue;
      }
      if (!Run)
        Run = U.Worker(W);
      unsigned Attempts = 1;
      RunOutcome Out = attempt(Run, I, O, Attempts);
      record(I, Out, Attempts);
      finish(I, Out, false, Attempts - 1);
    }
  }

  void runOnFleet() {
    FleetOptions FO = *O.Fleet;
    FO.Cancel = O.Budget.Cancel;
    std::map<std::string, size_t> InFlight; // handed out, no record yet
    FleetCallbacks CB;
    // The fleet reports each job it was handed exactly once.
    CB.OnResult = [&](const UnitRecord &Rec) {
      land(InFlight.extract(Rec.Key).mapped(), Rec);
    };
    R.Fleet = runFleetDynamic(
        FO,
        [&](FleetJob &J) {
          size_t I;
          if (!next(I))
            return false;
          J = {U.Key(I), U.Spec ? U.Spec(I) : std::string()};
          InFlight[J.Key] = I;
          return true;
        },
        CB);
    // A fleet that stopped early (canceled, or unable to keep workers
    // alive) leaves units without records; an ok fleet never does.
    RunOutcome Missing = R.Fleet.Outcome;
    if (Missing.ok())
      Missing = {RunStatus::InternalError, "the fleet returned no record", ""};
    for (const auto &[Key, I] : InFlight)
      finish(I, Missing, false, 0);
    if (!U.More)
      for (size_t I; next(I);)
        finish(I, Missing, false, 0);
  }

  /// A record landed from the fleet: decoded like a replayed record,
  /// journaled like a live one.
  void land(size_t I, const UnitRecord &Rec) {
    RunOutcome Out;
    unsigned Attempts = 1;
    if (const std::string *A = Rec.get("attempts"))
      Attempts = std::max(1u, unsigned(std::strtoul(A->c_str(), nullptr, 10)));
    bool Decoded = U.Decode(I, Rec, Out);
    if (Decoded)
      record(I, Out, Attempts);
    else
      Out = {RunStatus::InternalError,
             "malformed fleet record for unit '" + Rec.Key + "'", ""};
    // A quarantined unit's attempts count worker deaths, not retries.
    bool Retried = Decoded && Out.Status != RunStatus::Quarantined;
    finish(I, Out, false, Retried ? Attempts - 1 : 0);
  }

  /// Counts unit \p I and folds every unit whose predecessors are folded.
  void finish(size_t I, const RunOutcome &Out, bool Replayed,
              unsigned Retries) {
    std::lock_guard<std::mutex> Lock(M);
    R.Retries += Retries;
    Waiting.emplace(I, std::make_pair(Out, Replayed));
    for (auto It = Waiting.begin();
         It != Waiting.end() && It->first == NextFold; It = Waiting.erase(It)) {
      const auto &[FOut, FReplayed] = It->second;
      ++R.Units;
      R.Replayed += FReplayed;
      if (!FOut.ok() && !R.Skipped++)
        R.Outcome = FOut;
      if (U.Fold)
        U.Fold(NextFold, FOut, FReplayed);
      ++NextFold;
    }
  }
};

} // namespace

SweepResult runSweep(const SweepUnits &U, const SweepOptions &O) {
  return Sweeper(U, O).run();
}

UnitRecord runSweepUnit(const SweepUnits &U, const SweepRunner &Run, size_t I,
                        const SweepOptions &O) {
  unsigned Attempts = 1;
  RunOutcome Out = attempt(Run, I, O, Attempts);
  return U.Encode(I, Out, Attempts);
}

} // namespace nv
