//===- Sweep.h - One protocol for sweeps over independent units -*- C++ -*-===//
//
// Part of nv-cpp, a C++ reproduction of "NV: An Intermediate Language for
// Verification of Network Control Planes" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unit protocol every sharded analysis shares. The naive baseline
/// sweeps failure scenarios (Sec. 2.7), the Batfish baseline sweeps
/// prefixes (Sec. 6.4), the fault-tolerance check sweeps scenario chunks,
/// and nv-fuzz sweeps instances. Each wraps its units in the same steps,
/// and runSweep owns all of them:
///
///  - replay: a unit the --resume journal holds is decoded, not re-run; a
///    record that does not decode re-runs the unit;
///  - retry: a transient trip re-runs the unit with an escalated budget
///    (RetryPolicy);
///  - journaling: each completed unit is recorded, unless it was canceled
///    (it re-runs on resume);
///  - cancellation: no unit starts once the budget's CancelToken trips.
///    Running units drain at their safe points; units that never started
///    count as skipped with a Canceled outcome;
///  - accounting: units, replayed, skipped, retries, and the first non-ok
///    outcome in unit order;
///  - placement: pending units run serially on the calling thread, on a
///    ThreadPool, or on a worker fleet (support/Fleet.h). A fleet's result
///    record is decoded like a replayed one and journaled like a live one.
///
/// The caller supplies only what is its own (SweepUnits). Its per-unit
/// results live in slots it owns, which runs and Decode fill and Fold
/// consumes, in unit order.
///
//===----------------------------------------------------------------------===//

#ifndef NV_SUPPORT_SWEEP_H
#define NV_SUPPORT_SWEEP_H

#include "support/Fleet.h"
#include "support/Governor.h"
#include "support/Resume.h"
#include "support/ThreadPool.h"

#include <cstdint>
#include <functional>
#include <string>

namespace nv {

//===----------------------------------------------------------------------===//
// RetryPolicy
//===----------------------------------------------------------------------===//

/// Per-unit retry for transient failures: resource limits other than
/// cancellation (deadline, step/node/heap budget, injected fault), which a
/// bigger budget or a second try may get past. Cancellation is the whole
/// run stopping; EvalError/InternalError would just repeat.
struct RetryPolicy {
  /// Total attempts per unit (1, the default, disables retry).
  unsigned MaxAttempts = 1;
  /// Attempt k runs with every finite budget limit times BudgetScale^(k-1).
  double BudgetScale = 2.0;
};

/// True when \p O is worth retrying under the policy above.
bool isTransientOutcome(const RunOutcome &O);

/// \p Budget with every finite limit scaled by \p Scale^(Attempt-1); the
/// CancelToken pointer is preserved (escalation never un-cancels a run).
RunBudget escalateBudget(const RunBudget &Budget, double Scale,
                         unsigned Attempt);

/// Runs \p Unit (called with the attempt's budget; must return the unit's
/// RunOutcome and be re-runnable from scratch) up to Policy.MaxAttempts
/// times, escalating the budget between attempts, until the outcome is ok
/// or non-transient. Returns the final outcome and fills \p AttemptsOut.
RunOutcome runUnitWithRetry(const RunBudget &Budget, const RetryPolicy &Policy,
                            unsigned &AttemptsOut,
                            const std::function<RunOutcome(const RunBudget &)> &Unit);

//===----------------------------------------------------------------------===//
// Sweep
//===----------------------------------------------------------------------===//

/// One worker's unit runner: runs unit I under one attempt's budget, leaves
/// its result in the caller's slot for I, and returns its outcome. Retries
/// call it again.
using SweepRunner = std::function<RunOutcome(size_t I, const RunBudget &)>;

/// What the caller of a sweep supplies.
struct SweepUnits {
  /// Units 0 .. Count-1, or, when More is set, an open-ended source (time-
  /// budget campaigns): unit I exists while More(I) holds and the sweep is
  /// not canceled. Asked in unit order.
  size_t Count = 0;
  std::function<bool(size_t I)> More;
  /// Unit I's journal and fleet key, and its fleet job spec (optional).
  std::function<std::string(size_t I)> Key, Spec;
  /// Builds in-process worker W's runner, and with it W's state, on the
  /// thread that uses it, before W's first unit.
  std::function<SweepRunner(unsigned W)> Worker;
  /// Unit I's journal record after its run (or its fleet record's Decode);
  /// never asked for a canceled unit. An empty key is not journaled.
  std::function<UnitRecord(size_t I, const RunOutcome &, unsigned Attempts)>
      Encode;
  /// Restores unit I's slot and outcome from a replayed or fleet record;
  /// false when the record is malformed.
  std::function<bool(size_t I, const UnitRecord &, RunOutcome &)> Decode;
  /// Consumes unit I's slot: once per unit, in unit order, never
  /// concurrently (a pool sweep calls it from its threads). \p Replayed
  /// when the unit came from the journal.
  std::function<void(size_t I, const RunOutcome &, bool Replayed)> Fold;
};

struct SweepOptions {
  /// Each unit's budget, escalated per retry. Once its CancelToken trips,
  /// no unit starts.
  RunBudget Budget;
  RetryPolicy Retry;
  ResumeLog *Resume = nullptr;
  /// Pending units run on the pool's threads, or serially in unit order on
  /// the calling thread when it is null or has one thread ...
  ThreadPool *Pool = nullptr;
  /// ... or on this worker fleet (Budget.Cancel becomes its Cancel).
  const FleetOptions *Fleet = nullptr;
};

struct SweepResult {
  uint64_t Units = 0;    ///< Units folded.
  uint64_t Replayed = 0; ///< Of which restored from the journal.
  uint64_t Skipped = 0;  ///< Of which ended with a non-ok outcome.
  /// Extra attempts spent on units run in this sweep, in process or on the
  /// fleet; replayed units spent theirs in an earlier run.
  uint64_t Retries = 0;
  RunOutcome Outcome; ///< The first non-ok unit outcome in unit order.
  FleetResult Fleet;  ///< The fleet run, when there was one.
};

/// Runs every unit of \p U under \p O (see the file comment). Exceptions
/// from a runner propagate.
SweepResult runSweep(const SweepUnits &U, const SweepOptions &O);

/// The fleet worker's half: unit \p I run by \p Run under O's budget and
/// retry policy, as U.Encode's record.
UnitRecord runSweepUnit(const SweepUnits &U, const SweepRunner &Run, size_t I,
                        const SweepOptions &O);

} // namespace nv

#endif // NV_SUPPORT_SWEEP_H
