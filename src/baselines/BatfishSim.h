//===- BatfishSim.h - Batfish-style per-prefix simulation -------*- C++ -*-===//
//
// Part of nv-cpp. The simulator baseline of Sec. 6.4: Batfish-style
// all-prefixes analysis, re-implemented in C++ following its published
// architecture — each destination prefix is simulated independently with
// an environment-lookup interpreter over plain (non-MTBDD) route values
// and full re-merges, with no cross-prefix sharing or bulk processing.
// The absolute times differ from the Java tool; the shape (per-prefix
// duplication vs NV's bulk MTBDD processing) is what Fig. 14 compares.
//
//===----------------------------------------------------------------------===//

#ifndef NV_BASELINES_BATFISHSIM_H
#define NV_BASELINES_BATFISHSIM_H

#include "core/Ast.h"
#include "eval/Value.h"
#include "support/Diagnostics.h"
#include "support/Governor.h"
#include "support/Sweep.h"
#include "support/ThreadPool.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace nv {

struct BatfishResult {
  bool Converged = true;
  uint64_t PrefixesSimulated = 0;
  /// Prefixes whose governed run ended early (budget trip, cancellation,
  /// injected fault, evaluation error); skipped prefixes contribute empty
  /// Labels rows and clear Converged. Outcome records the first non-ok
  /// per-prefix outcome in destination order.
  uint64_t PrefixesSkipped = 0;
  /// Prefixes replayed from a resume journal (counted in
  /// PrefixesSimulated, so aggregates match an uninterrupted run).
  uint64_t PrefixesReplayed = 0;
  /// Extra attempts spent by the retry policy across all prefixes.
  uint64_t RetriesPerformed = 0;
  RunOutcome Outcome;
  uint64_t TotalPops = 0;
  /// Memory proxy: total interned values allocated across per-prefix runs
  /// (no sharing between prefixes, mirroring per-prefix RIB duplication).
  uint64_t TotalValuesAllocated = 0;
  /// Extracted per-prefix, per-node metrics (see the Extract parameter);
  /// values cannot outlive their per-prefix context, so only extracted
  /// numbers are returned.
  std::vector<std::vector<int64_t>> Labels;
};

/// Runs the all-prefixes problem one prefix at a time over the
/// parameterized single-destination program \p ParamProgram (which must
/// declare `symbolic dest : node`), announcing each of \p Destinations in
/// turn. A fresh evaluation context per prefix models Batfish's per-prefix
/// state.
/// \p Extract (optional) maps each converged label to a number recorded in
/// BatfishResult::Labels (e.g. a hop count); labels themselves die with the
/// per-prefix context. It may run concurrently and must be a pure function
/// of its argument.
/// The prefixes are the units of one sweep (support/Sweep.h), folded in
/// destination order, so output is identical for any \p Pool size. Each
/// prefix runs in its own governed scope under \p JobBudget (a trip skips
/// it alone); \p Resume and \p Retry are the sweep's journal and retry
/// policy, and a journaled prefix keeps its pops, allocation count and row.
BatfishResult batfishAllPrefixes(
    const Program &ParamProgram, const std::vector<uint32_t> &Destinations,
    const std::function<int64_t(const Value *)> &Extract = nullptr,
    ThreadPool *Pool = nullptr, const RunBudget &JobBudget = {},
    ResumeLog *Resume = nullptr, const RetryPolicy &Retry = {});

} // namespace nv

#endif // NV_BASELINES_BATFISHSIM_H
