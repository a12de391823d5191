//===- BatfishSim.cpp - Batfish-style per-prefix simulation ------------------===//

#include "baselines/BatfishSim.h"

#include "core/Parser.h"
#include "core/Printer.h"
#include "core/TypeChecker.h"
#include "eval/ProgramEvaluator.h"
#include "sim/Simulator.h"
#include "support/Fatal.h"

#include <cstdlib>
#include <memory>
#include <optional>

using namespace nv;

namespace {

/// Result of one per-prefix run, stored in a destination-indexed slot so
/// aggregation order (and thus the result) is identical for any pool size.
struct PerPrefix {
  bool Converged = false;
  RunOutcome Outcome;
  uint64_t Pops = 0;
  uint64_t ValuesAllocated = 0;
  std::vector<int64_t> Row;
};

void runOnePrefix(const Program &Prog, uint32_t Dest,
                  const std::function<int64_t(const Value *)> &Extract,
                  const RunBudget &JobBudget, PerPrefix &Out) {
  // Per-prefix governance on the thread that runs the prefix: a trip
  // skips exactly this prefix and leaves siblings bit-identical to an
  // ungoverned run (per-prefix state is fully isolated anyway).
  Governor::Scope Guard(JobBudget);
  try {
    // Fresh context per prefix: no value sharing across destinations.
    NvContext Ctx(Prog.numNodes());
    InterpProgramEvaluator Eval(Ctx, Prog, {{"dest", Ctx.nodeV(Dest)}});
    SimOptions Opts;
    Opts.IncrementalMerge = false; // full re-merge, Batfish-style
    SimResult Sim = simulate(Prog, Eval, Opts);
    Out.Converged = Sim.Converged;
    Out.Outcome = Sim.Outcome;
    Out.Pops = Sim.Stats.Pops;
    Out.ValuesAllocated = Ctx.Arena.size();
    if (Extract) {
      Out.Row.reserve(Sim.Labels.size());
      for (const Value *L : Sim.Labels)
        Out.Row.push_back(L ? Extract(L) : 0);
    }
  } catch (const EngineError &E) {
    // Evaluator construction or assert/extract evaluation tripped outside
    // the simulator's own catch.
    Out.Converged = false;
    Out.Outcome = E.outcome();
    Out.Row.clear();
  }
}

/// Journal key of destination index \p I (the destination list is part of
/// the run binding, so the index is stable).
std::string prefixKeyStr(size_t I) {
  std::string K = "p";
  K += std::to_string(I);
  return K;
}

/// Serializes one completed prefix into a journal record. Pops/allocation
/// counts and the extracted row are recorded so a replayed prefix
/// contributes exactly what the live run did.
UnitRecord makePrefixRecord(size_t I, const PerPrefix &P, unsigned Attempts,
                            bool HasExtract) {
  UnitRecord Rec;
  Rec.Key = prefixKeyStr(I);
  addOutcome(Rec, P.Outcome, Attempts);
  Rec.addInt("conv", P.Converged ? 1 : 0);
  Rec.addInt("pops", (long long)P.Pops);
  Rec.addInt("values", (long long)P.ValuesAllocated);
  if (HasExtract) {
    std::string Row;
    for (size_t J = 0; J < P.Row.size(); ++J) {
      if (J)
        Row += ',';
      Row += std::to_string(P.Row[J]);
    }
    Rec.add("row", Row);
  }
  return Rec;
}

/// Restores a journaled prefix into \p Out (a fresh slot); false when the
/// record is malformed.
bool decodePrefixRecord(const UnitRecord &Rec, PerPrefix &Out, RunOutcome &O) {
  unsigned Attempts = 1;
  if (!parseOutcome(Rec, O, Attempts))
    return false;
  const std::string *Conv = Rec.get("conv");
  const std::string *Pops = Rec.get("pops");
  const std::string *Values = Rec.get("values");
  if (!Conv || !Pops || !Values)
    return false;
  Out.Converged = *Conv == "1";
  Out.Pops = std::strtoull(Pops->c_str(), nullptr, 10);
  Out.ValuesAllocated = std::strtoull(Values->c_str(), nullptr, 10);
  if (const std::string *Row = Rec.get("row"))
    for (const char *P = Row->c_str(); *P;) {
      char *End;
      Out.Row.push_back(std::strtoll(P, &End, 10));
      P = *End ? End + 1 : End;
    }
  Out.Outcome = O;
  return true;
}

} // namespace

BatfishResult nv::batfishAllPrefixes(
    const Program &ParamProgram, const std::vector<uint32_t> &Destinations,
    const std::function<int64_t(const Value *)> &Extract, ThreadPool *Pool,
    const RunBudget &JobBudget, ResumeLog *Resume, const RetryPolicy &Retry) {
  std::vector<PerPrefix> Per(Destinations.size());
  BatfishResult R;
  // Pool workers each re-parse the program ONCE (no AST node, whose
  // free-variable cache is lazily filled, is shared across threads).
  // Per-prefix contexts stay as in the serial path, preserving Batfish's
  // no-sharing cost model — and keeping per-prefix allocation counts
  // independent of the pool size.
  bool Reparse = Pool && Pool->numThreads() > 1;
  std::string Src = Reparse ? printProgram(ParamProgram) : std::string();

  SweepUnits U;
  U.Count = Destinations.size();
  U.Key = prefixKeyStr;
  U.Worker = [&](unsigned) -> SweepRunner {
    auto Local = std::make_shared<std::optional<Program>>();
    if (Reparse) {
      DiagnosticEngine Diags;
      *Local = parseProgram(Src, Diags);
      if (!*Local || !typeCheck(**Local, Diags))
        fatalError("internal: Batfish-baseline worker failed to re-parse "
                   "the program:\n" +
                   Diags.str());
    }
    return [&, Local](size_t I, const RunBudget &B) {
      Per[I] = PerPrefix();
      runOnePrefix(*Local ? **Local : ParamProgram, Destinations[I], Extract,
                   B, Per[I]);
      return Per[I].Outcome;
    };
  };
  U.Encode = [&](size_t I, const RunOutcome &, unsigned Attempts) {
    return makePrefixRecord(I, Per[I], Attempts, Extract != nullptr);
  };
  U.Decode = [&](size_t I, const UnitRecord &Rec, RunOutcome &O) {
    return decodePrefixRecord(Rec, Per[I], O);
  };
  // A prefix skipped before it started keeps its empty slot: not
  // converged, no pops, an empty Labels row.
  U.Fold = [&](size_t I, const RunOutcome &, bool) {
    PerPrefix &P = Per[I];
    R.Converged &= P.Converged;
    R.TotalPops += P.Pops;
    R.TotalValuesAllocated += P.ValuesAllocated;
    if (Extract)
      R.Labels.push_back(std::move(P.Row));
  };
  SweepResult S = runSweep(
      U, {.Budget = JobBudget, .Retry = Retry, .Resume = Resume, .Pool = Pool});
  R.PrefixesSimulated = S.Units;
  R.PrefixesSkipped = S.Skipped;
  R.PrefixesReplayed = S.Replayed;
  R.RetriesPerformed = S.Retries;
  R.Outcome = S.Outcome;
  return R;
}
