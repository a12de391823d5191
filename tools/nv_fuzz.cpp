//===- nv_fuzz.cpp - Differential fuzzing driver ------------------------------===//
//
// Part of nv-cpp. The command-line front end of the differential fuzzer:
//
//   nv-fuzz --seed S --count N        run N seed-derived instances through
//                                     the cross-engine oracle
//   nv-fuzz --time-budget SECS        run until the wall-clock budget is
//                                     spent (nightly CI mode)
//   nv-fuzz --replay PATH             replay a corpus file or directory
//   nv-fuzz --emit SEED               print the corpus-format rendering of
//                                     one instance (corpus seeding)
//
// Options:
//   --minimize           shrink each divergence and write a corpus repro
//   --artifact-dir DIR   where minimized repros (and other run artifacts)
//                        are written (default tests/corpus; --corpus-dir
//                        is the older spelling of the same knob)
//   --resume PATH        campaign checkpoint journal: completed instances
//                        are replayed (divergence tallies included) and
//                        each newly completed instance is recorded durably
//   --workers N          campaign mode only: run instances on N crash-
//                        isolated worker subprocesses (support/Fleet.h).
//                        A crashing instance requeues; one that kills
//                        several workers is quarantined (recorded as
//                        skipped, with a runnable repro script in the
//                        artifact dir) instead of ending the campaign the
//                        way an escaped EngineError does in-process
//   --retry N            attempts per instance when an EngineError with a
//                        transient outcome escapes the oracle's per-leg
//                        catches; exhausted retries record the instance as
//                        skipped instead of killing the campaign
//   --threads N          thread count for the N-thread oracle legs
//   --no-smt/--no-ft/--no-naive   disable oracle legs
//   --json PATH          machine-readable summary
//
// SIGINT/SIGTERM trigger graceful shutdown: the in-flight instance drains
// through its engines' safe points, the journal keeps every completed
// instance, and the campaign exits with code 3.
//
// Determinism: instance i of a run is seed-derived via mixSeed(S, i) —
// the same --seed/--count always replays the same instances and reaches
// the same verdicts (--time-budget trades this for wall-clock coverage).
//
// Exit codes (shared scheme with the nv CLI):
//   0  all instances agree
//   1  divergence found
//   2  usage or I/O error
//   3  resource exhausted (an EngineError with a resource-limit outcome
//      escaped the oracle's per-leg catches, e.g. a fault injected before
//      any engine scope was armed)
//   4  internal error
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"
#include "fuzz/InstanceGen.h"
#include "fuzz/Minimize.h"
#include "fuzz/Oracle.h"
#include "fuzz/Rng.h"
#include "serve/Json.h"
#include "support/Fleet.h"
#include "support/Governor.h"
#include "support/Resume.h"
#include "support/Subprocess.h"
#include "support/Sweep.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

using namespace nv;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: nv-fuzz [--seed S] [--count N] [--start I] [--time-budget SECS]\n"
      "               [--minimize] [--artifact-dir DIR] [--threads N]\n"
      "               [--resume PATH] [--retry N] [--workers N]\n"
      "               [--no-smt] [--no-ft] [--no-naive] [--json PATH]\n"
      "       nv-fuzz --replay PATH   (corpus file or directory)\n"
      "       nv-fuzz --emit SEED     (print one instance in corpus form)\n");
  return 2;
}

struct FuzzCli {
  uint64_t Seed = 1;
  uint64_t Count = 100;
  uint64_t Start = 0;
  unsigned TimeBudgetSec = 0;
  bool Minimize = false;
  std::string ArtifactDir = "tests/corpus";
  std::string ReplayPath;
  std::string ResumePath;
  std::string JsonPath;
  unsigned Retry = 1;
  unsigned Workers = 0;    ///< Campaign fleet size (0 = in-process).
  bool FleetWorker = false; ///< Hidden: serve instances over fleet pipes.
  bool Emit = false;
  uint64_t EmitSeed = 0;
  OracleOptions Oracle;
};

std::optional<FuzzCli> parseCli(int argc, char **argv) {
  FuzzCli O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--minimize") {
      O.Minimize = true;
    } else if (A == "--fleet-worker") {
      // Undocumented: the fleet coordinator re-execs this binary with the
      // flag to obtain workers (job pipe fd 3, result pipe fd 4).
      O.FleetWorker = true;
    } else if (A == "--no-smt") {
      O.Oracle.EnableSmt = false;
    } else if (A == "--no-ft") {
      O.Oracle.EnableFt = false;
    } else if (A == "--no-naive") {
      O.Oracle.EnableNaive = false;
    } else if (A == "--inject-bug-for-testing") {
      // Undocumented: plants the deliberate engine bug the self-tests use
      // to prove the oracle catches and the minimizer shrinks divergences.
      O.Oracle.InjectBugForTesting = true;
    } else {
      // Every other option takes a value.
      if (I + 1 >= argc)
        return std::nullopt;
      const char *V = argv[++I];
      uint64_t N = std::strtoull(V, nullptr, 0);
      auto Small = static_cast<unsigned>(std::atoi(V));
      if (A == "--seed")
        O.Seed = N;
      else if (A == "--count")
        O.Count = N;
      else if (A == "--start") // first instance index: lets nightly shards
        O.Start = N;           // cover disjoint ranges of one base seed
      else if (A == "--time-budget")
        O.TimeBudgetSec = Small;
      else if (A == "--threads")
        O.Oracle.Threads = Small;
      else if (A == "--corpus-dir" || A == "--artifact-dir")
        O.ArtifactDir = V;
      else if (A == "--resume")
        O.ResumePath = V;
      else if (A == "--retry")
        O.Retry = Small;
      else if (A == "--workers")
        O.Workers = Small;
      else if (A == "--replay")
        O.ReplayPath = V;
      else if (A == "--emit")
        O.Emit = true, O.EmitSeed = N;
      else if (A == "--json")
        O.JsonPath = V;
      else
        return std::nullopt;
    }
  }
  if (std::getenv("NV_FUZZ_INJECT_BUG"))
    O.Oracle.InjectBugForTesting = true;
  return O;
}

struct RunTally {
  uint64_t Instances = 0;
  uint64_t Divergences = 0;
  uint64_t LegRuns = 0;
  uint64_t Skipped = 0;
  uint64_t Replayed = 0;
  uint64_t Retries = 0;
  std::vector<std::string> ReproFiles;
};

/// What one instance contributed — exactly the facts the checkpoint
/// journal needs to replay it without re-running any engine.
struct InstanceResult {
  std::string Name;
  bool GenError = false; ///< The generator failed: counted, never journaled.
  bool Diverged = false;
  bool Skipped = false;
  uint64_t Legs = 0;
  unsigned Attempts = 0;
  std::string ReproFile;
};

/// The journal header: everything that determines per-instance verdicts.
/// Thread count and wall-clock budget are provenance — verdicts are
/// invariant under both, so an interrupted campaign may resume with
/// different parallelism.
RunBinding fuzzBinding(const FuzzCli &Cli, const char *Mode) {
  RunBinding B;
  B.set("tool", "nv-fuzz");
  B.set("mode", Mode);
  if (!std::strcmp(Mode, "campaign")) {
    B.setInt("seed", static_cast<long long>(Cli.Seed));
    B.setInt("start", static_cast<long long>(Cli.Start));
    if (Cli.TimeBudgetSec)
      B.set("count", "time-budget");
    else
      B.setInt("count", static_cast<long long>(Cli.Count));
  } else {
    B.set("replay-root", Cli.ReplayPath);
  }
  B.setInt("smt", Cli.Oracle.EnableSmt);
  B.setInt("ft", Cli.Oracle.EnableFt);
  B.setInt("naive", Cli.Oracle.EnableNaive);
  B.setInt("inject-bug", Cli.Oracle.InjectBugForTesting);
  B.setInt("retry", Cli.Retry);
  // Worker count is provenance, not binding: fleet and in-process
  // campaigns write identical instance records, so their journals are
  // interchangeable.
  B.setProvenance("workers", std::to_string(Cli.Workers));
  B.setProvenance("threads", std::to_string(Cli.Oracle.Threads));
  if (Cli.TimeBudgetSec)
    B.setProvenance("time-budget-sec", std::to_string(Cli.TimeBudgetSec));
  return B;
}

/// The canonical instance record — what the campaign journals and what a
/// fleet worker sends back over the result pipe (same shape, so fleet and
/// in-process journals are interchangeable).
UnitRecord makeInstanceRecord(const std::string &Key, const InstanceResult &R) {
  UnitRecord Rec;
  Rec.Key = Key;
  Rec.add("name", R.Name);
  Rec.addInt("div", R.Diverged ? 1 : 0);
  Rec.addInt("skip", R.Skipped ? 1 : 0);
  Rec.addInt("legs", static_cast<long long>(R.Legs));
  Rec.addInt("attempts", R.Attempts);
  if (!R.ReproFile.empty())
    Rec.add("repro", R.ReproFile);
  return Rec;
}

/// Restores an instance from a journaled or fleet record. A fleet worker's
/// generator error and a quarantined instance (the fleet's record carries
/// its status) come back too; the latter is journaled as a durable skip.
/// Returns false if the record lacks the expected fields (version drift)
/// — the instance then re-runs.
bool decodeInstance(const UnitRecord &Rec, InstanceResult &Out,
                    RunOutcome &O) {
  InstanceResult R;
  if (Rec.get("gen_error")) {
    R.GenError = true;
  } else if (Rec.get("status")) {
    if (!parseOutcome(Rec, O, R.Attempts))
      return false;
    R.Name = Rec.Key;
    R.Skipped = true;
  } else {
    auto Num = [&](const char *K, uint64_t Default) {
      const std::string *V = Rec.get(K);
      return V ? std::strtoull(V->c_str(), nullptr, 10) : Default;
    };
    const std::string *Name = Rec.get("name");
    if (!Rec.get("legs") || !Rec.get("div"))
      return false;
    R.Name = Name ? *Name : Rec.Key;
    R.Diverged = Num("div", 0) == 1;
    R.Skipped = Num("skip", 0) == 1;
    R.Legs = Num("legs", 0);
    R.Attempts = unsigned(Num("attempts", 1));
  }
  if (const std::string *Repro = Rec.get("repro"))
    R.ReproFile = *Repro;
  Out = std::move(R);
  return true;
}

/// One attempt at \p Inst: runs it through the oracle into \p R and, on
/// divergence, optionally minimizes it and writes a corpus repro under the
/// artifact directory. With --retry, an EngineError with a transient
/// outcome that escapes the oracle's per-leg catches is the attempt's
/// outcome: the sweep retries it, and the last attempt records the
/// instance as skipped (so a persistently flaky unit cannot kill a long
/// campaign). Without --retry it propagates and ends the run structurally.
RunOutcome runInstance(const FuzzInstance &Inst, const FuzzCli &Cli,
                       InstanceResult &R) {
  unsigned Attempt = R.Attempts + 1;
  R = InstanceResult();
  R.Name = Inst.Name;
  R.Attempts = Attempt;
  DiagnosticEngine Diags;
  OracleVerdict V;
  try {
    V = runOracle(Inst, Cli.Oracle, Diags);
  } catch (const EngineError &E) {
    if (Cli.Retry <= 1 || !isTransientOutcome(E.outcome()))
      throw;
    if (Attempt >= Cli.Retry) {
      R.Skipped = true;
      std::printf("SKIP %s after %u attempt(s): %s\n", Inst.Name.c_str(),
                  Attempt, E.what());
    }
    return E.outcome();
  }
  if (Cli.Oracle.Cancel && Cli.Oracle.Cancel->isCanceled())
    // Legs drained via cancellation: not a completed unit.
    return {RunStatus::Canceled, "instance drained by cancellation", ""};
  R.Legs = V.Runs.size();
  if (V.Ok)
    return {};

  R.Diverged = true;
  std::printf("DIVERGENCE %s\n  %s\n", Inst.Name.c_str(),
              V.Mismatch.c_str());
  if (!Cli.Minimize)
    return {};

  MinimizeResult M = minimizeSpec(Inst.Spec, Cli.Oracle);
  std::printf("  minimized: n=%u e=%zu after %u oracle runs, %u moves\n",
              M.Final.NumNodes, M.Final.Edges.size(), M.OracleRuns,
              M.MovesApplied);
  std::error_code EC;
  std::filesystem::create_directories(Cli.ArtifactDir, EC);
  char SeedHex[32];
  std::snprintf(SeedHex, sizeof(SeedHex), "%016llx",
                static_cast<unsigned long long>(Inst.Spec.Seed));
  std::string Path = Cli.ArtifactDir + "/repro_" +
                     policyKindName(M.Final.Policy) + "_" + SeedHex + ".nv";
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return {};
  }
  Out << corpusFileText(M.Instance, "minimized repro; diverged: " +
                                        M.Verdict.Mismatch.substr(0, 200));
  std::printf("  wrote %s\n", Path.c_str());
  R.ReproFile = Path;
  return {};
}

/// A corpus file that cannot be loaded ends the replay with exit 2.
struct CorpusLoadError {};

/// One attempt at the generated instance of \p Seed. A generator error is
/// printed and counted but never journaled: generation is deterministic,
/// so a resumed run reproduces (and re-counts) it.
RunOutcome runSeed(uint64_t Seed, const FuzzCli &Cli, InstanceResult &R) {
  DiagnosticEngine Diags;
  FuzzInstance Inst = instanceFromSeed(Seed, Diags);
  if (!Inst.NvSource.empty())
    return runInstance(Inst, Cli, R);
  std::printf("GENERATOR ERROR seed=0x%016llx:\n%s",
              static_cast<unsigned long long>(Seed), Diags.str().c_str());
  R = InstanceResult();
  R.GenError = true;
  return {};
}

bool writeJson(const std::string &Path, const RunTally &T, double Ms) {
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return false;
  }
  // No "replayed"/"retries" fields: a resumed run's summary must be
  // byte-identical to an uninterrupted one (modulo the _ms timing field).
  // One field per line, so CI diffs can strip exactly that line.
  Out << "{\n  \"instances\": " << T.Instances
      << ",\n  \"divergences\": " << T.Divergences
      << ",\n  \"engine_runs\": " << T.LegRuns
      << ",\n  \"skipped\": " << T.Skipped << ",\n  \"elapsed_ms\": "
      << static_cast<uint64_t>(Ms) << ",\n  \"repros\": [";
  for (size_t I = 0; I < T.ReproFiles.size(); ++I)
    Out << (I ? ", " : "") << Json(T.ReproFiles[I]).dump();
  Out << "]\n}\n";
  return true;
}

SweepOptions sweepOptions(const FuzzCli &Cli, ResumeLog *Log) {
  return {.Budget = {.Cancel = Cli.Oracle.Cancel},
          .Retry = {.MaxAttempts = Cli.Retry},
          .Resume = Log};
}

/// The worker half of a fleet campaign (hidden --fleet-worker): each job's
/// spec is the instance seed (keys stay "i<I>", but the seed travels
/// so the worker needs no --seed/--start flags). Handler exceptions — an
/// EngineError escaping the oracle's per-leg catches — kill the worker on
/// purpose: the coordinator requeues the instance and, if it keeps killing
/// workers, quarantines it with a repro script instead of ending the
/// campaign.
int fuzzFleetWorker(const FuzzCli &Cli) {
  return runFleetWorker([&](const FleetJob &J) -> UnitRecord {
    uint64_t Seed = std::strtoull(J.Spec.c_str(), nullptr, 10);
    InstanceResult R;
    SweepUnits U;
    U.Encode = [&](size_t, const RunOutcome &, unsigned) {
      if (R.GenError) // counted at the coordinator, never journaled
        return UnitRecord{J.Key, {{"gen_error", "1"}}};
      return makeInstanceRecord(J.Key, R);
    };
    return runSweepUnit(
        U, [&](size_t, const RunBudget &) { return runSeed(Seed, Cli, R); },
        0, sweepOptions(Cli, nullptr));
  });
}

/// The campaign's fleet: this binary's hidden worker mode with the flags
/// that decide per-instance verdicts.
FleetOptions fuzzFleetOptions(const FuzzCli &Cli) {
  FleetOptions FO;
  FO.Workers = Cli.Workers;
  std::vector<std::string> &A = FO.WorkerArgv;
  A = {getExecutablePath(), "--fleet-worker", "--threads",
       std::to_string(Cli.Oracle.Threads), "--retry", std::to_string(Cli.Retry),
       "--artifact-dir", Cli.ArtifactDir};
  if (!Cli.Oracle.EnableSmt)
    A.push_back("--no-smt");
  if (!Cli.Oracle.EnableFt)
    A.push_back("--no-ft");
  if (!Cli.Oracle.EnableNaive)
    A.push_back("--no-naive");
  if (Cli.Oracle.InjectBugForTesting)
    A.push_back("--inject-bug-for-testing");
  if (Cli.Minimize)
    A.push_back("--minimize");
  FO.QuarantineDir = Cli.ArtifactDir; // repro scripts live with the corpus
  applyFleetEnvOverrides(FO);
  return FO;
}

/// The campaign (instance Start+I is unit I, generated from its seed) or
/// the corpus replay (unit I is Files[I], keyed by its path), as one sweep
/// whose slots are InstanceResults, tallied into \p T in unit order. With
/// --workers the campaign's jobs are pulled lazily, so --time-budget works
/// there too, and worker stdout is inherited, so DIVERGENCE/SKIP/minimizer
/// lines print exactly as they do in process. Returns 0, or the exit code
/// that ends the run early.
int sweepInstances(const FuzzCli &Cli, const std::vector<std::string> &Files,
                   ResumeLog *Log, const Stopwatch &W, RunTally &T) {
  bool Replay = !Cli.ReplayPath.empty();
  auto Seed = [&](size_t I) { return mixSeed(Cli.Seed, Cli.Start + I); };
  std::map<size_t, InstanceResult> Slots;
  SweepUnits U;
  if (Replay)
    U.Count = Files.size();
  else if (Cli.TimeBudgetSec)
    U.More = [&](size_t) {
      return W.elapsedMs() < Cli.TimeBudgetSec * 1000.0;
    };
  else
    U.Count = Cli.Count;
  U.Key = [&](size_t I) {
    std::string K = "i";
    return Replay ? Files[I] : K += std::to_string(Cli.Start + I);
  };
  U.Spec = [&](size_t I) { return std::to_string(Seed(I)); };
  U.Worker = [&](unsigned) -> SweepRunner {
    return [&](size_t I, const RunBudget &) {
      if (!Replay)
        return runSeed(Seed(I), Cli, Slots[I]);
      auto Inst = loadCorpusFile(Files[I]);
      if (!Inst)
        throw CorpusLoadError();
      return runInstance(*Inst, Cli, Slots[I]);
    };
  };
  U.Encode = [&](size_t I, const RunOutcome &, unsigned) {
    const InstanceResult &R = Slots[I];
    return R.GenError ? UnitRecord() : makeInstanceRecord(U.Key(I), R);
  };
  U.Decode = [&](size_t I, const UnitRecord &Rec, RunOutcome &O) {
    return decodeInstance(Rec, Slots[I], O);
  };
  U.Fold = [&](size_t I, const RunOutcome &O, bool Replayed) {
    InstanceResult R = std::move(Slots[I]);
    Slots.erase(I);
    if (R.GenError) {
      ++T.Divergences;
      return;
    }
    ++T.Instances;
    T.Skipped += R.Skipped || !O.ok();
    T.LegRuns += R.Legs;
    T.Divergences += R.Diverged;
    if (R.Diverged && Replayed)
      std::printf("DIVERGENCE %s (replayed from journal)\n", R.Name.c_str());
    if (!R.ReproFile.empty())
      T.ReproFiles.push_back(R.ReproFile);
    if (O.Status == RunStatus::Quarantined && !Replayed)
      std::printf("SKIP %s: %s\n", R.Name.c_str(), O.str().c_str());
    if (O.Status == RunStatus::Canceled)
      return;
    if (Replay)
      std::printf("%-60s %s%s\n", Files[I].c_str(),
                  R.Diverged ? "DIVERGED" : "ok", Replayed ? " (journal)" : "");
    else if (!Cli.Workers && !Replayed && (Cli.Start + I + 1) % 100 == 0)
      std::printf("[%llu] %llu instances, %llu divergences, %.1fs\n",
                  static_cast<unsigned long long>(Cli.Start + I + 1),
                  static_cast<unsigned long long>(T.Instances),
                  static_cast<unsigned long long>(T.Divergences),
                  W.elapsedMs() / 1000.0);
  };
  SweepOptions SO = sweepOptions(Cli, Log);
  FleetOptions FO;
  if (Cli.Workers && !Replay) {
    FO = fuzzFleetOptions(Cli);
    SO.Fleet = &FO;
  }
  SweepResult S;
  try {
    S = runSweep(U, SO);
  } catch (const CorpusLoadError &) {
    return 2;
  }
  T.Replayed = S.Replayed;
  T.Retries = S.Retries;
  if (!SO.Fleet)
    return 0;
  if (!S.Fleet.Outcome.ok() && S.Fleet.Outcome.Status != RunStatus::Canceled) {
    std::fprintf(stderr, "nv-fuzz: fleet run failed: %s\n",
                 S.Fleet.Outcome.str().c_str());
    return exitCodeForOutcome(S.Fleet.Outcome);
  }
  std::printf("fleet: %s\n", S.Fleet.Stats.str().c_str());
  return 0;
}

int fuzzMain(int argc, char **argv) {
  auto Cli = parseCli(argc, argv);
  if (!Cli)
    return usage();

  if (Cli->FleetWorker)
    // Before any signal plumbing: the coordinator owns this process's
    // lifecycle (SIGTERM/SIGKILL), so dispositions stay at their defaults.
    return fuzzFleetWorker(*Cli);

  if (Cli->Emit) {
    DiagnosticEngine Diags;
    FuzzInstance Inst = instanceFromSeed(Cli->EmitSeed, Diags);
    if (Inst.NvSource.empty()) {
      std::fprintf(stderr, "generator failed:\n%s", Diags.str().c_str());
      return 2;
    }
    std::printf("%s", corpusFileText(
                          Inst, "generator-produced regression instance")
                          .c_str());
    return 0;
  }

  bool Replay = !Cli->ReplayPath.empty();
  const char *Mode = Replay ? "replay" : "campaign";
  std::vector<std::string> Files;
  if (Replay) {
    if (std::filesystem::is_directory(Cli->ReplayPath))
      Files = listCorpusFiles(Cli->ReplayPath);
    else
      Files.push_back(Cli->ReplayPath);
    if (Files.empty()) {
      std::fprintf(stderr, "no corpus files under %s\n",
                   Cli->ReplayPath.c_str());
      return 2;
    }
  }

  std::unique_ptr<ResumeLog> Log;
  if (!openCliResume("nv-fuzz", Cli->ResumePath, fuzzBinding(*Cli, Mode), Log))
    return 2;

  CancelToken Cancel;
  GracefulShutdown Shutdown(Cancel);
  Cli->Oracle.Cancel = &Cancel;

  RunTally T;
  Stopwatch W;
  if (int SweepEc = sweepInstances(*Cli, Files, Log.get(), W, T))
    return SweepEc;
  if (Replay)
    std::printf("replayed %llu corpus instances, %llu divergences\n",
                static_cast<unsigned long long>(T.Instances),
                static_cast<unsigned long long>(T.Divergences));
  else
    std::printf("%llu instances (%llu replayed, %llu skipped, %llu retries), "
                "%llu engine runs, %llu divergences, %.1fs\n",
                static_cast<unsigned long long>(T.Instances),
                static_cast<unsigned long long>(T.Replayed),
                static_cast<unsigned long long>(T.Skipped),
                static_cast<unsigned long long>(T.Retries),
                static_cast<unsigned long long>(T.LegRuns),
                static_cast<unsigned long long>(T.Divergences),
                W.elapsedMs() / 1000.0);
  if (!Cli->JsonPath.empty() && !writeJson(Cli->JsonPath, T, W.elapsedMs()))
    return 2;
  if (Shutdown.triggered()) {
    std::fprintf(stderr,
                 "nv-fuzz: %s interrupted; %zu completed instance(s) "
                 "journaled\n",
                 Mode, Log ? Log->entryCount() : size_t(0));
    return 3;
  }
  return T.Divergences ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  try {
    return fuzzMain(argc, argv);
  } catch (const EngineError &E) {
    // The oracle catches per-leg EngineErrors; one escaping here means it
    // fired outside any engine (e.g. an injected fault during instance
    // generation). Exit structurally rather than aborting.
    std::fprintf(stderr, "nv-fuzz: %s\n", E.what());
    return exitCodeForOutcome(E.outcome());
  } catch (const std::exception &E) {
    std::fprintf(stderr, "nv-fuzz: internal error: %s\n", E.what());
    return 4;
  }
}
