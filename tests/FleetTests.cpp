//===- FleetTests.cpp - Crash-isolated worker fleet tests --------------------===//
//
// Tests of the coordinator/worker execution layer (support/Fleet.h): fleet
// merges bit-identical at any worker count, SIGKILL mid-job requeues and
// completes, a silent (wedged) worker trips the heartbeat liveness timeout
// and respawns, and a job that keeps killing workers is quarantined with a
// runnable repro artifact instead of wedging the run.
//
// The test binary is its own worker: the coordinator re-execs it with
// `--fleet-worker-mode <echo|slow>` (handled in main before gtest sees
// argv), so no other binary needs to exist at test time. This file
// therefore registers with a custom main and links GTest::gtest only.
//
//===----------------------------------------------------------------------===//

#include "support/Fleet.h"
#include "support/Journal.h"
#include "support/Resume.h"
#include "support/Subprocess.h"
#include "support/Sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace nv;

namespace {

std::string tmpPath(const std::string &Name) {
  return ::testing::TempDir() + "nv_fleet_test_" + Name;
}

/// Sets an environment variable for the spawned workers (children inherit
/// the coordinator's environment) and restores emptiness on scope exit so
/// tests cannot leak hooks into each other.
struct EnvGuard {
  std::string Name;
  EnvGuard(const char *N, const std::string &V) : Name(N) {
    ::setenv(N, V.c_str(), 1);
  }
  ~EnvGuard() { ::unsetenv(Name.c_str()); }
};

/// Baseline options every test starts from: this binary as the worker,
/// tight timings (tests should take milliseconds, not the production
/// 10-second liveness window), and no stderr chatter.
FleetOptions testOptions(const char *Mode, unsigned Workers) {
  FleetOptions O;
  O.Workers = Workers;
  O.WorkerArgv = {getExecutablePath(), "--fleet-worker-mode", Mode};
  O.HeartbeatMs = 25;
  O.LivenessTimeoutMs = 5000;
  O.BackoffBaseMs = 5;
  O.BackoffCapMs = 50;
  O.PoisonThreshold = 100; // individual tests opt in to quarantine
  O.StragglerMinMs = 60000; // and to speculation
  O.QuarantineDir = ::testing::TempDir();
  O.Verbose = false;
  return O;
}

std::vector<FleetJob> makeJobs(const char *Prefix, size_t N,
                               const std::string &Spec = "") {
  std::vector<FleetJob> Jobs;
  for (size_t I = 0; I < N; ++I) {
    std::string Key = Prefix;
    Key += std::to_string(I);
    Jobs.push_back({Key, Spec});
  }
  return Jobs;
}

/// One canonical rendering of a whole fleet result — the merge identity
/// the bit-identical tests compare.
std::string renderResults(const FleetResult &FR) {
  std::string Out;
  for (const auto &[Key, Rec] : FR.Results)
    Out += Rec.render() + "\x1e";
  return Out;
}

//===----------------------------------------------------------------------===//
// Bit-identical merge
//===----------------------------------------------------------------------===//

TEST(FleetMerge, BitIdenticalAcrossWorkerCounts) {
  // The same 40 jobs at 1, 2, and 8 workers must merge to byte-identical
  // aggregates: records are pure functions of the job, and the result map
  // is keyed, so scheduling order cannot leak into the merge.
  std::vector<FleetJob> Jobs;
  for (size_t I = 0; I < 40; ++I) {
    std::string Suffix = std::to_string(I);
    Jobs.push_back({"k" + Suffix, "payload-" + Suffix});
  }

  std::string Reference;
  for (unsigned Workers : {1u, 2u, 8u}) {
    FleetResult FR = runFleet(testOptions("echo", Workers), Jobs);
    ASSERT_TRUE(FR.Outcome.ok()) << Workers << " workers: "
                                 << FR.Outcome.str();
    EXPECT_EQ(FR.Stats.JobsCompleted, 40u);
    EXPECT_EQ(FR.Results.size(), 40u);
    EXPECT_TRUE(FR.QuarantinedKeys.empty());
    std::string Rendered = renderResults(FR);
    if (Reference.empty())
      Reference = Rendered;
    else
      EXPECT_EQ(Rendered, Reference) << "merge differs at " << Workers
                                     << " workers";
  }
}

TEST(FleetMerge, ResultsFlowThroughOnResultExactlyOnce) {
  std::vector<FleetJob> Jobs = makeJobs("r", 10);
  std::mutex M;
  std::vector<std::string> Seen;
  FleetCallbacks CB;
  CB.OnResult = [&](const UnitRecord &Rec) {
    std::lock_guard<std::mutex> L(M);
    Seen.push_back(Rec.Key);
  };
  FleetResult FR = runFleet(testOptions("echo", 3), Jobs, CB);
  ASSERT_TRUE(FR.Outcome.ok()) << FR.Outcome.str();
  EXPECT_EQ(Seen.size(), 10u);
  std::sort(Seen.begin(), Seen.end());
  EXPECT_EQ(std::unique(Seen.begin(), Seen.end()), Seen.end());
}

//===----------------------------------------------------------------------===//
// Crash recovery
//===----------------------------------------------------------------------===//

TEST(FleetCrash, SigkillMidJobRequeuesAndCompletes) {
  // One worker, four 200ms jobs. SIGKILL the worker ~100ms after it
  // spawns — mid-first-job by construction — and the run must still
  // produce all four records: the in-flight job requeues, the worker
  // respawns, nothing is lost.
  std::vector<FleetJob> Jobs = makeJobs("s", 4, "200");

  std::mutex M;
  std::vector<pid_t> Pids;
  FleetCallbacks CB;
  CB.OnSpawn = [&](pid_t Pid, unsigned) {
    std::lock_guard<std::mutex> L(M);
    Pids.push_back(Pid);
  };
  std::atomic<bool> Done{false};
  std::thread Killer([&] {
    for (int I = 0; I < 2000 && !Done.load(); ++I) {
      {
        std::lock_guard<std::mutex> L(M);
        if (!Pids.empty())
          break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::lock_guard<std::mutex> L(M);
    if (!Pids.empty())
      ::kill(Pids.front(), SIGKILL);
  });

  FleetResult FR = runFleet(testOptions("slow", 1), Jobs, CB);
  Done.store(true);
  Killer.join();

  ASSERT_TRUE(FR.Outcome.ok()) << FR.Outcome.str();
  EXPECT_EQ(FR.Results.size(), 4u);
  EXPECT_TRUE(FR.QuarantinedKeys.empty());
  EXPECT_GE(FR.Stats.WorkerDeaths, 1u);
  EXPECT_GE(FR.Stats.JobsRequeued, 1u);
  EXPECT_GE(FR.Stats.Respawns, 1u);
  // The satellite contract: the last child exit reason is surfaced.
  EXPECT_EQ(FR.Stats.LastExit, "signal:" + std::to_string(SIGKILL));
}

TEST(FleetCrash, HeartbeatTimeoutRespawnsWedgedWorker) {
  // The wedge hook freezes whichever worker first picks up job "w3":
  // heartbeats stop, the handler hangs forever. The coordinator must
  // notice the silence (liveness timeout), SIGKILL the wedged worker,
  // and requeue — the latch file guarantees the respawned worker runs
  // the job normally, so the run completes with every record present.
  std::string Latch = tmpPath("wedge_latch");
  std::remove(Latch.c_str());
  EnvGuard G1("NV_FLEET_WEDGE_KEY", "w3");
  EnvGuard G2("NV_FLEET_WEDGE_ONCE_FILE", Latch);

  FleetOptions O = testOptions("echo", 2);
  O.LivenessTimeoutMs = 400;
  FleetResult FR = runFleet(O, makeJobs("w", 8));
  std::remove(Latch.c_str());

  ASSERT_TRUE(FR.Outcome.ok()) << FR.Outcome.str();
  EXPECT_EQ(FR.Results.size(), 8u);
  EXPECT_TRUE(FR.QuarantinedKeys.empty());
  EXPECT_GE(FR.Stats.HeartbeatTimeouts, 1u);
  EXPECT_GE(FR.Stats.WorkerDeaths, 1u);
  EXPECT_GE(FR.Stats.JobsRequeued, 1u);
}

//===----------------------------------------------------------------------===//
// Poison quarantine
//===----------------------------------------------------------------------===//

TEST(FleetPoison, QuarantinedAfterThresholdDeathsWithRepro) {
  EnvGuard G("NV_FLEET_POISON_KEY", "p3");

  FleetOptions O = testOptions("echo", 2);
  O.PoisonThreshold = 2;
  FleetResult FR = runFleet(O, makeJobs("p", 6));

  // The run COMPLETES: five healthy jobs plus one quarantined record.
  ASSERT_TRUE(FR.Outcome.ok()) << FR.Outcome.str();
  EXPECT_EQ(FR.Results.size(), 6u);
  ASSERT_EQ(FR.QuarantinedKeys.size(), 1u);
  EXPECT_EQ(FR.QuarantinedKeys[0], "p3");
  EXPECT_EQ(FR.Stats.Quarantined, 1u);
  EXPECT_EQ(FR.Stats.WorkerDeaths, 2u); // exactly PoisonThreshold deaths

  // The quarantined record carries the structured outcome the drivers map
  // to exit 3, plus a runnable repro script.
  const UnitRecord &Rec = FR.Results.at("p3");
  RunOutcome Outcome;
  unsigned Attempts = 1;
  ASSERT_TRUE(parseOutcome(Rec, Outcome, Attempts));
  EXPECT_EQ(Outcome.Status, RunStatus::Quarantined);
  EXPECT_EQ(Attempts, 2u);
  const std::string *Repro = Rec.get("repro");
  ASSERT_NE(Repro, nullptr);
  EXPECT_EQ(::access(Repro->c_str(), X_OK), 0) << *Repro;
  std::remove(Repro->c_str());

  // Healthy siblings are normal records, not quarantine debris.
  RunOutcome Sib;
  ASSERT_TRUE(parseOutcome(FR.Results.at("p0"), Sib, Attempts));
  EXPECT_TRUE(Sib.ok());
}

//===----------------------------------------------------------------------===//
// The unit sweep on a fleet
//===----------------------------------------------------------------------===//

/// A sweep whose units are echo jobs: unit I's spec is "payload-I", its
/// slot the echoed spec; Fold concatenates the slots in fold order.
struct EchoSweep {
  explicit EchoSweep(size_t N) : Slots(N) {
    U.Count = N;
    U.Key = [](size_t I) {
      std::string K = "f";
      return K += std::to_string(I);
    };
    U.Spec = [](size_t I) {
      std::string S = "payload-";
      return S += std::to_string(I);
    };
    U.Encode = [this](size_t I, const RunOutcome &O, unsigned Attempts) {
      UnitRecord Rec;
      Rec.Key = U.Key(I);
      addOutcome(Rec, O, Attempts);
      Rec.add("echo", Slots[I]);
      return Rec;
    };
    U.Decode = [this](size_t I, const UnitRecord &Rec, RunOutcome &O) {
      unsigned Attempts = 1;
      const std::string *Echo = Rec.get("echo");
      if (!parseOutcome(Rec, O, Attempts) || !Echo || Rec.Key == Reject)
        return false;
      Slots[I] = *Echo;
      return true;
    };
    U.Fold = [this](size_t I, const RunOutcome &O, bool Replayed) {
      Folded += std::to_string(I) + (Replayed ? "r" : "") + "=" +
                (O.ok() ? Slots[I] : runStatusName(O.Status)) + ";";
    };
  }

  SweepUnits U;
  std::vector<std::string> Slots;
  std::string Reject; ///< A key whose record does not decode.
  std::string Folded;
};

TEST(FleetSweep, RecordsFoldInUnitOrderAndJournalLikeLiveUnits) {
  std::string Path = tmpPath("sweep_journal");
  std::remove(Path.c_str());
  RunBinding B;
  B.set("tool", "fleet-tests-sweep");
  FleetOptions FO = testOptions("echo", 3);
  std::string Want;
  for (size_t I = 0; I < 12; ++I)
    Want += std::to_string(I) + "=payload-" + std::to_string(I) + ";";

  auto L = ResumeLog::open(Path, B);
  ASSERT_TRUE(L.Log) << L.Error;
  EchoSweep S(12);
  SweepOptions SO;
  SO.Fleet = &FO;
  SO.Resume = L.Log.get();
  SweepResult R = runSweep(S.U, SO);
  ASSERT_TRUE(R.Fleet.Outcome.ok()) << R.Fleet.Outcome.str();
  EXPECT_TRUE(R.Outcome.ok()) << R.Outcome.str();
  EXPECT_EQ(R.Units, 12u);
  EXPECT_EQ(R.Fleet.Stats.JobsCompleted, 12u);
  EXPECT_EQ(S.Folded, Want); // unit order, whatever the landing order
  EXPECT_EQ(L.Log->entryCount(), 12u);
  L.Log.reset();

  // Resumed: every unit replays from the journal the fleet run wrote, and
  // the fleet gets no job.
  auto L2 = ResumeLog::open(Path, B);
  ASSERT_TRUE(L2.Log) << L2.Error;
  EchoSweep S2(12);
  SO.Resume = L2.Log.get();
  SweepResult R2 = runSweep(S2.U, SO);
  EXPECT_EQ(R2.Replayed, 12u);
  EXPECT_EQ(R2.Fleet.Stats.JobsCompleted, 0u);
  std::string WantReplayed;
  for (size_t I = 0; I < 12; ++I)
    WantReplayed += std::to_string(I) + "r=payload-" + std::to_string(I) + ";";
  EXPECT_EQ(S2.Folded, WantReplayed);
  std::remove(Path.c_str());
}

TEST(FleetSweep, MissingOrMalformedRecordsFailTheFold) {
  // A record that does not decode fails its unit, not silently.
  {
    FleetOptions FO = testOptions("echo", 2);
    EchoSweep S(4);
    S.Reject = "f2";
    SweepOptions SO;
    SO.Fleet = &FO;
    SweepResult R = runSweep(S.U, SO);
    EXPECT_EQ(R.Outcome.Status, RunStatus::InternalError) << R.Outcome.str();
    EXPECT_EQ(R.Skipped, 1u);
    EXPECT_EQ(S.Folded,
              "0=payload-0;1=payload-1;2=internal-error;3=payload-3;");
  }
  // A fleet that cannot run leaves every unit without a record.
  {
    FleetOptions FO = testOptions("echo", 2);
    FO.WorkerArgv.clear();
    EchoSweep S(3);
    SweepOptions SO;
    SO.Fleet = &FO;
    SweepResult R = runSweep(S.U, SO);
    EXPECT_EQ(R.Outcome.Status, RunStatus::InternalError) << R.Outcome.str();
    EXPECT_EQ(R.Units, 3u);
    EXPECT_EQ(R.Skipped, 3u);
  }
}

} // namespace

int main(int argc, char **argv) {
  // Worker half: the coordinator re-execs this binary with the mode flag.
  // Handled before gtest so the flag never reaches InitGoogleTest.
  if (argc >= 3 && !std::strcmp(argv[1], "--fleet-worker-mode")) {
    std::string Mode = argv[2];
    return runFleetWorker([&](const FleetJob &J) {
      if (Mode == "slow")
        ::usleep(static_cast<unsigned>(std::atoi(J.Spec.c_str())) * 1000u);
      UnitRecord Rec;
      Rec.Key = J.Key;
      Rec.add("status", "ok");
      // A deterministic pure function of the job — what makes the
      // bit-identical merge assertion meaningful.
      Rec.add("echo", J.Spec);
      Rec.add("digest", fnv1a64Hex(J.Key + ":" + J.Spec));
      return Rec;
    });
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
