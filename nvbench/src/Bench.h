//===- Bench.h - Shared plumbing of the nv benchmark ------------*- C++ -*-===//
//
// Part of the nv benchmark: run options, the per-run report (operation
// accounting plus named metrics), and the few measurements every workload
// shares (timing, medians, peak RSS).
//
//===----------------------------------------------------------------------===//

#ifndef NVBENCH_BENCH_H
#define NVBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

namespace nvbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// The `nv` binary the serve-session workload runs as its daemon.
  std::string NvBinary;
};

/// Setup is repeated this many times per run; setup_s is the median.
constexpr unsigned SetupRepeats = 3;

/// The fixed number of steady queries of a run: enough to fill \p Seconds
/// at the workload's nominal per-query cost, at least \p Min. A run's work
/// depends only on its options, never on how fast the machine is, so
/// memory growth and failure shares repeat exactly from run to run.
size_t queryCount(double Seconds, double NominalMs, size_t Min = 3);

/// One run's outcome: every operation attempted, the ones that failed,
/// whether every answer checked, and the metrics to print.
struct RunReport {
  uint64_t Attempted = 0, Failed = 0;
  bool Correct = true;
  std::map<std::string, double> Metrics;

  /// Accounts one operation. \p EngineError is set when the engine or
  /// daemon did not deliver a verdict (non-ok outcome, unexpected code,
  /// overloaded shed); \p CheckError when the verdict disagrees with the
  /// benchmark's own answer. Either fails the operation; a wrong answer
  /// also makes the run incorrect. Both are reported on stderr.
  void op(const std::string &What, const std::string &EngineError,
          const std::string &CheckError = "");

  /// Records metric \p Name; its unit comes from the benchmark's metric
  /// tables (main.cpp).
  void add(const std::string &Name, double V);

  /// Prints every metric on its own line, then the final JSON line. In
  /// trace mode every per-layer metric is printed; the ones this workload
  /// does not reach read 0.
  void print(bool Trace) const;
};

double median(std::vector<double> V);

/// Wall-clock timing for the benchmark's own spans (kept here rather than
/// borrowed from the library, so engine refactors never touch the clock).
class Stopwatch {
public:
  Stopwatch() : Start(Clock::now()) {}
  double ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - Start)
        .count();
  }
  void restart() { Start = Clock::now(); }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

/// A /proc/<pid>/status field in MB ("VmHWM", "VmRSS"); 0 when unreadable.
double procStatusMb(pid_t Pid, const char *Field);

/// The workloads. Each reports its end-to-end metrics, or with
/// Options::Trace its per-layer split.
RunReport runFtWan(const Options &O);
RunReport runSimAllPrefix(const Options &O);
RunReport runServeSession(const Options &O);

} // namespace nvbench

#endif // NVBENCH_BENCH_H
