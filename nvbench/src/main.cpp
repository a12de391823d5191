//===- main.cpp - The nv benchmark's load generator -----------------------===//
//
// Part of the nv benchmark. Runs one workload and prints its metrics, the
// last line being one JSON object:
//
//   nvbench --workload <ft-wan|sim-allprefix|serve-session> --seed N
//           --seconds S --trace <0|1> [--nv PATH] [--work-dir DIR]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer split.
// Exit code 0 when the run completed (failed operations are reported in
// the JSON, not through the exit code), 2 on bad usage or a workload that
// could not start.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <unistd.h>

using namespace nvbench;

namespace {

/// Every per-layer metric, in print order. A traced run prints all of
/// them; the ones its workload does not reach read 0 (see README.md for
/// which workload measures which layer).
const std::vector<std::pair<const char *, const char *>> PerLayer = {
    {"core.parse_ms", "ms"},
    {"core.typecheck_ms", "ms"},
    {"transform.ft_ms", "ms"},
    {"eval.compile_ms", "ms"},
    {"eval.values_interned", "count"},
    {"sim.simulate_ms", "ms"},
    {"sim.simulate_interp_ms", "ms"},
    {"sim.simulate_native_ms", "ms"},
    {"sim.pops", "count"},
    {"sim.trans_calls", "count"},
    {"sim.merge_calls", "count"},
    {"bdd.cache_misses", "count"},
    {"bdd.cache_hit_rate", "ratio"},
    {"bdd.peak_nodes", "count"},
    {"bdd.memory_mb", "MB"},
    {"analysis.check_ms", "ms"},
    {"smt.encode_ms", "ms"},
    {"smt.solve_ms", "ms"},
    {"smt.other_ms", "ms"},
    {"smt.assertions", "count"},
    {"serve.load_ms", "ms"},
    {"serve.ping_ms", "ms"},
    {"serve.overhead_ms", "ms"},
    {"serve.ft_fresh_ms", "ms"},
    {"serve.ft_memo_ms", "ms"},
    {"serve.sim_ms", "ms"},
    {"serve.verify_ms", "ms"},
    {"serve.result_cache_hits", "count"},
    {"serve.rss_mb_per_fresh_ft", "MB"},
    {"trace.overhead_pct", "%"},
};

const std::vector<std::pair<const char *, const char *>> EndToEnd = {
    {"setup_s", "s"},
    {"query_ms_p50", "ms"},
    {"queries_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

int usage(const char *Why) {
  std::fprintf(stderr,
               "nvbench: %s\n"
               "usage: nvbench --workload <ft-wan|sim-allprefix|"
               "serve-session> --seed N --seconds S --trace <0|1>\n"
               "               [--nv PATH] [--work-dir DIR]\n",
               Why);
  return 2;
}

} // namespace

size_t nvbench::queryCount(double Seconds, double NominalMs, size_t Min) {
  return std::max(Min, static_cast<size_t>(
                           std::ceil(Seconds * 1000.0 / NominalMs - 1e-9)));
}

double nvbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double nvbench::procStatusMb(pid_t Pid, const char *Field) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  size_t Len = std::strlen(Field);
  while (std::getline(In, Line))
    if (Line.compare(0, Len, Field) == 0 && Line.size() > Len &&
        Line[Len] == ':')
      return std::strtod(Line.c_str() + Len + 1, nullptr) / 1024.0; // kB
  return 0;
}

void RunReport::op(const std::string &What, const std::string &EngineError,
                   const std::string &CheckError) {
  ++Attempted;
  if (EngineError.empty() && CheckError.empty())
    return;
  ++Failed;
  if (!CheckError.empty())
    Correct = false;
  std::fprintf(stderr, "nvbench: FAILED %s: %s\n", What.c_str(),
               (EngineError.empty() ? "wrong answer: " + CheckError
                                    : EngineError)
                   .c_str());
}

void RunReport::add(const std::string &Name, double V) { Metrics[Name] = V; }

void RunReport::print(bool Trace) const {
  std::string Json = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Attempted) +
                     ", \"failed\": " + std::to_string(Failed) +
                     ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, Unit] : Trace ? PerLayer : EndToEnd) {
    auto It = Metrics.find(Name);
    double V = It == Metrics.end() ? 0.0 : It->second;
    std::printf("metric %-26s %16.6f %s\n", Name, V, Unit);
    char Num[64];
    std::snprintf(Num, sizeof(Num), "%.17g", V);
    Json += std::string(First ? "" : ", ") + "\"" + Name +
            "\": {\"value\": " + Num + ", \"unit\": \"" + Unit + "\"}";
    First = false;
  }
  std::printf("operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  std::printf("%s}}\n", Json.c_str());
  std::fflush(stdout);
}

int main(int argc, char **argv) {
  Options O;
  std::string WorkDir = ".";
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + A).c_str());
    std::string V = argv[++I];
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
      HaveSeed = true;
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), nullptr);
      HaveSeconds = O.Seconds > 0;
    } else if (A == "--trace") {
      O.Trace = V == "1";
      HaveTrace = V == "0" || V == "1";
    } else if (A == "--nv") {
      O.NvBinary = V;
    } else if (A == "--work-dir") {
      WorkDir = V;
    } else {
      return usage(("unknown option " + A).c_str());
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--seed, --seconds (> 0) and --trace (0|1) are required");
  if (chdir(WorkDir.c_str()) != 0)
    return usage(("cannot enter work directory " + WorkDir).c_str());

  std::printf("nvbench: workload %s, seed %llu, %g s, trace %d\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0);
  RunReport R;
  if (O.Workload == "ft-wan")
    R = runFtWan(O);
  else if (O.Workload == "sim-allprefix")
    R = runSimAllPrefix(O);
  else if (O.Workload == "serve-session") {
    if (O.NvBinary.empty())
      return usage("serve-session needs --nv PATH");
    R = runServeSession(O);
  } else
    return usage(("unknown workload '" + O.Workload + "'").c_str());
  if (R.Attempted == 0) {
    std::fprintf(stderr, "nvbench: the workload could not start\n");
    return 2;
  }
  R.print(O.Trace);
  return 0;
}
