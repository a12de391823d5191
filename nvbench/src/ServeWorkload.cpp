//===- ServeWorkload.cpp - serve-session ----------------------------------===//
//
// Part of the nv benchmark. A real `nv serve` daemon with two engine
// workers, driven by two client connections. Each client owns three
// sessions (the WAN, a FAT all-prefixes network, the Fig. 2 hijack
// program) and repeats one cycle:
//
//   ft fresh on the WAN (links 1, native), the same ft again (answered from
//   the result memo), sim fresh on the FAT network, verify fresh on the
//   WAN, verify fresh on the hijack program, ping
//
// in an order the seed picks (the memo repeat always follows its fresh
// ft). The clients run their cycles in lock step: both start a cycle
// together and send the same step at the same time. Concurrent `verify`
// requests do not overlap in the daemon (two take twice as long as one),
// so free-running clients that drifted in and out of phase moved the
// cycle median by up to 25% from run to run; in lock step their heavy
// requests always meet the same way. One query is one whole cycle of one
// client: the sum of its requests' client-seen latencies. Every response
// is checked: the ft violation count against the connectivity oracle, the
// memo answer against the fresh answer's violations_hash, sim labels
// against BFS distances, and the two verify verdicts against their known
// answers.
//
// The traced run does the same set-ups and cycles; its per-layer figures
// are the client-seen latencies of those cycles, the engine times and SMT
// counters the responses report, and the daemon's `stats`. Only after the
// cycles does it send its probes (stats, extra fresh ft for memory growth).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"
#include "Oracles.h"

#include "serve/Client.h"
#include "serve/Json.h"

#include <algorithm>
#include <barrier>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <map>
#include <mutex>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

using namespace nv;
using namespace nvbench;

namespace {

/// Nominal cost of one cycle per client on the reference machine, which
/// turns --seconds into a fixed cycle count.
constexpr double CycleNominalMs = 2000;
constexpr unsigned Clients = 2;
/// `--threads 3`: the calling thread plus 2 engine workers.
constexpr unsigned DaemonThreads = 3;
constexpr unsigned ServeFatK = 12;
/// Extra fresh ft requests of a traced run, to measure memory growth.
constexpr unsigned RssProbeFts = 6;

/// A `nv serve` child process on a socket in the current directory.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { stop(); }

  bool start(const std::string &NvBinary, const std::string &Socket,
             const std::string &Log, std::string &Error) {
    SocketPath = Socket;
    posix_spawn_file_actions_t FA;
    posix_spawn_file_actions_init(&FA);
    posix_spawn_file_actions_addopen(&FA, 1, Log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&FA, 1, 2);
    std::string Threads = std::to_string(DaemonThreads);
    std::vector<char *> Argv = {const_cast<char *>(NvBinary.c_str()),
                                const_cast<char *>("serve"),
                                const_cast<char *>(Socket.c_str()),
                                const_cast<char *>("--threads"),
                                Threads.data(), nullptr};
    int Rc = posix_spawn(&Pid, NvBinary.c_str(), &FA, nullptr, Argv.data(),
                         environ);
    posix_spawn_file_actions_destroy(&FA);
    if (Rc != 0) {
      Pid = 0;
      Error = "cannot spawn " + NvBinary + ": " + std::strerror(Rc);
      return false;
    }
    // Ready once the socket answers a ping.
    Stopwatch W;
    while (W.ms() < 30000) {
      int St;
      if (waitpid(Pid, &St, WNOHANG) == Pid) {
        Pid = 0;
        Error = "daemon exited during start-up (see " + Log + ")";
        return false;
      }
      std::string Err, Resp;
      ClientOptions CO;
      CO.ConnectTimeoutMs = 1000;
      CO.ReadTimeoutMs = 5000;
      if (auto C = ServeClient::connect(SocketPath, Err, CO))
        if (C->request("{\"verb\":\"ping\"}", Resp, Err))
          return true;
      usleep(5000);
    }
    Error = "daemon did not answer within 30 s";
    return false;
  }

  pid_t pid() const { return Pid; }

  /// Asks the daemon to exit, and waits for it (killing it after 20 s).
  void stop() {
    if (!Pid)
      return;
    std::string Err, Resp;
    ClientOptions CO;
    CO.ReadTimeoutMs = 10000;
    if (auto C = ServeClient::connect(SocketPath, Err, CO))
      C->request("{\"verb\":\"shutdown\"}", Resp, Err);
    Stopwatch W;
    int St;
    while (waitpid(Pid, &St, WNOHANG) != Pid) {
      if (W.ms() > 20000) {
        kill(Pid, SIGKILL);
        waitpid(Pid, &St, 0);
        break;
      }
      usleep(5000);
    }
    Pid = 0;
  }

private:
  pid_t Pid = 0;
  std::string SocketPath;
};

/// The inputs and oracle answers every client shares.
struct SessionInputs {
  WanInput Wan;
  FatInput Fat;
  std::string Hijack;
  size_t FtLinks1Violations = 0; ///< Oracle: cut-off pairs, 1 failed link.
};

enum class Step { FtPair, Sim, VerifyWan, VerifyHijack, Ping };

/// Client-seen latencies by request kind, and the per-layer figures the
/// responses carry.
struct Latencies {
  std::map<std::string, std::vector<double>> ByKind;
  std::vector<double> OverheadMs; ///< Latency minus reported engine time.
  /// WAN verify: encode and solve time and assertion count as the daemon
  /// reports them, and the client-seen latency outside encode and solve.
  std::vector<double> SmtEncodeMs, SmtSolveMs, SmtOtherMs, SmtAssertions;
};

class Client {
public:
  Client(unsigned Index, const SessionInputs &In, RunReport &Rep,
         std::mutex &RepM)
      : Index(Index), In(In), Rep(Rep), RepM(RepM) {}

  bool connect(const std::string &Socket, std::string &Error) {
    ClientOptions CO;
    CO.ReadTimeoutMs = 60000;
    Conn = ServeClient::connect(Socket, Error, CO);
    return Conn != nullptr;
  }

  /// Loads this client's three sessions. Like cycle(), returns the sum of
  /// the requests' client-seen latencies: answer checks and lock-step
  /// waits are never timed.
  double load() {
    TimedMs = 0;
    loadOne("wan", In.Wan.Source);
    loadOne("fat", In.Fat.Source);
    loadOne("hijack", In.Hijack);
    return TimedMs;
  }

  /// One cycle in \p Order.
  double cycle(const std::vector<Step> &Order) {
    TimedMs = 0;
    for (Step S : Order)
      run(S);
    return TimedMs;
  }

  /// A fresh ft on the WAN session, checked against the oracle.
  void ftFresh() {
    Json Req = ftRequest(), Resp;
    Req.set("fresh", true);
    double Ms;
    if (!send("ft_fresh", Req, Resp, Ms))
      return;
    std::string Eng = engineError(Resp, {0, 1}), Chk;
    if (Eng.empty()) {
      size_t Want = In.FtLinks1Violations;
      uint64_t Got = static_cast<uint64_t>(Resp.getNumber("violations", -1));
      if (Resp.getNumber("scenarios", -1) != In.Wan.G.Links.size() ||
          Resp.getNumber("skipped", -1) != 0)
        Chk = "scenarios/skipped do not cover every single-link failure";
      else if (Got != Want || (Resp.getNumber("code", -1) == 1) != (Want > 0))
        Chk = "ft reports " + std::to_string(Got) + " violations, " +
              std::to_string(Want) + " nodes are cut off";
      LastHash = Resp.getString("violations_hash");
      LastViolations = Got;
      double EngineMs = Resp.getNumber("transform_ms") +
                        Resp.getNumber("simulate_ms") +
                        Resp.getNumber("check_ms");
      Lat.OverheadMs.push_back(Ms - EngineMs);
    }
    account("ft fresh", Eng, Chk);
  }

  Latencies Lat;

private:
  std::string session(const char *Kind) const {
    return std::string(Kind) + std::to_string(Index);
  }

  /// Sends one request; returns false (after accounting a failed
  /// operation) when no well-formed response arrived.
  bool send(const std::string &What, Json Req, Json &Resp, double &Ms) {
    Req.set("id", What + "-" + std::to_string(Index) + "-" +
                      std::to_string(NextId++));
    std::string Line, Err;
    Stopwatch W;
    bool Ok = Conn && Conn->request(Req.dump(), Line, Err);
    Ms = W.ms();
    TimedMs += Ms;
    if (Ok && !Json::parse(Line, Resp, Err))
      Ok = false;
    if (!Ok) {
      account(What, "transport: " + Err, "");
      return false;
    }
    Lat.ByKind[What].push_back(Ms);
    return true;
  }

  /// The daemon delivered a verdict: one of the expected response codes
  /// and no overload shed. Anything else fails the operation.
  static std::string engineError(const Json &Resp,
                                 std::initializer_list<int> Codes) {
    if (Resp.getBool("overloaded"))
      return "overloaded (shed)";
    int Code = static_cast<int>(Resp.getNumber("code", -1));
    if (std::find(Codes.begin(), Codes.end(), Code) == Codes.end())
      return "unexpected code " + std::to_string(Code) + ": " +
             Resp.getString("error", Resp.getString("outcome"));
    return "";
  }

  void account(const std::string &What, const std::string &Eng,
               const std::string &Chk) {
    std::lock_guard<std::mutex> L(RepM);
    Rep.op(What + " (client " + std::to_string(Index) + ")", Eng, Chk);
  }

  void loadOne(const char *Kind, const std::string &Src) {
    Json Req = Json::object(), Resp;
    Req.set("verb", "load");
    Req.set("session", session(Kind));
    Req.set("program", Src);
    double Ms;
    if (send("load", Req, Resp, Ms))
      account("load", engineError(Resp, {0}), "");
  }

  Json ftRequest() const {
    Json Req = Json::object();
    Req.set("verb", "ft");
    Req.set("session", session("wan"));
    Req.set("links", 1);
    Req.set("native", true);
    return Req;
  }

  void ftMemo() {
    Json Resp;
    double Ms;
    if (!send("ft_memo", ftRequest(), Resp, Ms))
      return;
    std::string Eng = engineError(Resp, {0, 1}), Chk;
    if (Eng.empty() &&
        (!Resp.getBool("cached") || LastHash.empty() ||
         Resp.getString("violations_hash") != LastHash ||
         Resp.getNumber("violations", -1) != LastViolations))
      Chk = "memo answer differs from the fresh answer";
    account("ft memo", Eng, Chk);
  }

  void sim() {
    Json Req = Json::object(), Resp;
    Req.set("verb", "sim");
    Req.set("session", session("fat"));
    Req.set("fresh", true);
    Req.set("labels", true);
    double Ms;
    if (!send("sim", Req, Resp, Ms))
      return;
    std::string Eng = engineError(Resp, {0}), Chk;
    if (Eng.empty()) {
      std::vector<std::string> Labels;
      if (const Json *L = Resp.get("labels"))
        for (const Json &E : L->items())
          Labels.push_back(E.str());
      Chk = checkPrefixLabels(In.Fat, Labels);
      Lat.OverheadMs.push_back(Ms - Resp.getNumber("simulate_ms"));
    }
    account("sim", Eng, Chk);
  }

  void verify(const char *Kind, const char *Want, int WantCode) {
    Json Req = Json::object(), Resp;
    Req.set("verb", "verify");
    Req.set("session", session(Kind));
    Req.set("fresh", true);
    double Ms;
    std::string What = std::string("verify_") + Kind;
    if (!send(What, Req, Resp, Ms))
      return;
    std::string Eng = engineError(Resp, {0, 1}), Chk;
    if (Eng.empty() && (Resp.getString("status") != Want ||
                        Resp.getNumber("code", -1) != WantCode))
      Chk = "verify returned " + Resp.getString("status") + ", expected " +
            Want;
    if (Eng.empty() && std::string(Kind) == "wan") {
      double Enc = Resp.getNumber("encode_ms"),
             Solve = Resp.getNumber("solve_ms");
      Lat.SmtEncodeMs.push_back(Enc);
      Lat.SmtSolveMs.push_back(Solve);
      Lat.SmtOtherMs.push_back(Ms - Enc - Solve);
      Lat.SmtAssertions.push_back(Resp.getNumber("assertions"));
    }
    account(What, Eng, Chk);
  }

  void run(Step S) {
    switch (S) {
    case Step::FtPair:
      ftFresh();
      ftMemo();
      return;
    case Step::Sim:
      sim();
      return;
    case Step::VerifyWan:
      verify("wan", "verified", 0);
      return;
    case Step::VerifyHijack:
      verify("hijack", "falsified", 1);
      return;
    case Step::Ping: {
      Json Req = Json::object(), Resp;
      Req.set("verb", "ping");
      double Ms;
      if (send("ping", Req, Resp, Ms))
        account("ping", engineError(Resp, {0}), "");
      return;
    }
    }
  }

  unsigned Index;
  const SessionInputs &In;
  RunReport &Rep;
  std::mutex &RepM;
  std::unique_ptr<ServeClient> Conn;
  uint64_t NextId = 0;
  double TimedMs = 0; ///< Client-seen latency since load()/cycle() began.
  std::string LastHash;
  uint64_t LastViolations = 0;
};

/// Runs \p Fn(client) on every client, one thread each, and waits. An
/// exception in a client thread is reported and fails one operation.
template <typename FnTy>
void onEachClient(std::vector<std::unique_ptr<Client>> &Cs, RunReport &Rep,
                  std::mutex &RepM, FnTy &&Fn) {
  std::vector<std::thread> Ts;
  for (auto &C : Cs)
    Ts.emplace_back([&, Ptr = C.get()] {
      try {
        Fn(*Ptr);
      } catch (const std::exception &E) {
        std::lock_guard<std::mutex> L(RepM);
        Rep.op("client thread", std::string("exception: ") + E.what());
      }
    });
  for (std::thread &T : Ts)
    T.join();
}

} // namespace

RunReport nvbench::runServeSession(const Options &O) {
  RunReport Rep;
  std::mutex RepM;
  std::string Dir = "serve-" + std::to_string(getpid());
  std::string Socket = Dir + "/nv.sock", Log = Dir + "/daemon.log";
  if (mkdir(Dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "nvbench: cannot create %s\n", Dir.c_str());
    return Rep;
  }

  // The cycle order: the seed shuffles the steps.
  std::vector<Step> Order = {Step::FtPair, Step::Sim, Step::VerifyWan,
                             Step::VerifyHijack, Step::Ping};
  Rng R(O.Seed * 0x9E3779B97F4A7C15ull + 0x535256);
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[R.below(static_cast<uint32_t>(I))]);

  SessionInputs In;
  std::unique_ptr<Daemon> D;
  std::vector<std::unique_ptr<Client>> Cs;
  std::vector<double> SetupMs, LoadMs;
  // Set-up: generate the inputs, start the daemon, wait until it answers,
  // load every client's sessions and run one cold cycle per client. It
  // takes the generation and start-up time plus the slower client's loads
  // and cold cycle. The last set-up's daemon serves the measured cycles.
  for (unsigned S = 0; S < SetupRepeats; ++S) {
    Cs.clear();
    D.reset();
    Stopwatch W;
    In.Wan = makeWan(O.Seed);
    In.Fat = makeFatAllPrefixes(ServeFatK, O.Seed);
    In.Hijack = hijackSource();
    double GenMs = W.ms();
    if (S == 0) { // the oracle is not part of set-up
      In.FtLinks1Violations = cutOffUnderFailures(In.Wan.G, 0, 1).size();
      std::printf("serve-session: WAN %u nodes, FAT(%u) %u nodes, %zu "
                  "single-link cut-off pairs expected\n",
                  In.Wan.G.NumNodes, ServeFatK, In.Fat.G.NumNodes,
                  In.FtLinks1Violations);
      W.restart();
    }
    std::string Error;
    D = std::make_unique<Daemon>();
    bool Up = D->start(O.NvBinary, Socket, Log, Error);
    for (unsigned C = 0; Up && C < Clients; ++C) {
      Cs.push_back(std::make_unique<Client>(C, In, Rep, RepM));
      Up = Cs.back()->connect(Socket, Error);
    }
    if (!Up) {
      std::fprintf(stderr, "nvbench: serve-session: %s\n", Error.c_str());
      Cs.clear();
      D.reset();
      unlink(Log.c_str());
      rmdir(Dir.c_str());
      Rep.Attempted = 0;
      return Rep;
    }
    double StartMs = W.ms(), SlowestLoad = 0, SlowestCold = 0;
    std::barrier Sync(Clients);
    onEachClient(Cs, Rep, RepM, [&](Client &C) {
      double Load = 0;
      try {
        Load = C.load();
      } catch (...) {
        Sync.arrive_and_drop(); // never leave the other client waiting
        throw;
      }
      Sync.arrive_and_wait();
      double Cold = C.cycle(Order);
      std::lock_guard<std::mutex> L(RepM);
      LoadMs.push_back(Load);
      SlowestLoad = std::max(SlowestLoad, Load);
      SlowestCold = std::max(SlowestCold, Cold);
    });
    SetupMs.push_back((S == 0 ? GenMs : 0) + StartMs + SlowestLoad +
                      SlowestCold);
  }

  // Measured cycles: a fixed count per client, in lock step. The wall
  // time runs from the start of the client threads to the last join.
  size_t N = queryCount(O.Seconds, CycleNominalMs);
  std::vector<double> CycleMs;
  for (auto &C : Cs)
    C->Lat = Latencies();
  std::barrier Sync(Clients);
  Stopwatch Wall;
  onEachClient(Cs, Rep, RepM, [&](Client &C) {
    std::vector<double> Mine;
    try {
      for (size_t I = 0; I < N; ++I) {
        Sync.arrive_and_wait();
        Mine.push_back(C.cycle(Order));
      }
    } catch (...) {
      Sync.arrive_and_drop(); // never leave the other client waiting
      throw;
    }
    std::lock_guard<std::mutex> L(RepM);
    CycleMs.insert(CycleMs.end(), Mine.begin(), Mine.end());
  });
  double WallS = Wall.ms() / 1000.0;
  std::printf("  %zu cycles per client, median %.1f ms\n", N,
              median(CycleMs));

  if (!O.Trace) {
    Rep.add("setup_s", median(SetupMs) / 1000.0);
    Rep.add("query_ms_p50", median(CycleMs));
    Rep.add("queries_per_s", Clients * N / WallS);
    Rep.add("peak_rss_mb", procStatusMb(D->pid(), "VmHWM"));
  } else {
    Latencies All;
    auto Append = [](std::vector<double> &To, const std::vector<double> &V) {
      To.insert(To.end(), V.begin(), V.end());
    };
    for (auto &C : Cs) {
      for (auto &[K, V] : C->Lat.ByKind)
        Append(All.ByKind[K], V);
      Append(All.OverheadMs, C->Lat.OverheadMs);
      Append(All.SmtEncodeMs, C->Lat.SmtEncodeMs);
      Append(All.SmtSolveMs, C->Lat.SmtSolveMs);
      Append(All.SmtOtherMs, C->Lat.SmtOtherMs);
      Append(All.SmtAssertions, C->Lat.SmtAssertions);
    }
    Rep.add("serve.load_ms", median(LoadMs));
    Rep.add("serve.ping_ms", median(All.ByKind["ping"]));
    Rep.add("serve.overhead_ms", median(All.OverheadMs));
    Rep.add("serve.ft_fresh_ms", median(All.ByKind["ft_fresh"]));
    Rep.add("serve.ft_memo_ms", median(All.ByKind["ft_memo"]));
    Rep.add("serve.sim_ms", median(All.ByKind["sim"]));
    Rep.add("serve.verify_ms", median(All.ByKind["verify_wan"]));
    Rep.add("smt.encode_ms", median(All.SmtEncodeMs));
    Rep.add("smt.solve_ms", median(All.SmtSolveMs));
    Rep.add("smt.other_ms", median(All.SmtOtherMs));
    Rep.add("smt.assertions", median(All.SmtAssertions));

    // Result-memo hits so far, from the daemon's own stats.
    std::string Err, Line;
    Json Stats;
    auto C = ServeClient::connect(Socket, Err);
    if (C && C->request("{\"verb\":\"stats\"}", Line, Err) &&
        Json::parse(Line, Stats, Err))
      if (const Json *RC = Stats.get("result_cache"))
        Rep.add("serve.result_cache_hits", RC->getNumber("hits"));

    // Memory growth of a reused session per fresh ft.
    double Rss0 = procStatusMb(D->pid(), "VmRSS");
    for (unsigned I = 0; I < RssProbeFts; ++I)
      Cs[0]->ftFresh();
    Rep.add("serve.rss_mb_per_fresh_ft",
            (procStatusMb(D->pid(), "VmRSS") - Rss0) / RssProbeFts);
    // trace.overhead_pct is not measured here: the traced cycles are the
    // untraced ones, and the probes run after them.
  }

  Cs.clear();
  D.reset();
  if (Rep.Failed == 0) // keep the daemon's log when something failed
    unlink(Log.c_str());
  rmdir(Dir.c_str());
  return Rep;
}
