//===- FaultTolerance.cpp - Fig. 5 fault-tolerance meta-protocol ------------===//

#include "analysis/FaultTolerance.h"

#include "core/Parser.h"
#include "core/Printer.h"
#include "core/TypeChecker.h"
#include "eval/Compile.h"
#include "support/Journal.h"
#include "support/Timer.h"
#include "transform/Transforms.h"

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>

using namespace nv;

namespace {

/// NV source of the scenario key type.
std::string keyTypeSource(const FtOptions &Opts) {
  unsigned Components = Opts.LinkFailures + (Opts.NodeFailure ? 1 : 0);
  if (Components == 1 && !Opts.NodeFailure)
    return "edge";
  std::string S = "(";
  bool First = true;
  if (Opts.NodeFailure) {
    S += "node";
    First = false;
  }
  for (unsigned I = 0; I < Opts.LinkFailures; ++I) {
    if (!First)
      S += ", ";
    S += "edge";
    First = false;
  }
  return S + ")";
}

/// Destructures `key` into named components; returns the binder prelude
/// ("let (n, k0, k1) = key in ") and the component names.
std::string keyBinders(const FtOptions &Opts, std::string &NodeName,
                       std::vector<std::string> &LinkNames) {
  NodeName.clear();
  LinkNames.clear();
  for (unsigned I = 0; I < Opts.LinkFailures; ++I)
    LinkNames.push_back("__k" + std::to_string(I));
  if (!Opts.NodeFailure && Opts.LinkFailures == 1) {
    LinkNames[0] = "key";
    return "";
  }
  std::string Binder = "let (";
  bool First = true;
  if (Opts.NodeFailure) {
    NodeName = "__fn";
    Binder += NodeName;
    First = false;
  }
  for (const std::string &L : LinkNames) {
    if (!First)
      Binder += ", ";
    Binder += L;
    First = false;
  }
  return Binder + ") = key in ";
}

} // namespace

std::optional<Program> nv::makeFaultTolerantProgram(const Program &P,
                                                    const FtOptions &Opts,
                                                    DiagnosticEngine &Diags) {
  if (!P.AttrType) {
    Diags.error({}, "fault-tolerance transform requires a type-checked "
                    "program (missing attribute type)");
    return std::nullopt;
  }
  if (Opts.LinkFailures == 0 && !Opts.NodeFailure) {
    Diags.error({}, "fault-tolerance transform needs at least one failure");
    return std::nullopt;
  }

  Program Base = renameSemanticDecls(P);
  std::string Src = printProgram(Base);

  std::string K = keyTypeSource(Opts);
  std::string A = typeToString(P.AttrType);
  std::string Drop = Opts.DropValueSource;

  std::string NodeName;
  std::vector<std::string> LinkNames;
  std::string Binders = keyBinders(Opts, NodeName, LinkNames);

  // Does scenario `key` fail the (undirected) link of directed edge e?
  Src += "\nlet __ft_match (f : edge) (e : edge) =\n"
         "  let (fa, fb) = f in\n"
         "  let (ea, eb) = e in\n"
         "  (fa = ea && fb = eb) || (fa = eb && fb = ea)\n";

  // Predicate over keys: scenario affects edge e (failed link, or failed
  // node adjacent to e).
  Src += "\nlet __ft_affects (key : " + K + ") (e : edge) =\n  " + Binders;
  {
    std::string Cond;
    for (const std::string &L : LinkNames) {
      if (!Cond.empty())
        Cond += " || ";
      Cond += "__ft_match " + L + " e";
    }
    if (!NodeName.empty()) {
      if (!Cond.empty())
        Cond += " || ";
      Cond += "(let (eu, ev) = e in " + NodeName + " = eu || " + NodeName +
              " = ev)";
    }
    Src += Cond + "\n";
  }

  // init: one copy of the base route per scenario; with node failures the
  // failed node originates nothing.
  if (NodeName.empty()) {
    Src += "\nlet init (u : node) : dict[" + K + ", " + A +
           "] = createDict (__base_init u)\n";
  } else {
    Src += "\nlet init (u : node) : dict[" + K + ", " + A + "] =\n"
           "  mapIte (fun (key : " + K + ") -> " + Binders + NodeName +
           " = u)\n"
           "         (fun (v : " + A + ") -> " + Drop + ")\n"
           "         (fun (v : " + A + ") -> v)\n"
           "         (createDict (__base_init u))\n";
  }

  // trans: Fig. 5's transFail, generalized to multi-failure keys.
  Src += "\nlet trans (e : edge) (x : dict[" + K + ", " + A + "]) =\n"
         "  mapIte (fun (key : " + K + ") -> __ft_affects key e)\n"
         "         (fun (v : " + A + ") -> " + Drop + ")\n"
         "         (fun (v : " + A + ") -> __base_trans e v)\n"
         "         x\n";

  // merge: Fig. 5's mergeFail.
  Src += "\nlet merge (u : node) (x : dict[" + K + ", " + A +
         "]) (y : dict[" + K + ", " + A + "]) =\n"
         "  combine (__base_merge u) x y\n";

  auto Out = parseProgram(Src, Diags);
  if (!Out) {
    Diags.error({}, "internal: generated fault-tolerance program failed to "
                    "parse");
    return std::nullopt;
  }
  if (!typeCheck(*Out, Diags))
    return std::nullopt;
  return Out;
}

std::string FtViolation::routeStr() const {
  return Route ? Route->str() : RouteText;
}

void nv::addViolationField(UnitRecord &R, size_t ScenarioIdx,
                           const FtViolation &V) {
  std::string Text = V.routeStr();
  // Journal records are line-based; route renderings are single-line today,
  // and this keeps the record well-formed if one ever is not.
  for (char &C : Text)
    if (C == '\n')
      C = ' ';
  R.add("v", std::to_string(ScenarioIdx) + " " + std::to_string(V.Node) + " " +
                 Text);
}

bool nv::parseViolationFields(const UnitRecord &R,
                              const std::vector<FtScenario> &Scenarios,
                              std::vector<std::pair<size_t, FtViolation>> &Out) {
  for (const std::string &V : R.all("v")) {
    size_t Sp1 = V.find(' ');
    if (Sp1 == std::string::npos)
      return false;
    size_t Sp2 = V.find(' ', Sp1 + 1);
    if (Sp2 == std::string::npos)
      return false;
    char *End = nullptr;
    unsigned long long Idx = std::strtoull(V.c_str(), &End, 10);
    unsigned long long Node = std::strtoull(V.c_str() + Sp1 + 1, &End, 10);
    if (Idx >= Scenarios.size())
      return false;
    FtViolation Viol;
    Viol.Scenario = Scenarios[Idx];
    Viol.Node = uint32_t(Node);
    Viol.Route = nullptr;
    Viol.RouteText = V.substr(Sp2 + 1);
    Out.emplace_back(size_t(Idx), std::move(Viol));
  }
  return true;
}

std::string FtScenario::str() const {
  std::string S = "{";
  if (Node)
    S += "node " + std::to_string(*Node) + (Links.empty() ? "" : "; ");
  for (size_t I = 0; I < Links.size(); ++I) {
    if (I)
      S += "; ";
    S += "link " + std::to_string(Links[I].first) + "-" +
         std::to_string(Links[I].second);
  }
  return S + "}";
}

std::vector<FtScenario> nv::enumerateScenarios(const Program &P,
                                               const FtOptions &Opts) {
  auto Links = P.links();
  std::vector<FtScenario> Out;

  // Combinations of links with repetition (repetition = fewer failures).
  std::vector<std::vector<size_t>> LinkCombos;
  std::vector<size_t> Cur(Opts.LinkFailures, 0);
  std::function<void(unsigned, size_t)> Rec = [&](unsigned Pos, size_t From) {
    if (Pos == Opts.LinkFailures) {
      LinkCombos.push_back(Cur);
      return;
    }
    for (size_t I = From; I < Links.size(); ++I) {
      Cur[Pos] = I;
      Rec(Pos + 1, I);
    }
  };
  if (Opts.LinkFailures == 0)
    LinkCombos.push_back({});
  else
    Rec(0, 0);

  uint32_t N = P.numNodes();
  if (Opts.NodeFailure) {
    for (uint32_t U = 0; U < N; ++U)
      for (const auto &Combo : LinkCombos) {
        FtScenario S;
        S.Node = U;
        for (size_t I : Combo)
          S.Links.push_back(Links[I]);
        Out.push_back(std::move(S));
      }
  } else {
    for (const auto &Combo : LinkCombos) {
      FtScenario S;
      for (size_t I : Combo)
        S.Links.push_back(Links[I]);
      Out.push_back(std::move(S));
    }
  }
  return Out;
}

const Value *nv::scenarioKey(NvContext &Ctx, const FtScenario &S,
                             const FtOptions &Opts) {
  std::vector<const Value *> Parts;
  if (Opts.NodeFailure)
    Parts.push_back(Ctx.nodeV(S.Node.value_or(0)));
  for (const auto &[U, V] : S.Links)
    Parts.push_back(Ctx.edgeV(U, V));
  if (Parts.size() == 1)
    return Parts[0];
  return Ctx.tupleV(std::move(Parts));
}

//===----------------------------------------------------------------------===//
// FtChecker
//===----------------------------------------------------------------------===//

namespace {

/// One node's label diagram compiled to the region of the key space where
/// the node's assert fails. Only diagram nodes with a path to a failing
/// leaf are kept; a child >= 0 indexes Nodes, Pass marks "the assert
/// holds", and failRef(K) marks "fails with route Failing[K]". The DAG
/// holds no MTBDD Refs, so a collection that compacts the node store
/// cannot invalidate it.
struct FailDag {
  struct Node {
    uint32_t Var;     ///< Key bit tested (the diagram's variable).
    int32_t Child[2]; ///< Child[B]: the subtree when the bit is B.
  };
  static constexpr int32_t Pass = -1;
  static int32_t failRef(size_t K) { return -2 - static_cast<int32_t>(K); }

  std::vector<Node> Nodes;
  std::vector<const Value *> Failing; ///< Route leaves whose assert fails.
  int32_t Root = Pass;

  /// The failing route under the key \p Key (bit-packed, diagram order),
  /// or null when the assert holds.
  const Value *lookup(const uint64_t *Key) const {
    int32_t R = Root;
    while (R >= 0) {
      const Node &N = Nodes[R];
      R = N.Child[(Key[N.Var >> 6] >> (N.Var & 63)) & 1];
    }
    return R == Pass ? nullptr : Failing[-2 - R];
  }
};

/// Compiles label diagrams into FailDags: one memoized walk per label,
/// evaluating the assert once per (node, distinct leaf) in first-visit
/// order (Lo before Hi).
class FailDagBuilder {
public:
  FailDagBuilder(const BddManager &Mgr, ProtocolEvaluator &BaseEval)
      : Mgr(Mgr), BaseEval(BaseEval), Memo(Mgr.numNodes(), Unvisited) {}

  FailDag build(uint32_t U, BddManager::Ref Root) {
    this->U = U;
    Out = FailDag();
    Out.Root = compile(Root);
    for (BddManager::Ref R : Touched)
      Memo[R] = Unvisited;
    Touched.clear();
    return std::move(Out);
  }

private:
  static constexpr int32_t Unvisited = INT32_MIN;

  int32_t compile(BddManager::Ref R) {
    if (Memo[R] != Unvisited)
      return Memo[R];
    int32_t Result;
    if (Mgr.isLeaf(R)) {
      const auto *Route = static_cast<const Value *>(Mgr.leafPayload(R));
      if (BaseEval.assertAt(U, Route)) {
        Result = FailDag::Pass;
      } else {
        Result = FailDag::failRef(Out.Failing.size());
        Out.Failing.push_back(Route);
      }
    } else {
      // By value: the assert may allocate MTBDD nodes, growing the store.
      const BddManager::Node N = Mgr.node(R);
      int32_t Lo = compile(N.Lo);
      int32_t Hi = compile(N.Hi);
      if (Lo == Hi) {
        Result = Lo;
      } else {
        Result = static_cast<int32_t>(Out.Nodes.size());
        Out.Nodes.push_back({N.Var, {Lo, Hi}});
      }
    }
    Memo[R] = Result;
    Touched.push_back(R);
    return Result;
  }

  const BddManager &Mgr;
  ProtocolEvaluator &BaseEval;
  /// Per-Ref result of the current label's walk. Sized to the store at
  /// construction: label diagrams only reach nodes that existed then.
  std::vector<int32_t> Memo;
  std::vector<BddManager::Ref> Touched;
  uint32_t U = 0;
  FailDag Out;
};

} // namespace

struct FtChecker::ImplTy {
  FtOptions Opts;
  uint32_t N;
  std::vector<FtScenario> Scenarios;
  FtChunks Chunks;
  std::vector<FailDag> Dags; ///< One per node.
  /// Scenario I's key bit B is bit B % 64 of KeyWords[I * KeyStride + B / 64].
  std::vector<uint64_t> KeyWords;
  size_t KeyStride = 0;
  unsigned KeyWidth = 0;

  ImplTy(NvContext &Ctx, const Program &BaseProgram,
         ProtocolEvaluator &BaseEval, const SimResult &Meta,
         const FtOptions &Opts)
      : Opts(Opts), N(BaseProgram.numNodes()),
        Scenarios(enumerateScenarios(BaseProgram, Opts)),
        Chunks(Scenarios.size(), Opts.CheckChunkSize) {
    if (Scenarios.empty())
      return; // nothing to check: skip the assert evaluations

    // Serial: the assert runs once per (node, distinct leaf) — far fewer
    // evaluations than once per (node, scenario), since MTBDD sharing
    // keeps the number of distinct routes per node tiny (Fig. 4). This is
    // also what makes the sharded phase safe: the interpreter, the value
    // arena and the manager are only touched here.
    FailDagBuilder Builder(Ctx.Mgr, BaseEval);
    Dags.reserve(N);
    for (uint32_t U = 0; U < N; ++U) {
      const Value *L = Meta.Labels[U];
      assert(L->K == Value::Kind::Map && "meta-labels must be dicts");
      Dags.push_back(Builder.build(U, L->MapRoot));
    }
    encodeKeys(Ctx, BaseProgram, Meta.Labels[0]->KeyType);
  }

  /// Bit-packs every scenario's key: the concatenation of its components'
  /// encodings (failed node first), each component encoded once.
  void encodeKeys(NvContext &Ctx, const Program &BaseProgram,
                  const TypePtr &RawKeyTy) {
    TypePtr KeyTy = resolve(RawKeyTy);
    auto ComponentTy = [&](size_t J) {
      return KeyTy->Kind == TypeKind::Tuple ? KeyTy->Elems[J] : KeyTy;
    };
    std::vector<std::vector<bool>> NodeSlices;
    if (Opts.NodeFailure) {
      NodeSlices.resize(N);
      for (uint32_t U = 0; U < N; ++U)
        Ctx.encodeValue(Ctx.nodeV(U), ComponentTy(0), NodeSlices[U]);
    }
    std::map<std::pair<uint32_t, uint32_t>, std::vector<bool>> LinkSlices;
    if (Opts.LinkFailures > 0) {
      TypePtr EdgeTy = ComponentTy(Opts.NodeFailure ? 1 : 0);
      for (const auto &[U, V] : BaseProgram.links())
        Ctx.encodeValue(Ctx.edgeV(U, V), EdgeTy, LinkSlices[{U, V}]);
    }

    KeyWidth = Ctx.Layout.widthOf(KeyTy);
    KeyStride = (KeyWidth + 63) / 64;
    KeyWords.assign(Scenarios.size() * KeyStride, 0);
    for (size_t I = 0; I < Scenarios.size(); ++I) {
      uint64_t *Key = &KeyWords[I * KeyStride];
      unsigned Pos = 0;
      auto Append = [&](const std::vector<bool> &Slice) {
        for (bool B : Slice) {
          if (B)
            Key[Pos >> 6] |= uint64_t(1) << (Pos & 63);
          ++Pos;
        }
      };
      const FtScenario &S = Scenarios[I];
      if (Opts.NodeFailure)
        Append(NodeSlices[S.Node.value_or(0)]);
      for (const auto &Link : S.Links)
        Append(LinkSlices.at(Link));
      assert(Pos == KeyWidth && "scenario key width mismatch");
    }
  }
};

std::string nv::violationsHash(const std::vector<FtViolation> &Vs) {
  std::string Blob;
  for (const FtViolation &V : Vs)
    Blob += V.Scenario.str() + "@" + std::to_string(V.Node) + "=" +
            V.routeStr() + "\n";
  return fnv1a64Hex(Blob);
}

FtChecker::FtChecker(NvContext &Ctx, const Program &BaseProgram,
                     ProtocolEvaluator &BaseEval, const SimResult &MetaResult,
                     const FtOptions &Opts)
    : Impl(std::make_unique<ImplTy>(Ctx, BaseProgram, BaseEval, MetaResult,
                                    Opts)) {}

FtChecker::~FtChecker() = default;

const FtChunks &FtChecker::chunks() const { return Impl->Chunks; }

std::vector<bool> FtChecker::keyBits(size_t I) const {
  std::vector<bool> Bits(Impl->KeyWidth);
  const uint64_t *Key = &Impl->KeyWords[I * Impl->KeyStride];
  for (unsigned B = 0; B < Impl->KeyWidth; ++B)
    Bits[B] = (Key[B >> 6] >> (B & 63)) & 1;
  return Bits;
}

std::vector<std::vector<FtViolation>>
FtChecker::checkSlots(size_t C, ThreadPool *Pool) const {
  // One slot per scenario, concatenated in scenario order by the callers,
  // so the result is identical for any pool size and shard interleaving.
  size_t Begin = Impl->Chunks.begin(C);
  std::vector<std::vector<FtViolation>> Slots(Impl->Chunks.size(C));
  auto Check = [&](size_t I) {
    const FtScenario &S = Impl->Scenarios[Begin + I];
    const uint64_t *Key = &Impl->KeyWords[(Begin + I) * Impl->KeyStride];
    for (uint32_t U = 0; U < Impl->N; ++U)
      if (!S.Node || *S.Node != U) // a failed node asserts nothing
        if (const Value *Route = Impl->Dags[U].lookup(Key))
          Slots[I].push_back({S, U, Route, {}});
  };
  if (Pool && Pool->numThreads() > 1)
    Pool->parallelFor(Slots.size(), Check);
  else
    for (size_t I = 0; I < Slots.size(); ++I)
      Check(I);
  return Slots;
}

namespace {

/// A chunk's violations, one list per scenario of the chunk.
using ChunkSlots = std::vector<std::vector<FtViolation>>;

/// A chunk's canonical record: "status=ok" (or the outcome of a chunk the
/// fleet quarantined) and one "v" field per violation in scenario order.
UnitRecord makeChunkRecord(const FtChunks &Chunks, size_t C,
                           const RunOutcome &O, unsigned Attempts,
                           const ChunkSlots &Slots) {
  UnitRecord Rec;
  Rec.Key = FtChunks::key(C);
  if (O.ok())
    Rec.add("status", "ok");
  else
    addOutcome(Rec, O, Attempts);
  for (size_t I = 0; I < Slots.size(); ++I)
    for (const FtViolation &V : Slots[I])
      addViolationField(Rec, Chunks.begin(C) + I, V);
  return Rec;
}

/// Restores chunk \p C from a journaled or fleet record; false, on a
/// malformed record.
bool decodeChunkRecord(const UnitRecord &Rec,
                       const std::vector<FtScenario> &Scenarios,
                       const FtChunks &Chunks, size_t C, RunOutcome &O,
                       ChunkSlots &Slots) {
  unsigned Attempts = 1;
  std::vector<std::pair<size_t, FtViolation>> Vs;
  if (!parseOutcome(Rec, O, Attempts) ||
      (O.ok() && !parseViolationFields(Rec, Scenarios, Vs)))
    return false;
  ChunkSlots Out(Chunks.size(C));
  for (auto &[I, V] : Vs) {
    if (I < Chunks.begin(C) || I >= Chunks.end(C))
      return false;
    Out[I - Chunks.begin(C)].push_back(std::move(V));
  }
  Slots = std::move(Out);
  return true;
}

/// The assert check as a sweep: unit C is chunk C, keyed "c<C>", its slot
/// the chunk's violations, folded in chunk order. The in-process check
/// (\p Check fills a chunk's slot) and the fleet coordinator differ only
/// in who fills the slots. A non-ok chunk (quarantined, or canceled before
/// it started) counts its scenarios as skipped and adds no violations.
FtCheckResult sweepChunks(const std::vector<FtScenario> &Scenarios,
                          const FtChunks &Chunks, const FtOptions &Opts,
                          const std::function<ChunkSlots(size_t)> &Check,
                          const FleetOptions *Fleet = nullptr,
                          FleetResult *FleetOut = nullptr) {
  std::vector<ChunkSlots> Slots(Chunks.count());
  FtCheckResult R;
  SweepUnits U;
  U.Count = Chunks.count();
  U.Key = FtChunks::key;
  U.Worker = [&](unsigned) -> SweepRunner {
    return [&](size_t C, const RunBudget &) {
      Slots[C] = Check(C);
      return RunOutcome();
    };
  };
  U.Encode = [&](size_t C, const RunOutcome &O, unsigned Attempts) {
    return makeChunkRecord(Chunks, C, O, Attempts, Slots[C]);
  };
  U.Decode = [&](size_t C, const UnitRecord &Rec, RunOutcome &O) {
    return decodeChunkRecord(Rec, Scenarios, Chunks, C, O, Slots[C]);
  };
  U.Fold = [&](size_t C, const RunOutcome &O, bool Replayed) {
    size_t Size = Chunks.size(C);
    R.ScenariosChecked += Size;
    if (Replayed)
      R.ScenariosReplayed += Size;
    if (!O.ok())
      R.ScenariosSkipped += Size;
    for (auto &Slot : Slots[C])
      for (FtViolation &V : Slot)
        R.Violations.push_back(std::move(V));
    ChunkSlots().swap(Slots[C]);
  };
  // The chunks run inside the analysis' own governor scope, so only the
  // cancel token matters here.
  SweepResult S = runSweep(U, {.Budget = {.Cancel = Opts.Budget.Cancel},
                               .Retry = {},
                               .Resume = Opts.Resume,
                               .Fleet = Fleet});
  R.Outcome = S.Outcome;
  if (FleetOut)
    *FleetOut = std::move(S.Fleet);
  return R;
}

} // namespace

UnitRecord FtChecker::checkChunk(size_t C, ThreadPool *Pool) {
  return makeChunkRecord(Impl->Chunks, C, {}, 1, checkSlots(C, Pool));
}

FtCheckResult FtChecker::check(ThreadPool *Pool) {
  return sweepChunks(Impl->Scenarios, Impl->Chunks, Impl->Opts,
                     [&](size_t C) { return checkSlots(C, Pool); });
}

FtCheckResult nv::checkFaultToleranceOnFleet(const Program &BaseProgram,
                                             const FtOptions &Opts,
                                             const FleetOptions &Fleet,
                                             FleetResult &FleetOut) {
  std::vector<FtScenario> Scenarios = enumerateScenarios(BaseProgram, Opts);
  FtChunks Chunks(Scenarios.size(), Opts.CheckChunkSize);
  return sweepChunks(Scenarios, Chunks, Opts, nullptr, &Fleet, &FleetOut);
}

FtCheckResult nv::checkFaultTolerance(NvContext &Ctx,
                                      const Program &BaseProgram,
                                      ProtocolEvaluator &BaseEval,
                                      const SimResult &MetaResult,
                                      const FtOptions &Opts,
                                      ThreadPool *Pool) {
  return FtChecker(Ctx, BaseProgram, BaseEval, MetaResult, Opts).check(Pool);
}

//===----------------------------------------------------------------------===//
// FtAnalysis
//===----------------------------------------------------------------------===//

FtAnalysis::FtAnalysis(const Program &P, const FtOptions &Opts,
                       bool UseCompiledEvaluator, NvContext *Ctx)
    : Base(P), Opts(Opts), Compiled(UseCompiledEvaluator), Borrowed(Ctx) {}

FtRunResult FtAnalysis::run(const RunBudget &Budget, bool Check,
                            DiagnosticEngine &Diags) {
  FtRunResult Out;
  Checker.reset(); // compiled from the previous run's labels
  // One governor spans the whole run: the step budget counts the
  // meta-simulation's pops, and a deadline/cancellation also covers the
  // transform and the assert check.
  Governor::Scope Guard(Budget);
  try {
    // A borrowed context sheds the PREVIOUS run's garbage now, at the
    // start, so the previous result's route pointers stay valid until here.
    if (Borrowed)
      Borrowed->resetBetweenRuns();
    else if (!Own)
      Own = std::make_shared<NvContext>(Base.numNodes());
    if (!Meta) {
      Stopwatch W;
      Meta = makeFaultTolerantProgram(Base, Opts, Diags);
      Out.TransformMs = W.elapsedMs();
      if (!Meta) {
        Out.Outcome = {RunStatus::EvalError,
                       "fault-tolerance transform failed", ""};
        return Out;
      }
    }

    // Deltas, not totals: a reused manager's counters span earlier runs.
    NvContext &Ctx = ctx();
    uint64_t Hits0 = Ctx.Mgr.cacheHits(), Misses0 = Ctx.Mgr.cacheMisses();
    Stopwatch SW;
    try {
      if (!MetaEval) {
        if (Compiled)
          MetaEval = std::make_unique<CompiledProgramEvaluator>(Ctx, *Meta);
        else
          MetaEval = std::make_unique<InterpProgramEvaluator>(Ctx, *Meta);
      }
      SimOptions SO;
      SO.Budget = RunBudget{}; // governed by the scope above instead
      Sim = nv::simulate(*Meta, *MetaEval, SO);
    } catch (const EngineError &E) {
      Sim = SimResult();
      Sim.Outcome = E.outcome();
    }
    Out.SimulateMs = SW.elapsedMs();
    Out.Converged = Sim.Converged;
    Out.Outcome = Sim.Outcome;
    Out.Stats = Sim.Stats;
    Out.CacheHits = Ctx.Mgr.cacheHits() - Hits0;
    Out.CacheMisses = Ctx.Mgr.cacheMisses() - Misses0;
    if (!Check || !Out.Converged)
      return Out;

    Stopwatch CW;
    std::optional<ThreadPool> Pool;
    if (Opts.Threads != 1)
      Pool.emplace(Opts.Threads);
    Out.Check = buildChecker().check(Pool ? &*Pool : nullptr);
    Checker.reset(); // the DAGs and packed keys are dead weight from here
    Out.CheckMs = CW.elapsedMs();
    // Keep an owned context alive so Violation::Route pointers in the
    // returned result do not dangle.
    if (Own)
      Out.Check.RetainedContexts.push_back(Own);
  } catch (const EngineError &E) {
    // A trip outside the simulator: context set-up or the assert check.
    // The phases that completed keep their timings/stats.
    Out.Outcome = E.outcome();
    Diags.error({}, "fault-tolerance analysis stopped: " + Out.Outcome.str());
  }
  return Out;
}

FtChecker &FtAnalysis::buildChecker() {
  assert(Sim.Converged && "checking an unconverged meta-simulation");
  if (!Checker) {
    if (!BaseEval)
      BaseEval = std::make_unique<InterpProgramEvaluator>(ctx(), Base);
    Checker = std::make_unique<FtChecker>(ctx(), Base, *BaseEval, Sim, Opts);
  }
  return *Checker;
}

FtChecker &FtAnalysis::checker(const RunBudget &Budget) {
  if (Checker)
    return *Checker;
  Governor::Scope Guard(Budget);
  return buildChecker();
}

FtRunResult nv::runFaultTolerance(const Program &P, const FtOptions &Opts,
                                  bool UseCompiledEvaluator,
                                  DiagnosticEngine &Diags,
                                  NvContext *ReuseCtx) {
  return FtAnalysis(P, Opts, UseCompiledEvaluator, ReuseCtx)
      .run(Opts.Budget, /*Check=*/true, Diags);
}
