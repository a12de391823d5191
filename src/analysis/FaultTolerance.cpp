//===- FaultTolerance.cpp - Fig. 5 fault-tolerance meta-protocol ------------===//

#include "analysis/FaultTolerance.h"

#include "core/Parser.h"
#include "core/Printer.h"
#include "core/TypeChecker.h"
#include "eval/Compile.h"
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
  std::vector<FailDag> Dags; ///< One per node.
  /// Scenario I's key bit B is bit B % 64 of KeyWords[I * KeyStride + B / 64].
  std::vector<uint64_t> KeyWords;
  size_t KeyStride = 0;
  unsigned KeyWidth = 0;

  ImplTy(NvContext &Ctx, const Program &BaseProgram,
         ProtocolEvaluator &BaseEval, const SimResult &Meta,
         const FtOptions &Opts)
      : Opts(Opts), N(BaseProgram.numNodes()),
        Scenarios(enumerateScenarios(BaseProgram, Opts)) {
    if (this->Opts.CheckChunkSize == 0)
      this->Opts.CheckChunkSize = 512;

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
    if (!Scenarios.empty())
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

FtChecker::FtChecker(NvContext &Ctx, const Program &BaseProgram,
                     ProtocolEvaluator &BaseEval, const SimResult &MetaResult,
                     const FtOptions &Opts)
    : Impl(std::make_unique<ImplTy>(Ctx, BaseProgram, BaseEval, MetaResult,
                                    Opts)) {}

FtChecker::~FtChecker() = default;

const std::vector<FtScenario> &FtChecker::scenarios() const {
  return Impl->Scenarios;
}

size_t FtChecker::numChunks() const {
  return (Impl->Scenarios.size() + Impl->Opts.CheckChunkSize - 1) /
         Impl->Opts.CheckChunkSize;
}

std::string FtChecker::chunkKey(size_t C) {
  std::string K = "c";
  K += std::to_string(C);
  return K;
}

std::vector<bool> FtChecker::keyBits(size_t I) const {
  std::vector<bool> Bits(Impl->KeyWidth);
  const uint64_t *Key = &Impl->KeyWords[I * Impl->KeyStride];
  for (unsigned B = 0; B < Impl->KeyWidth; ++B)
    Bits[B] = (Key[B >> 6] >> (B & 63)) & 1;
  return Bits;
}

void FtChecker::checkScenario(size_t I, std::vector<FtViolation> &Out) const {
  const FtScenario &S = Impl->Scenarios[I];
  const uint64_t *Key = &Impl->KeyWords[I * Impl->KeyStride];
  for (uint32_t U = 0; U < Impl->N; ++U) {
    if (S.Node && *S.Node == U)
      continue; // a failed node asserts nothing
    if (const Value *Route = Impl->Dags[U].lookup(Key))
      Out.push_back({S, U, Route, {}});
  }
}

UnitRecord FtChecker::checkChunk(size_t C, ThreadPool *Pool,
                                 std::vector<FtViolation> *LiveOut) {
  size_t Begin = C * Impl->Opts.CheckChunkSize;
  size_t End = std::min(Begin + Impl->Opts.CheckChunkSize,
                        Impl->Scenarios.size());
  // Per-scenario slots, concatenated in scenario order, so the record is
  // identical for any pool size and any shard interleaving.
  std::vector<std::vector<FtViolation>> PerScenario(End - Begin);
  if (Pool && Pool->numThreads() > 1)
    Pool->parallelFor(End - Begin, [&](size_t I) {
      checkScenario(Begin + I, PerScenario[I]);
    });
  else
    for (size_t I = Begin; I < End; ++I)
      checkScenario(I, PerScenario[I - Begin]);

  UnitRecord Rec;
  Rec.Key = chunkKey(C);
  Rec.add("status", "ok");
  for (size_t I = Begin; I < End; ++I)
    for (const FtViolation &V : PerScenario[I - Begin]) {
      addViolationField(Rec, I, V);
      if (LiveOut)
        LiveOut->push_back(V);
    }
  return Rec;
}

bool nv::aggregateFtChunkRecords(
    const std::vector<FtScenario> &Scenarios, unsigned ChunkSize,
    const std::function<bool(const std::string &, UnitRecord &)> &Lookup,
    FtCheckResult &Out) {
  if (ChunkSize == 0)
    ChunkSize = 512;
  size_t NumChunks = (Scenarios.size() + ChunkSize - 1) / ChunkSize;
  for (size_t C = 0; C < NumChunks; ++C) {
    size_t Begin = C * ChunkSize;
    size_t End = std::min(Begin + size_t(ChunkSize), Scenarios.size());
    UnitRecord Rec;
    if (!Lookup(FtChecker::chunkKey(C), Rec))
      return false;
    RunOutcome O;
    unsigned Attempts = 1;
    if (!parseOutcome(Rec, O, Attempts))
      return false;
    Out.ScenariosChecked += End - Begin;
    if (!O.ok()) {
      // A quarantined (or otherwise skipped) chunk contributes no
      // violations — exactly like a skipped scenario in the naive paths.
      Out.ScenariosSkipped += End - Begin;
      if (Out.Outcome.ok())
        Out.Outcome = O;
      continue;
    }
    std::vector<std::pair<size_t, FtViolation>> Vs;
    if (!parseViolationFields(Rec, Scenarios, Vs))
      return false;
    for (auto &IV : Vs)
      Out.Violations.push_back(std::move(IV.second));
  }
  return true;
}

FtCheckResult nv::checkFaultTolerance(NvContext &Ctx,
                                      const Program &BaseProgram,
                                      ProtocolEvaluator &BaseEval,
                                      const SimResult &MetaResult,
                                      const FtOptions &Opts,
                                      ThreadPool *Pool) {
  FtCheckResult R;
  uint32_t N = BaseProgram.numNodes();
  {
    auto Scenarios = enumerateScenarios(BaseProgram, Opts);
    R.ScenariosChecked = Scenarios.size();
    if (Scenarios.empty() || N == 0)
      return R;
  }

  FtChecker Checker(Ctx, BaseProgram, BaseEval, MetaResult, Opts);
  const auto &Scenarios = Checker.scenarios();

  if (Opts.Resume) {
    // Checkpointed mode: scenarios are journaled in fixed chunks (one
    // entry per chunk keeps journal traffic sane at fig13 scales). Chunks
    // are processed in order; a replayed chunk's violations come from the
    // journal, a fresh chunk is indexed (sharded over the pool) and then
    // durably recorded. Cancellation drains between chunks — the partial
    // chunk is simply not recorded and re-runs on resume.
    size_t ChunkSize = Opts.CheckChunkSize ? Opts.CheckChunkSize : 512;
    R.ScenariosChecked = 0;
    CancelToken *Cancel = Opts.Budget.Cancel;
    for (size_t C = 0; C < Checker.numChunks(); ++C) {
      size_t Begin = C * ChunkSize;
      size_t End = std::min(Begin + ChunkSize, Scenarios.size());
      UnitRecord Rec;
      if (Opts.Resume->replay(FtChecker::chunkKey(C), Rec)) {
        std::vector<std::pair<size_t, FtViolation>> Replayed;
        if (parseViolationFields(Rec, Scenarios, Replayed))
          for (auto &[I, V] : Replayed)
            R.Violations.push_back(std::move(V));
        R.ScenariosChecked += End - Begin;
        R.ScenariosReplayed += End - Begin;
        continue;
      }
      if (Cancel && Cancel->isCanceled()) {
        R.Outcome = {RunStatus::Canceled, "fault-tolerance check canceled",
                     ""};
        break;
      }
      Rec = Checker.checkChunk(C, Pool, &R.Violations);
      R.ScenariosChecked += End - Begin;
      Opts.Resume->recordDone(Rec);
    }
  } else {
    // Unchunked: index every scenario; embarrassingly parallel and
    // read-only, with per-scenario slots keeping the violation order
    // identical for any pool size.
    std::vector<std::vector<FtViolation>> PerScenario(Scenarios.size());
    if (Pool && Pool->numThreads() > 1)
      Pool->parallelFor(Scenarios.size(), [&](size_t I) {
        Checker.checkScenario(I, PerScenario[I]);
      });
    else
      for (size_t I = 0; I < Scenarios.size(); ++I)
        Checker.checkScenario(I, PerScenario[I]);
    for (auto &Part : PerScenario)
      R.Violations.insert(R.Violations.end(), Part.begin(), Part.end());
  }
  return R;
}

FtRunResult nv::runFaultTolerance(const Program &P, const FtOptions &Opts,
                                  bool UseCompiledEvaluator,
                                  DiagnosticEngine &Diags, bool CheckAsserts,
                                  NvContext *ReuseCtx) {
  FtRunResult Out;
  Stopwatch W;
  // One governor spans the whole analysis: the step budget counts the
  // meta-simulation's pops, and a deadline/cancellation also covers the
  // transform and the assert-check phases. The simulator is handed an
  // unlimited budget of its own so the run is governed exactly once.
  Governor::Scope Guard(Opts.Budget);
  try {
  auto Meta = makeFaultTolerantProgram(P, Opts, Diags);
  Out.TransformMs = W.elapsedMs();
  if (!Meta) {
    Out.Outcome = {RunStatus::EvalError, "fault-tolerance transform failed",
                   ""};
    return Out;
  }

  // Reuse mode collects the PREVIOUS run's garbage down to the caller's
  // pinned baseline now, at the start — so the previous FtRunResult's
  // route pointers stay valid until the next call on the same context.
  std::shared_ptr<NvContext> OwnCtx;
  if (ReuseCtx)
    ReuseCtx->resetBetweenRuns();
  else
    OwnCtx = std::make_shared<NvContext>(P.numNodes());
  NvContext &Ctx = ReuseCtx ? *ReuseCtx : *OwnCtx;
  // Deltas, not totals: a reused manager's counters span earlier runs.
  uint64_t Hits0 = Ctx.Mgr.cacheHits(), Misses0 = Ctx.Mgr.cacheMisses();

  {
    std::unique_ptr<ProtocolEvaluator> Eval;
    W.restart();
    if (UseCompiledEvaluator)
      Eval = std::make_unique<CompiledProgramEvaluator>(Ctx, *Meta);
    else
      Eval = std::make_unique<InterpProgramEvaluator>(Ctx, *Meta);
    SimOptions SO;
    SO.Budget = RunBudget{}; // governed by this run's outer scope instead
    SimResult R = simulate(*Meta, *Eval, SO);
    Out.SimulateMs = W.elapsedMs();
    Out.Converged = R.Converged;
    Out.Outcome = R.Outcome;
    Out.Stats = R.Stats;
    Out.CacheHits = Ctx.Mgr.cacheHits() - Hits0;
    Out.CacheMisses = Ctx.Mgr.cacheMisses() - Misses0;
    if (R.Converged && CheckAsserts) {
      W.restart();
      InterpProgramEvaluator BaseEval(Ctx, P);
      std::optional<ThreadPool> Pool;
      if (Opts.Threads != 1)
        Pool.emplace(Opts.Threads);
      Out.Check = checkFaultTolerance(Ctx, P, BaseEval, R, Opts,
                                      Pool ? &*Pool : nullptr);
      Out.CheckMs = W.elapsedMs();
    }
  }
  // Keep an owned context alive so Violation::Route pointers in the
  // returned result do not dangle.
  if (OwnCtx)
    Out.Check.RetainedContexts.push_back(std::move(OwnCtx));
  return Out;
  } catch (const EngineError &E) {
    // A trip outside the simulator's own catch (transform, evaluator
    // construction, or the assert-check phase). The phases that completed
    // keep their timings/stats; Converged reflects how far we got.
    Out.Outcome = E.outcome();
    Diags.error({}, "fault-tolerance analysis stopped: " + Out.Outcome.str());
    return Out;
  }
}
