//===- Inputs.cpp - Seeded benchmark inputs -------------------------------===//

#include "Inputs.h"

#include <algorithm>
#include <set>

using namespace nvbench;

namespace {

/// `let nodes = N` / `let edges = {...}` for \p G.
std::string topologyDecls(const Graph &G) {
  std::string S = "let nodes = " + std::to_string(G.NumNodes) + "\n";
  S += "let edges = {";
  for (size_t I = 0; I < G.Links.size(); ++I) {
    if (I)
      S += ";";
    S += std::to_string(G.Links[I].first) + "n=" +
         std::to_string(G.Links[I].second) + "n";
  }
  return S + "}\n";
}

/// Ring plus chords: mostly short spans with occasional long-haul links,
/// like a geographic carrier network. Low symmetry, little redundancy.
Graph usCarrierShape() {
  const uint32_t N = 174;
  const size_t TargetLinks = 410;
  Graph G;
  G.NumNodes = N;
  std::set<std::pair<uint32_t, uint32_t>> Seen;
  auto AddLink = [&](uint32_t A, uint32_t B) {
    if (A == B)
      return;
    if (A > B)
      std::swap(A, B);
    if (Seen.insert({A, B}).second)
      G.Links.emplace_back(A, B);
  };
  for (uint32_t I = 0; I < N; ++I)
    AddLink(I, (I + 1) % N);
  Rng R(2020);
  while (G.Links.size() < TargetLinks) {
    uint32_t A = R.below(N);
    uint32_t Pick = R.below(100);
    uint32_t Span = Pick < 70   ? 2 + R.below(6)
                    : Pick < 95 ? 8 + R.below(16)
                                : 30 + R.below(60);
    AddLink(A, (A + Span) % N);
  }
  return G;
}

} // namespace

WanInput nvbench::makeWan(uint64_t Seed) {
  WanInput W;
  W.G = usCarrierShape();
  W.Dest = 0;
  // The MED ranking and the hub set are the reference draw. The seed maps
  // MED ranks to values through a strictly increasing map (ties and order,
  // so every BGP decision, are kept) and picks the tag community: every
  // seed gives a different program with the same route choices.
  Rng Ref(2020);
  std::vector<uint32_t> MedRank(W.G.NumNodes);
  for (uint32_t &M : MedRank)
    M = Ref.below(90);
  std::vector<char> Hub(W.G.NumNodes);
  for (char &H : Hub)
    H = Ref.below(10) == 0;
  Rng R(Seed * 0x2545F4914F6CDD1Dull + 0x57414E);
  // Three-digit MEDs and a two-digit tag: every seed's source has the same
  // length, so the allocation pattern (and with it peak RSS) repeats.
  std::vector<uint32_t> MedValue(90);
  for (uint32_t V = 0, Acc = 100; V < 90; ++V)
    MedValue[V] = Acc += 1 + R.below(4);
  std::string Tag = std::to_string(10 + R.below(30));

  std::string S = "include bgp\n" + topologyDecls(W.G);
  S += "let medOf (u : node) =\n  match u with\n";
  for (uint32_t U = 0; U < W.G.NumNodes; ++U)
    S += "  | " + std::to_string(U) + "n -> " +
         std::to_string(MedValue[MedRank[U]]) + "\n";
  S += "  | _ -> 0\n";
  S += "let isHub (u : node) =\n  match u with\n";
  for (uint32_t U = 0; U < W.G.NumNodes; ++U)
    if (Hub[U])
      S += "  | " + std::to_string(U) + "n -> true\n";
  S += "  | _ -> false\n";
  S += "let trans (e : edge) (x : attribute) =\n"
       "  let (u, v) = e in\n"
       "  match transBgp e x with\n"
       "  | None -> None\n"
       "  | Some b ->\n"
       "    let tagged = if isHub u then {b with comms = b.comms[" + Tag +
       " := true]} else b in\n"
       "    Some {tagged with med = medOf v}\n";
  S += "let merge u x y = mergeBgp u x y\n";
  std::string D = std::to_string(W.Dest) + "n";
  S += "let init (u : node) =\n"
       "  match u with\n"
       "  | " + D + " -> Some {length = 0; lp = 100; med = 80; comms = {}; "
       "origin = " + D + "}\n"
       "  | _ -> None\n";
  S += "let assert (u : node) (x : attribute) =\n"
       "  match x with\n"
       "  | None -> false\n"
       "  | Some b -> true\n";
  W.Source = std::move(S);
  return W;
}

FatInput nvbench::makeFatAllPrefixes(unsigned K, uint64_t Seed) {
  // Pod p: ToR i = p*K + i, aggregation j = p*K + K/2 + j; core (j, c) =
  // K*K + j*K/2 + c. Aggregation switch j of every pod links to cores (j, *).
  FatInput F;
  F.K = K;
  unsigned Half = K / 2;
  F.G.NumNodes = 5 * K * K / 4;
  std::vector<uint32_t> Leaves;
  for (unsigned P = 0; P < K; ++P) {
    for (unsigned I = 0; I < Half; ++I) {
      Leaves.push_back(P * K + I);
      for (unsigned J = 0; J < Half; ++J)
        F.G.Links.emplace_back(P * K + I, P * K + Half + J);
    }
    for (unsigned J = 0; J < Half; ++J)
      for (unsigned C = 0; C < Half; ++C)
        F.G.Links.emplace_back(P * K + Half + J, K * K + J * Half + C);
  }
  auto LayerOf = [&](uint32_t U) {
    return U >= K * K ? 2 : (U % K) < Half ? 0 : 1;
  };

  // The seed shuffles the prefix ids inside each pod's block.
  Rng R(Seed * 0x9E3779B97F4A7C15ull + 0x464154);
  F.PrefixLeaf = Leaves;
  for (unsigned P = 0; P < K; ++P)
    for (unsigned I = Half; I > 1; --I)
      std::swap(F.PrefixLeaf[P * Half + I - 1],
                F.PrefixLeaf[P * Half + R.below(I)]);
  std::vector<uint32_t> PrefixOf(F.G.NumNodes, UINT32_MAX);
  for (size_t P = 0; P < F.PrefixLeaf.size(); ++P)
    PrefixOf[F.PrefixLeaf[P]] = static_cast<uint32_t>(P);

  std::string S = topologyDecls(F.G);
  S += "type rt = {len : int16; dn : bool}\n";
  S += "type attribute = dict[int16, option[rt]]\n";
  S += "let layerOf (u : node) =\n  match u with\n";
  for (uint32_t U = 0; U < F.G.NumNodes; ++U)
    S += "  | " + std::to_string(U) + "n -> " + std::to_string(LayerOf(U)) +
         "\n";
  S += "  | _ -> 0\n";
  S += "let init (u : node) =\n"
       "  let base : attribute = createDict None in\n"
       "  match u with\n";
  for (uint32_t Leaf : Leaves)
    S += "  | " + std::to_string(Leaf) + "n -> base[" +
         std::to_string(PrefixOf[Leaf]) +
         "u16 := Some {len = 0u16; dn = false}]\n";
  S += "  | _ -> base\n";
  S += "let trans (e : edge) (x : attribute) =\n"
       "  let (u, v) = e in\n"
       "  let down = layerOf v < layerOf u in\n"
       "  map (fun (w : option[rt]) ->\n"
       "    match w with\n"
       "    | None -> None\n"
       "    | Some r ->\n"
       "      if down then Some {len = r.len + 1u16; dn = true}\n"
       "      else if r.dn then None\n"
       "      else Some {len = r.len + 1u16; dn = false}) x\n";
  S += "let merge (u : node) (x : attribute) (y : attribute) =\n"
       "  combine (fun (a : option[rt]) (b : option[rt]) ->\n"
       "    match a, b with\n"
       "    | _, None -> a\n"
       "    | None, _ -> b\n"
       "    | Some r1, Some r2 -> if r1.len <= r2.len then a else b) x y\n";
  F.Source = std::move(S);
  return F;
}

std::string nvbench::hijackSource() {
  return "include bgp\n"
         "let nodes = 5\n"
         "let edges = {0n=1n;0n=2n;1n=4n;2n=4n;1n=3n;2n=3n}\n"
         "symbolic route : attribute\n"
         "let trans e x = transBgp e x\n"
         "let merge u x y = mergeBgp u x y\n"
         "let init (u : node) =\n"
         "  match u with\n"
         "  | 0n -> Some {length = 0; lp = 100; med = 80; comms = {}; "
         "origin = 0n}\n"
         "  | 4n -> route\n"
         "  | _ -> None\n"
         "let assert (u : node) (x : attribute) =\n"
         "  match x with\n"
         "  | None -> false\n"
         "  | Some b -> if u <> 4n then b.origin = 0n else true\n";
}
