//===- Oracles.cpp - Independent answers for the benchmark ----------------===//

#include "Oracles.h"

#include <algorithm>
#include <cstdlib>

using namespace nvbench;

namespace {

using Adjacency = std::vector<std::vector<std::pair<uint32_t, size_t>>>;

Adjacency adjacencyOf(const Graph &G) {
  Adjacency Adj(G.NumNodes);
  for (size_t I = 0; I < G.Links.size(); ++I) {
    Adj[G.Links[I].first].push_back({G.Links[I].second, I});
    Adj[G.Links[I].second].push_back({G.Links[I].first, I});
  }
  return Adj;
}

std::vector<uint32_t> bfs(const Adjacency &Adj, uint32_t Src,
                          const std::vector<char> *Down) {
  std::vector<uint32_t> Dist(Adj.size(), Unreachable);
  std::vector<uint32_t> Queue{Src};
  Dist[Src] = 0;
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    uint32_t U = Queue[Head];
    for (auto [V, Link] : Adj[U]) {
      if ((Down && (*Down)[Link]) || Dist[V] != Unreachable)
        continue;
      Dist[V] = Dist[U] + 1;
      Queue.push_back(V);
    }
  }
  return Dist;
}

/// Calls \p Fn with the link indices of every set of 1..MaxFailures
/// distinct links, in lexicographic order.
template <typename FnTy>
void forEachFailureSet(size_t NumLinks, unsigned MaxFailures, FnTy &&Fn) {
  std::vector<size_t> Pick;
  auto Rec = [&](auto &Self, size_t From) -> void {
    if (!Pick.empty())
      Fn(Pick);
    if (Pick.size() == MaxFailures)
      return;
    for (size_t I = From; I < NumLinks; ++I) {
      Pick.push_back(I);
      Self(Self, I + 1);
      Pick.pop_back();
    }
  };
  Rec(Rec, 0);
}

FailureSet linksOf(const Graph &G, const std::vector<size_t> &Idx) {
  FailureSet S;
  for (size_t I : Idx)
    S.push_back(G.Links[I]);
  return normalizeFailures(std::move(S));
}

} // namespace

std::vector<uint32_t> nvbench::bfsDistances(const Graph &G, uint32_t Src,
                                            const std::vector<char> *Down) {
  return bfs(adjacencyOf(G), Src, Down);
}

FailureSet
nvbench::normalizeFailures(std::vector<std::pair<uint32_t, uint32_t>> L) {
  for (auto &[A, B] : L)
    if (A > B)
      std::swap(A, B);
  std::sort(L.begin(), L.end());
  L.erase(std::unique(L.begin(), L.end()), L.end());
  return L;
}

std::vector<FailureSet> nvbench::allFailureSets(const Graph &G,
                                                unsigned MaxFailures) {
  std::vector<FailureSet> Out;
  forEachFailureSet(G.Links.size(), MaxFailures,
                    [&](const std::vector<size_t> &Idx) {
                      Out.push_back(linksOf(G, Idx));
                    });
  return Out;
}

std::set<std::pair<FailureSet, uint32_t>>
nvbench::cutOffUnderFailures(const Graph &G, uint32_t Dest,
                             unsigned MaxFailures) {
  std::set<std::pair<FailureSet, uint32_t>> Out;
  Adjacency Adj = adjacencyOf(G);
  std::vector<char> Down(G.Links.size(), 0);
  forEachFailureSet(G.Links.size(), MaxFailures,
                    [&](const std::vector<size_t> &Idx) {
                      for (size_t I : Idx)
                        Down[I] = 1;
                      std::vector<uint32_t> Dist = bfs(Adj, Dest, &Down);
                      for (size_t I : Idx)
                        Down[I] = 0;
                      for (uint32_t U = 0; U < G.NumNodes; ++U)
                        if (Dist[U] == Unreachable)
                          Out.insert({linksOf(G, Idx), U});
                    });
  return Out;
}

namespace {

/// One printed cube: the key matches when (key & Mask) == Bits.
struct Cube {
  uint64_t Mask = 0, Bits = 0;
  std::optional<PrefixRoute> Route;
};

bool parseRoute(const std::string &S, std::optional<PrefixRoute> &Out) {
  if (S == "None") {
    Out.reset();
    return true;
  }
  // "Some (<dn>, <len>u16)": record fields print in label order (dn, len).
  const std::string Head = "Some (";
  if (S.compare(0, Head.size(), Head) != 0 || S.back() != ')')
    return false;
  std::string Body = S.substr(Head.size(), S.size() - Head.size() - 1);
  size_t Comma = Body.find(", ");
  if (Comma == std::string::npos)
    return false;
  std::string Dn = Body.substr(0, Comma), Len = Body.substr(Comma + 2);
  if ((Dn != "true" && Dn != "false") || Len.size() < 4 ||
      Len.compare(Len.size() - 3, 3, "u16") != 0)
    return false;
  char *End = nullptr;
  unsigned long N = std::strtoul(Len.c_str(), &End, 10);
  if (End != Len.c_str() + Len.size() - 3)
    return false;
  Out = PrefixRoute{Dn == "true", static_cast<uint32_t>(N)};
  return true;
}

} // namespace

std::optional<std::vector<std::optional<PrefixRoute>>>
nvbench::parsePrefixLabel(const std::string &Text, size_t NumPrefixes,
                          std::string &Error) {
  if (Text.size() < 2 || Text.front() != '[' || Text.back() != ']') {
    Error = "label is not a printed map: " + Text.substr(0, 60);
    return std::nullopt;
  }
  std::vector<Cube> Cubes;
  std::string Body = Text.substr(1, Text.size() - 2);
  for (size_t Pos = 0; Pos < Body.size();) {
    size_t Semi = Body.find("; ", Pos);
    std::string Entry = Body.substr(Pos, Semi == std::string::npos
                                             ? std::string::npos
                                             : Semi - Pos);
    Pos = Semi == std::string::npos ? Body.size() : Semi + 2;
    size_t Arrow = Entry.find(" := ");
    if (Arrow == std::string::npos || Arrow == 0 || Arrow > 64) {
      Error = "malformed cube entry: " + Entry;
      return std::nullopt;
    }
    Cube C;
    for (size_t I = 0; I < Arrow; ++I) {
      char B = Entry[I];
      C.Mask <<= 1;
      C.Bits <<= 1;
      if (B == '*')
        continue;
      if (B != '0' && B != '1') {
        Error = "malformed cube key: " + Entry;
        return std::nullopt;
      }
      C.Mask |= 1;
      C.Bits |= B == '1';
    }
    if (!parseRoute(Entry.substr(Arrow + 4), C.Route)) {
      Error = "malformed route: " + Entry;
      return std::nullopt;
    }
    Cubes.push_back(C);
  }
  std::vector<std::optional<PrefixRoute>> Out(NumPrefixes);
  std::vector<char> Seen(NumPrefixes, 0);
  for (const Cube &C : Cubes)
    for (uint64_t P = 0; P < NumPrefixes; ++P)
      if ((P & C.Mask) == C.Bits) {
        if (Seen[P]) {
          Error = "cubes overlap at prefix " + std::to_string(P);
          return std::nullopt;
        }
        Seen[P] = 1;
        Out[P] = C.Route;
      }
  for (size_t P = 0; P < NumPrefixes; ++P)
    if (!Seen[P]) {
      Error = "no cube covers prefix " + std::to_string(P);
      return std::nullopt;
    }
  return Out;
}

PrefixLabelChecker::PrefixLabelChecker(const FatInput &F) {
  Adjacency Adj = adjacencyOf(F.G);
  for (uint32_t Leaf : F.PrefixLeaf)
    Dist.push_back(bfs(Adj, Leaf, nullptr));
}

std::string PrefixLabelChecker::check(uint32_t U,
                                      const std::string &Label) const {
  std::string Error;
  auto Routes = parsePrefixLabel(Label, Dist.size(), Error);
  if (!Routes)
    return "node " + std::to_string(U) + ": " + Error;
  for (size_t P = 0; P < Dist.size(); ++P) {
    const auto &R = (*Routes)[P];
    if (!R || R->Len != Dist[P][U])
      return "node " + std::to_string(U) + " prefix " + std::to_string(P) +
             ": expected length " + std::to_string(Dist[P][U]) + ", got " +
             (R ? std::to_string(R->Len) : std::string("no route"));
  }
  return "";
}

std::string nvbench::checkPrefixLabels(const FatInput &F,
                                       const std::vector<std::string> &Labels) {
  if (Labels.size() != F.G.NumNodes)
    return "expected " + std::to_string(F.G.NumNodes) + " labels, got " +
           std::to_string(Labels.size());
  PrefixLabelChecker C(F);
  for (uint32_t U = 0; U < F.G.NumNodes; ++U)
    if (std::string E = C.check(U, Labels[U]); !E.empty())
      return E;
  return "";
}
