//===- Inputs.h - Seeded benchmark inputs -----------------------*- C++ -*-===//
//
// Part of the nv benchmark. Every program the benchmark measures is
// generated here from the run's seed, as NV source text plus the graph it
// was written from. The engine only ever sees the source; the answer
// oracles only ever see the graph.
//
//===----------------------------------------------------------------------===//

#ifndef NVBENCH_INPUTS_H
#define NVBENCH_INPUTS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace nvbench {

/// SplitMix64: small, seedable, identical on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  uint32_t below(uint32_t N) { return static_cast<uint32_t>(next() % N); }

private:
  uint64_t State;
};

/// An undirected topology; each link is stored once as (lo, hi).
struct Graph {
  uint32_t NumNodes = 0;
  std::vector<std::pair<uint32_t, uint32_t>> Links;
};

/// The USCarrier-shaped WAN of Sec. 6.3: 174 nodes, 410 links (a backbone
/// ring plus chords of skewed span), BGP towards node 0 with per-node MED
/// tie-breaking and community tagging at hub nodes, and a reachability
/// assert at every node.
struct WanInput {
  Graph G;
  uint32_t Dest = 0;
  std::string Source;
};

/// The topology, the MED ranking and the hub set are the same for every
/// seed; the seed picks the MED values (through an order-keeping map, so
/// every BGP decision stays the same) and the tag community. Seeds that
/// changed the topology or the route choices moved the per-query cost by
/// up to ±25% (and peak memory by ±10%), more than any regression bound
/// can absorb; the seed varies the program, not the amount of work.
WanInput makeWan(uint64_t Seed);

/// FAT(k) all-prefixes (Sec. 6.4): a k-ary fat tree where every ToR
/// announces its own prefix, per-prefix routes carry a went-down flag, and
/// the valley-free filter drops routes sent back up. Pod p's ToRs announce
/// prefixes p*k/2 .. p*k/2 + k/2 - 1; the seed picks which ToR of the pod
/// announces which of them. (A permutation across pods would reshape every
/// prefix-keyed diagram, making the amount of work depend on the seed.)
struct FatInput {
  unsigned K = 0;
  Graph G;
  std::vector<uint32_t> PrefixLeaf; ///< Prefix id -> announcing ToR.
  std::string Source;
};
FatInput makeFatAllPrefixes(unsigned K, uint64_t Seed);

/// The paper's Fig. 2 program: an external peer (node 4) announces a
/// symbolic route into a four-node BGP network; `verify` finds the hijack.
std::string hijackSource();

} // namespace nvbench

#endif // NVBENCH_INPUTS_H
