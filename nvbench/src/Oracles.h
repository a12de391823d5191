//===- Oracles.h - Independent answers for the benchmark --------*- C++ -*-===//
//
// Part of the nv benchmark. The answers every measured query is checked
// against, computed by plain graph search over the link list the input was
// generated from — never by the engine, and never read from a saved copy of
// an earlier run's output.
//
//===----------------------------------------------------------------------===//

#ifndef NVBENCH_ORACLES_H
#define NVBENCH_ORACLES_H

#include "Inputs.h"

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace nvbench {

constexpr uint32_t Unreachable = UINT32_MAX;

/// Hop distances from \p Src over the undirected links of \p G, skipping
/// the links whose index is flagged in \p Down (when given).
std::vector<uint32_t> bfsDistances(const Graph &G, uint32_t Src,
                                   const std::vector<char> *Down = nullptr);

/// A set of failed links, each as (lo, hi), sorted.
using FailureSet = std::vector<std::pair<uint32_t, uint32_t>>;

/// Normalizes links given in any orientation and order, dropping repeats:
/// a scenario key naming the same link twice fails only that link.
FailureSet normalizeFailures(std::vector<std::pair<uint32_t, uint32_t>> L);

/// Every set of 1..MaxFailures distinct links of \p G, in no fixed order.
std::vector<FailureSet> allFailureSets(const Graph &G, unsigned MaxFailures);

/// The (failure set, node) pairs where the failure set cuts the node off
/// from \p Dest — exactly the violations a reachability assert has under
/// each failure scenario.
std::set<std::pair<FailureSet, uint32_t>>
cutOffUnderFailures(const Graph &G, uint32_t Dest, unsigned MaxFailures);

/// One per-prefix route of the FAT all-prefixes program.
struct PrefixRoute {
  bool Down = false;
  uint32_t Len = 0;
  bool operator==(const PrefixRoute &O) const {
    return Down == O.Down && Len == O.Len;
  }
};

/// Parses a printed all-prefixes label — "[<cube> := <route>; ...]", each
/// cube the key's bits MSB first with '*' for either bit, each route
/// "None" or "Some (<dn>, <len>u16)" — into one entry per prefix id below
/// \p NumPrefixes. Null (with \p Error set) on a malformed label or a
/// prefix no cube covers.
std::optional<std::vector<std::optional<PrefixRoute>>>
parsePrefixLabel(const std::string &Text, size_t NumPrefixes,
                 std::string &Error);

/// Checks printed labels of the FAT all-prefixes program: every (node,
/// prefix) pair must hold a route whose length is the BFS hop distance from
/// the prefix's announcing ToR.
class PrefixLabelChecker {
public:
  explicit PrefixLabelChecker(const FatInput &F);
  /// "" when node \p U's label checks, else the first mismatch.
  std::string check(uint32_t U, const std::string &Label) const;

private:
  std::vector<std::vector<uint32_t>> Dist; ///< Per prefix, per node.
};

/// Checks one label per node; "" when all check, else the first mismatch.
std::string checkPrefixLabels(const FatInput &F,
                              const std::vector<std::string> &Labels);

} // namespace nvbench

#endif // NVBENCH_ORACLES_H
