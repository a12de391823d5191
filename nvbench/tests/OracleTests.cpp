//===- OracleTests.cpp - The benchmark's oracles on known graphs ----------===//
//
// Part of the nv benchmark. The answers every measured query is checked
// against must themselves be right: these tests run the oracles on small
// hand-made graphs whose answers are worked out by hand.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Oracles.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace nvbench;

namespace {

/// Ring 0-1-2-3-0 plus a bridge 3-4 to a stub node 4.
Graph ringWithBridge() {
  Graph G;
  G.NumNodes = 5;
  G.Links = {{0, 1}, {1, 2}, {2, 3}, {0, 3}, {3, 4}};
  return G;
}

using Pairs = std::set<std::pair<FailureSet, uint32_t>>;

TEST(OracleTest, BfsOnRingWithBridge) {
  auto D = bfsDistances(ringWithBridge(), 0);
  EXPECT_EQ(D, (std::vector<uint32_t>{0, 1, 2, 1, 2}));
  std::vector<char> Down = {0, 0, 0, 1, 0}; // 0-3 failed
  D = bfsDistances(ringWithBridge(), 0, &Down);
  EXPECT_EQ(D, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
}

TEST(OracleTest, SingleFailuresCutOnlyTheBridge) {
  EXPECT_EQ(cutOffUnderFailures(ringWithBridge(), 0, 1),
            (Pairs{{{{3, 4}}, 4}}));
}

TEST(OracleTest, DoubleFailuresOnRingWithBridge) {
  Pairs Cut = cutOffUnderFailures(ringWithBridge(), 0, 2);
  // Two ring links split the ring into two arcs; the arc without node 0
  // (and the stub behind node 3) is cut off. Any set with the bridge cuts 4.
  Pairs Want = {
      {{{3, 4}}, 4},
      {{{0, 1}, {1, 2}}, 1},
      {{{0, 1}, {2, 3}}, 1}, {{{0, 1}, {2, 3}}, 2},
      {{{0, 1}, {0, 3}}, 1}, {{{0, 1}, {0, 3}}, 2},
      {{{0, 1}, {0, 3}}, 3}, {{{0, 1}, {0, 3}}, 4},
      {{{1, 2}, {2, 3}}, 2},
      {{{0, 3}, {1, 2}}, 2}, {{{0, 3}, {1, 2}}, 3}, {{{0, 3}, {1, 2}}, 4},
      {{{0, 3}, {2, 3}}, 3}, {{{0, 3}, {2, 3}}, 4},
      {{{0, 1}, {3, 4}}, 4}, {{{1, 2}, {3, 4}}, 4},
      {{{2, 3}, {3, 4}}, 4}, {{{0, 3}, {3, 4}}, 4},
  };
  EXPECT_EQ(Cut, Want);
}

TEST(OracleTest, FailureSetsAndNormalization) {
  EXPECT_EQ(allFailureSets(ringWithBridge(), 2).size(), 5u + 10u);
  EXPECT_EQ(allFailureSets(ringWithBridge(), 1).size(), 5u);
  // A scenario key naming one link twice, in either orientation, fails
  // only that link.
  EXPECT_EQ(normalizeFailures({{4, 3}, {3, 4}}), (FailureSet{{3, 4}}));
  EXPECT_EQ(normalizeFailures({{2, 1}, {0, 1}}), (FailureSet{{0, 1}, {1, 2}}));
}

TEST(OracleTest, FatTreeK4Distances) {
  FatInput F = makeFatAllPrefixes(4, 1);
  ASSERT_EQ(F.G.NumNodes, 20u);
  ASSERT_EQ(F.G.Links.size(), 32u); // k^3/2
  // From ToR 0 (pod 0): its pod-mate ToR 1 is 2 hops, the pod's aggs 1,
  // every core 2, other pods' aggs 3 and their ToRs 4.
  auto D = bfsDistances(F.G, 0);
  EXPECT_EQ(D[0], 0u);
  EXPECT_EQ(D[1], 2u);
  EXPECT_EQ(D[2], 1u);
  EXPECT_EQ(D[3], 1u);
  for (uint32_t Core = 16; Core < 20; ++Core)
    EXPECT_EQ(D[Core], 2u);
  for (uint32_t Pod = 1; Pod < 4; ++Pod) {
    EXPECT_EQ(D[Pod * 4 + 0], 4u);
    EXPECT_EQ(D[Pod * 4 + 1], 4u);
    EXPECT_EQ(D[Pod * 4 + 2], 3u);
    EXPECT_EQ(D[Pod * 4 + 3], 3u);
  }
  // Every ToR announces exactly one prefix.
  std::vector<uint32_t> Leaves = F.PrefixLeaf;
  std::sort(Leaves.begin(), Leaves.end());
  EXPECT_EQ(Leaves,
            (std::vector<uint32_t>{0, 1, 4, 5, 8, 9, 12, 13}));
}

TEST(OracleTest, ParsesPrintedPrefixLabel) {
  std::string Error;
  auto R = parsePrefixLabel("[0000000000000000 := Some (false, 0u16); "
                            "0000000000000001 := Some (true, 2u16); "
                            "000000000000001* := None; "
                            "00000000000001** := Some (true, 4u16); "
                            "0000000000001*** := None]",
                            8, Error);
  ASSERT_TRUE(R) << Error;
  EXPECT_EQ((*R)[0], (PrefixRoute{false, 0}));
  EXPECT_EQ((*R)[1], (PrefixRoute{true, 2}));
  EXPECT_FALSE((*R)[2]);
  EXPECT_FALSE((*R)[3]);
  for (size_t P = 4; P < 8; ++P)
    EXPECT_EQ((*R)[P], (PrefixRoute{true, 4}));
}

TEST(OracleTest, RejectsMalformedOrIncompleteLabels) {
  std::string Error;
  EXPECT_FALSE(parsePrefixLabel("<map:3 leaves>", 2, Error));
  EXPECT_FALSE(parsePrefixLabel("[0000000000000000 := Some (false, 0u16)]",
                                2, Error)); // prefix 1 uncovered
  EXPECT_FALSE(parsePrefixLabel("[000000000000000* := None; "
                                "0000000000000001 := None]",
                                2, Error)); // overlapping cubes
  EXPECT_FALSE(parsePrefixLabel("[000000000000000* := Some 3]", 2, Error));
}

TEST(OracleTest, ChecksLabelsAgainstBfs) {
  // FAT(4) with prefix p announced by ToR PrefixLeaf[p]: the labels below
  // are written out by hand from the fat-tree distances (same ToR 0, pod
  // mate 2, agg 1 / 3, core 2, other ToR 4).
  FatInput F = makeFatAllPrefixes(4, 1);
  F.PrefixLeaf = {0, 1, 4, 5, 8, 9, 12, 13};
  auto Label = [](const std::vector<int> &Len) {
    std::string S = "[";
    for (size_t P = 0; P < Len.size(); ++P) {
      std::string Key(16, '0');
      for (int B = 0; B < 16; ++B)
        Key[15 - B] = (P >> B) & 1 ? '1' : '0';
      S += (P ? "; " : "") + Key + " := Some (true, " +
           std::to_string(Len[P]) + "u16)";
    }
    return S + "; 0000000000001*** := None; 000000000001**** := None; "
               "00000000001***** := None; 0000000001****** := None; "
               "000000001******* := None; 00000001******** := None; "
               "0000001********* := None; 000001********** := None; "
               "00001*********** := None; 0001************ := None; "
               "001************* := None; 01************** := None; "
               "1*************** := None]";
  };
  std::vector<std::string> Labels(20);
  for (uint32_t Pod = 0; Pod < 4; ++Pod) {
    for (uint32_t I = 0; I < 2; ++I) { // ToRs
      std::vector<int> Len(8, 4);
      Len[Pod * 2 + I] = 0;
      Len[Pod * 2 + (1 - I)] = 2;
      Labels[Pod * 4 + I] = Label(Len);
    }
    for (uint32_t J = 2; J < 4; ++J) { // aggregation switches
      std::vector<int> Len(8, 3);
      Len[Pod * 2] = Len[Pod * 2 + 1] = 1;
      Labels[Pod * 4 + J] = Label(Len);
    }
  }
  for (uint32_t Core = 16; Core < 20; ++Core)
    Labels[Core] = Label(std::vector<int>(8, 2));
  EXPECT_EQ(checkPrefixLabels(F, Labels), "");

  Labels[17] = Label({2, 2, 2, 3, 2, 2, 2, 2}); // one wrong length
  EXPECT_NE(checkPrefixLabels(F, Labels), "");
  Labels.pop_back();
  EXPECT_NE(checkPrefixLabels(F, Labels), ""); // a node without a label
}

} // namespace
