// The bit-identity contract (docs/simulator.md): for a fixed (family,
// nodes, maxDegree, seed), every kernel produces byte-identical per-node
// output, and every verifier the same verdict, at every thread width.  These
// tests compare full state vectors -- not just checksums -- across widths
// {1, 2, 8}, and run under TSan in CI to certify the kernels' two-phase
// barrier discipline is race-free.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "local/families.hpp"
#include "local/kernels.hpp"
#include "local/sim.hpp"
#include "local/verify.hpp"

namespace relb::local {
namespace {

constexpr int kWidths[] = {1, 2, 8};

TEST(SimParallel, LubyMisStateIsBitIdenticalAcrossWidths) {
  const TreeInstance inst = makeTree(Family::kRandomTree, 50000, 0, 21);
  const MisRun base = lubyMis(inst.graph, 21, kWidths[0]);
  for (std::size_t i = 1; i < std::size(kWidths); ++i) {
    const MisRun run = lubyMis(inst.graph, 21, kWidths[i]);
    EXPECT_EQ(run.rounds, base.rounds) << "width " << kWidths[i];
    EXPECT_EQ(run.misSize, base.misSize) << "width " << kWidths[i];
    EXPECT_EQ(run.state, base.state) << "width " << kWidths[i];
  }
}

TEST(SimParallel, ColorReductionIsBitIdenticalAcrossWidths) {
  const TreeInstance inst = makeTree(Family::kBoundedDegreeTree, 50000, 0, 22);
  const ColorRun base = treeColorReduce(inst.graph, inst.parents, kWidths[0]);
  for (std::size_t i = 1; i < std::size(kWidths); ++i) {
    const ColorRun run =
        treeColorReduce(inst.graph, inst.parents, kWidths[i]);
    EXPECT_EQ(run.rounds, base.rounds) << "width " << kWidths[i];
    EXPECT_EQ(run.numColors, base.numColors) << "width " << kWidths[i];
    EXPECT_EQ(run.colors, base.colors) << "width " << kWidths[i];
  }
}

TEST(SimParallel, DomsetReductionIsBitIdenticalAcrossWidths) {
  const TreeInstance inst = makeTree(Family::kCompleteTree, 50000, 0, 23);
  const MisRun mis = lubyMis(inst.graph, 23, 1);
  const DomsetRun base = domsetFromMis(inst.graph, mis.state, kWidths[0]);
  for (std::size_t i = 1; i < std::size(kWidths); ++i) {
    const DomsetRun run = domsetFromMis(inst.graph, mis.state, kWidths[i]);
    EXPECT_EQ(run.inSet, base.inSet) << "width " << kWidths[i];
    EXPECT_EQ(run.dominator, base.dominator) << "width " << kWidths[i];
  }
}

// The coloring route on a 50000-node bounded-degree tree: the Linial round,
// the defective coloring and the verifiers sweep all vertices in ~7 blocks;
// with Delta <= 4 each of the <= 5 proper classes the arbdefective coloring
// and the sweep fan out spans 1-2 blocks.
TEST(SimParallel, ColoringRouteIsBitIdenticalAcrossWidths) {
  const TreeInstance inst = makeTree(Family::kBoundedDegreeTree, 50000, 4, 24);
  const CsrGraph& g = inst.graph;
  const ColorRun linial = linialColorReduce(g, kWidths[0]);
  const ColorRun proper = reduceToDeltaPlusOne(g, linial, kWidths[0]);
  const ColorRun defective = defectiveColoring(g, proper, 1, kWidths[0]);
  const ColorRun bins = arbdefectiveColoring(g, proper, 1, kWidths[0]);
  const DomsetRun sweep = sweepClasses(g, bins, kWidths[0]);
  for (std::size_t i = 1; i < std::size(kWidths); ++i) {
    const int width = kWidths[i];
    EXPECT_EQ(linialColorReduce(g, width).colors, linial.colors)
        << "width " << width;
    const ColorRun p = reduceToDeltaPlusOne(g, linial, width);
    EXPECT_EQ(p.colors, proper.colors) << "width " << width;
    EXPECT_EQ(p.rounds, proper.rounds) << "width " << width;
    EXPECT_EQ(defectiveColoring(g, proper, 1, width).colors, defective.colors)
        << "width " << width;
    EXPECT_EQ(arbdefectiveColoring(g, proper, 1, width).colors, bins.colors)
        << "width " << width;
    const DomsetRun run = sweepClasses(g, bins, width);
    EXPECT_EQ(run.inSet, sweep.inSet) << "width " << width;
    EXPECT_EQ(run.dominator, sweep.dominator) << "width " << width;
    EXPECT_EQ(run.setSize, sweep.setSize) << "width " << width;
  }
}

TEST(SimParallel, DomsetVerifiersAgreeAcrossWidths) {
  const TreeInstance inst = makeTree(Family::kBoundedDegreeTree, 50000, 4, 25);
  const CsrGraph& g = inst.graph;
  const ColorRun proper =
      reduceToDeltaPlusOne(g, linialColorReduce(g, 1), 1);
  const DomsetRun outdegree =
      sweepClasses(g, arbdefectiveColoring(g, proper, 1, 1), 1);
  const DomsetRun degree =
      sweepClasses(g, defectiveColoring(g, proper, 1, 1), 1);
  for (const int width : kWidths) {
    EXPECT_TRUE(csrIsKOutdegreeDominatingSet(g, outdegree.inSet,
                                             proper.colors, 1, width))
        << "width " << width;
    EXPECT_FALSE(csrIsKOutdegreeDominatingSet(g, outdegree.inSet,
                                              proper.colors, 0, width))
        << "width " << width;  // G[S] has edges
    EXPECT_TRUE(csrIsKDegreeDominatingSet(g, degree.inSet, 1, width))
        << "width " << width;
    EXPECT_FALSE(csrIsKDegreeDominatingSet(g, outdegree.inSet, 0, width))
        << "width " << width;  // G[S] has edges
  }
}

TEST(SimParallel, RunSimChecksumsAgreeAcrossWidthsForEveryAlgo) {
  for (const Algo algo :
       {Algo::kLubyMis, Algo::kColorReduction, Algo::kDomsetReduction}) {
    SimOptions options;
    options.family = Family::kRandomTree;
    options.nodes = 20000;
    options.algo = algo;
    options.seed = 5;
    options.numThreads = 1;
    const SimResult base = runSim(options);
    EXPECT_TRUE(base.verified) << algoName(algo);
    for (std::size_t i = 1; i < std::size(kWidths); ++i) {
      options.numThreads = kWidths[i];
      const SimResult run = runSim(options);
      EXPECT_EQ(run.stateChecksum, base.stateChecksum)
          << algoName(algo) << " width " << kWidths[i];
      EXPECT_EQ(run.rounds, base.rounds) << algoName(algo);
      EXPECT_EQ(run.solutionSize, base.solutionSize) << algoName(algo);
    }
  }
}

TEST(SimParallel, DifferentSeedsProduceDifferentMis) {
  const TreeInstance inst = makeTree(Family::kRandomTree, 20000, 0, 30);
  const MisRun a = lubyMis(inst.graph, 1, 2);
  const MisRun b = lubyMis(inst.graph, 2, 2);
  EXPECT_NE(a.state, b.state);
}

}  // namespace
}  // namespace relb::local
