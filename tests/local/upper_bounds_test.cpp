// The Section 1.1 upper-bound kernels (Luby, Linial, class elimination,
// defective and arbdefective colorings, the class sweep) on the gadget-sized
// builders of local/graph.hpp -- trees, cycles and the symmetric-port
// gadget -- converted with toCsrGraph.  Every CSR verdict is re-checked by
// the Graph verifiers of local/verify.hpp; agreement of the two
// independently written tiers is the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "local/graph.hpp"
#include "local/kernels.hpp"
#include "local/verify.hpp"
#include "support/env_seed.hpp"

namespace relb::local {
namespace {

std::vector<bool> toBools(const std::vector<std::uint8_t>& inSet) {
  return {inSet.begin(), inSet.end()};
}

std::vector<bool> toBools(const std::vector<MisFlag>& state) {
  std::vector<bool> out(state.size());
  for (std::size_t v = 0; v < state.size(); ++v) {
    out[v] = state[v] == MisFlag::kIn;
  }
  return out;
}

ColorRun properColoring(const CsrGraph& g) {
  return reduceToDeltaPlusOne(g, linialColorReduce(g, 1), 1);
}

// Both tiers' verdicts, which must agree; returns the common verdict.
bool isProper(const Graph& legacy, const CsrGraph& g, const ColorRun& run,
              std::uint32_t numColors) {
  bool graphVerdict = run.colors.size() == static_cast<std::size_t>(
                                               legacy.numNodes());
  for (const std::uint32_t c : run.colors) graphVerdict &= c < numColors;
  for (EdgeId e = 0; e < legacy.numEdges(); ++e) {
    const auto [u, v] = legacy.endpoints(e);
    graphVerdict &= run.colors[static_cast<std::size_t>(u)] !=
                    run.colors[static_cast<std::size_t>(v)];
  }
  const bool csrVerdict = csrIsProperColoring(g, run.colors, numColors, 1);
  EXPECT_EQ(csrVerdict, graphVerdict);
  return csrVerdict;
}

bool isMis(const Graph& legacy, const CsrGraph& g, const MisRun& run) {
  const bool csrVerdict = csrIsMaximalIndependentSet(g, run.state, 1);
  EXPECT_EQ(csrVerdict, isMaximalIndependentSet(legacy, toBools(run.state)));
  return csrVerdict;
}

bool isKDegreeDs(const Graph& legacy, const CsrGraph& g, const DomsetRun& run,
                 int k) {
  const bool csrVerdict = csrIsKDegreeDominatingSet(g, run.inSet, k, 1);
  EXPECT_EQ(csrVerdict, isKDegreeDominatingSet(legacy, toBools(run.inSet), k));
  return csrVerdict;
}

bool isKOutdegreeDs(const Graph& legacy, const CsrGraph& g,
                    const DomsetRun& run, const ColorRun& rank, int k) {
  const bool csrVerdict =
      csrIsKOutdegreeDominatingSet(g, run.inSet, rank.colors, k, 1);
  const std::vector<bool> inSet = toBools(run.inSet);
  EXPECT_EQ(csrVerdict,
            isKOutdegreeDominatingSet(
                legacy, inSet, orientByRank(legacy, inSet, rank.colors), k));
  return csrVerdict;
}

bool isMisSet(const Graph& legacy, const CsrGraph& g, const DomsetRun& run) {
  const bool csrVerdict = csrIsKDegreeDominatingSet(g, run.inSet, 0, 1);
  EXPECT_EQ(csrVerdict, isMaximalIndependentSet(legacy, toBools(run.inSet)));
  return csrVerdict;
}

std::vector<bool> classMembers(const ColorRun& coloring, std::uint32_t c) {
  std::vector<bool> out(coloring.colors.size());
  for (std::size_t v = 0; v < out.size(); ++v) {
    out[v] = coloring.colors[v] == c;
  }
  return out;
}

// Max degree inside one class: the defect, counted on both tiers.
int defectOf(const Graph& legacy, const CsrGraph& g, const ColorRun& run) {
  int csrDefect = 0;
  for (Vertex v = 0; v < g.numNodes(); ++v) {
    int same = 0;
    for (const Vertex w : g.neighbors(v)) same += run.colors[w] == run.colors[v];
    csrDefect = std::max(csrDefect, same);
  }
  int graphDefect = 0;
  for (std::uint32_t c = 0; c < run.numColors; ++c) {
    graphDefect =
        std::max(graphDefect, inducedMaxDegree(legacy, classMembers(run, c)));
  }
  EXPECT_EQ(csrDefect, graphDefect);
  return csrDefect;
}

// Max outdegree inside one bin when intra-bin edges point at the smaller
// rank (-1 if two adjacent bin-mates tie), counted on both tiers.
int arbdefectOf(const Graph& legacy, const CsrGraph& g, const ColorRun& bins,
                const ColorRun& rank) {
  const auto csrArbdefect = [&] {
    int worst = 0;
    for (Vertex v = 0; v < g.numNodes(); ++v) {
      int out = 0;
      for (const Vertex w : g.neighbors(v)) {
        if (bins.colors[w] != bins.colors[v]) continue;
        if (rank.colors[w] == rank.colors[v]) return -1;
        out += rank.colors[w] < rank.colors[v];
      }
      worst = std::max(worst, out);
    }
    return worst;
  };
  const int csrOut = csrArbdefect();
  int graphOut = 0;
  for (std::uint32_t b = 0; b < bins.numColors && graphOut >= 0; ++b) {
    const std::vector<bool> members = classMembers(bins, b);
    const int out = inducedMaxOutdegree(
        legacy, members, orientByRank(legacy, members, rank.colors));
    graphOut = out < 0 ? -1 : std::max(graphOut, out);
  }
  EXPECT_EQ(csrOut, graphOut);
  return csrOut;
}

Graph seededTree(int n, int maxDegree, unsigned seed) {
  std::mt19937 rng(seed);
  return randomTree(n, maxDegree, rng);
}

// ---------------------------------------------------------------------------
// Linial reduction and class elimination.
// ---------------------------------------------------------------------------

TEST(NextPrime, SmallValues) {
  EXPECT_EQ(nextPrime(0), 2u);
  EXPECT_EQ(nextPrime(2), 2u);
  EXPECT_EQ(nextPrime(3), 3u);
  EXPECT_EQ(nextPrime(4), 5u);
  EXPECT_EQ(nextPrime(14), 17u);
  EXPECT_EQ(nextPrime(1000), 1009u);
}

TEST(LinialStep, ReducesIdsOnTree) {
  const Graph legacy = completeRegularTree(3, 6);  // 190 nodes
  const CsrGraph g = toCsrGraph(legacy);
  ColorRun ids;
  for (Vertex v = 0; v < g.numNodes(); ++v) ids.colors.push_back(v);
  ColorRun next;
  next.colors.resize(g.numNodes());
  next.numColors = static_cast<std::uint32_t>(
      linialColorRound(g, ids.colors, g.numNodes(), next.colors, 1));
  EXPECT_TRUE(isProper(legacy, g, next, next.numColors));
  EXPECT_LT(next.numColors, g.numNodes());
}

TEST(LinialStep, RejectsImproperInput) {
  const CsrGraph g = toCsrGraph(pathGraph(3));
  const std::vector<std::uint32_t> improper{0, 0, 1};
  std::vector<std::uint32_t> next(3);
  EXPECT_THROW((void)linialColorRound(g, improper, 2, next, 1), re::Error);
}

TEST(LinialReduction, ReachesPolyDeltaColorsFast) {
  for (int delta : {3, 4, 6}) {
    const Graph legacy = completeRegularTree(delta, 4);
    const CsrGraph g = toCsrGraph(legacy);
    const ColorRun run = linialColorReduce(g, 1);
    EXPECT_TRUE(isProper(legacy, g, run, run.numColors));
    // O(Delta^2) colors: q <= nextPrime(~2 Delta + small), so q^2 bounded.
    EXPECT_LE(run.numColors,
              static_cast<std::uint32_t>((4 * delta + 8) * (4 * delta + 8)));
    // log*-ish round count: generously small.
    EXPECT_LE(run.rounds, 8) << "delta=" << delta;
  }
}

TEST(LinialReduction, StopsAtTheFixedPoint) {
  // The reduction stops exactly when one more round would not shrink the
  // palette.
  for (int delta : {3, 4, 6, 9}) {
    const Graph legacy = seededTree(2000, delta, static_cast<unsigned>(delta));
    const CsrGraph g = toCsrGraph(legacy);
    const ColorRun run = linialColorReduce(g, 1);
    ASSERT_GT(run.rounds, 0);
    std::vector<std::uint32_t> next(g.numNodes());
    EXPECT_GE(linialColorRound(g, run.colors, run.numColors, next, 1),
              run.numColors)
        << "delta=" << delta;
  }
}

TEST(LinialReduction, RoundsGrowVerySlowlyWithN) {
  std::mt19937 rng(5);
  const Graph smallLegacy = randomTree(20, 4, rng);
  const Graph largeLegacy = randomTree(4000, 4, rng);
  const CsrGraph small = toCsrGraph(smallLegacy);
  const CsrGraph large = toCsrGraph(largeLegacy);
  const ColorRun rSmall = linialColorReduce(small, 1);
  const ColorRun rLarge = linialColorReduce(large, 1);
  EXPECT_TRUE(isProper(largeLegacy, large, rLarge, rLarge.numColors));
  // 200x more nodes costs at most ~2 extra reduction rounds (log* growth).
  EXPECT_LE(rLarge.rounds, rSmall.rounds + 2);
}

TEST(ReduceToDeltaPlusOne, ProperAndTight) {
  std::mt19937 rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph legacy = randomTree(100, 5, rng);
    const CsrGraph g = toCsrGraph(legacy);
    const ColorRun linial = linialColorReduce(g, 1);
    const ColorRun run = reduceToDeltaPlusOne(g, linial, 1);
    EXPECT_TRUE(isProper(legacy, g, run, g.maxDegree() + 1));
    EXPECT_EQ(run.numColors, g.maxDegree() + 1);
    // One round per eliminated class, on top of the Linial rounds.
    EXPECT_EQ(run.rounds,
              linial.rounds + static_cast<int>(linial.numColors -
                                               run.numColors));
  }
}

TEST(ProperColoring, WorksOnPathAndStar) {
  const Graph path = pathGraph(50);
  EXPECT_TRUE(isProper(path, toCsrGraph(path),
                       properColoring(toCsrGraph(path)), 3));

  const Graph star = starGraph(9);
  EXPECT_TRUE(isProper(star, toCsrGraph(star),
                       properColoring(toCsrGraph(star)), 10));
}

TEST(ProperColoring, SingleNode) {
  const ColorRun run = properColoring(toCsrGraph(Graph(1)));
  EXPECT_EQ(run.numColors, 1u);
  EXPECT_EQ(run.colors[0], 0u);
}

TEST(IsProperColoring, DetectsViolations) {
  const Graph legacy = pathGraph(3);
  const CsrGraph g = toCsrGraph(legacy);
  EXPECT_FALSE(isProper(legacy, g, {{0, 0, 1}, 0, 2}, 2));
  EXPECT_FALSE(isProper(legacy, g, {{0, 2, 0}, 0, 2}, 2));  // out of range
  EXPECT_TRUE(isProper(legacy, g, {{0, 1, 0}, 0, 2}, 2));
  const std::vector<std::uint32_t> tooShort{0, 1};
  EXPECT_THROW((void)csrIsProperColoring(g, tooShort, 2, 1), re::Error);
}

// ---------------------------------------------------------------------------
// Defective and arbdefective colorings.
// ---------------------------------------------------------------------------

struct DefCase {
  int n;
  int maxDegree;
  int k;
  unsigned seed;
};

class DefectiveSweep : public ::testing::TestWithParam<DefCase> {};

TEST_P(DefectiveSweep, DefectAndColorBoundsHold) {
  const auto param = GetParam();
  const Graph legacy = seededTree(param.n, param.maxDegree, param.seed);
  const CsrGraph g = toCsrGraph(legacy);
  const ColorRun proper = properColoring(g);
  ASSERT_TRUE(isProper(legacy, g, proper, proper.numColors));

  const ColorRun def = defectiveColoring(g, proper, param.k, 1);
  EXPECT_LE(defectOf(legacy, g, def), param.k);
  EXPECT_EQ(def.rounds, 1);
  // O((Delta/k)^2 + Delta) classes.
  const int delta = static_cast<int>(g.maxDegree());
  const int budget = delta / (param.k + 1) + 1;
  const int q = static_cast<int>(nextPrime(static_cast<std::uint64_t>(
      std::max({2, budget,
                static_cast<int>(std::ceil(std::sqrt(delta + 1.0)))}))));
  EXPECT_LE(def.numColors, static_cast<std::uint32_t>((q + 30) * (q + 30)));
}

TEST_P(DefectiveSweep, ArbdefectBoundsHold) {
  const auto param = GetParam();
  const Graph legacy = seededTree(param.n, param.maxDegree, param.seed + 1);
  const CsrGraph g = toCsrGraph(legacy);
  const ColorRun proper = properColoring(g);
  const ColorRun arb = arbdefectiveColoring(g, proper, param.k, 1);
  const int out = arbdefectOf(legacy, g, arb, proper);
  ASSERT_GE(out, 0) << "some intra-bin edge unoriented";
  EXPECT_LE(out, param.k);
  // ceil((Delta+1)/(k+1)) bins, one round per proper class.
  EXPECT_EQ(arb.numColors, (g.maxDegree() + 1 + static_cast<std::uint32_t>(
                                                    param.k)) /
                               static_cast<std::uint32_t>(param.k + 1));
  EXPECT_EQ(arb.rounds, static_cast<int>(proper.numColors));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DefectiveSweep,
    ::testing::Values(DefCase{50, 4, 1, 1}, DefCase{100, 5, 1, 2},
                      DefCase{100, 5, 2, 3}, DefCase{200, 8, 2, 4},
                      DefCase{200, 8, 3, 5}, DefCase{300, 10, 4, 6},
                      DefCase{300, 10, 1, 7}, DefCase{500, 12, 5, 8}),
    [](const ::testing::TestParamInfo<DefCase>& info) {
      return "n" + std::to_string(info.param.n) + "d" +
             std::to_string(info.param.maxDegree) + "k" +
             std::to_string(info.param.k) + "s" +
             std::to_string(info.param.seed);
    });

TEST(Defective, ZeroDefectIsProper) {
  const Graph legacy = seededTree(80, 4, 10);
  const CsrGraph g = toCsrGraph(legacy);
  const ColorRun def = defectiveColoring(g, properColoring(g), 0, 1);
  EXPECT_EQ(defectOf(legacy, g, def), 0);
  EXPECT_TRUE(isProper(legacy, g, def, def.numColors));
}

TEST(Defective, LargerKFewerColors) {
  const CsrGraph g = toCsrGraph(seededTree(400, 12, 20));
  const ColorRun proper = properColoring(g);
  EXPECT_LE(defectiveColoring(g, proper, 4, 1).numColors,
            defectiveColoring(g, proper, 1, 1).numColors);
}

TEST(Arbdefective, FewerBinsThanDegreePlusOne) {
  const CsrGraph g = toCsrGraph(seededTree(200, 9, 30));
  const ColorRun arb = arbdefectiveColoring(g, properColoring(g), 3, 1);
  EXPECT_LT(arb.numColors, g.maxDegree() + 1);
}

TEST(Defective, RejectsNegativeK) {
  const CsrGraph g = toCsrGraph(pathGraph(3));
  const ColorRun proper = properColoring(g);
  EXPECT_THROW((void)defectiveColoring(g, proper, -1, 1), re::Error);
  EXPECT_THROW((void)arbdefectiveColoring(g, proper, -1, 1), re::Error);
}

// ---------------------------------------------------------------------------
// The class sweep: colorings -> bounded (out-)degree dominating sets.
// ---------------------------------------------------------------------------

struct DsCase {
  int n;
  int maxDegree;
  int k;
  unsigned seed;
};

class DomSetSweep : public ::testing::TestWithParam<DsCase> {};

TEST_P(DomSetSweep, OutdegreeVariantValid) {
  const auto param = GetParam();
  const Graph legacy = seededTree(param.n, param.maxDegree, param.seed);
  const CsrGraph g = toCsrGraph(legacy);
  const ColorRun proper = properColoring(g);
  const DomsetRun run =
      sweepClasses(g, arbdefectiveColoring(g, proper, param.k, 1), 1);
  EXPECT_TRUE(isKOutdegreeDs(legacy, g, run, proper, param.k));
}

TEST_P(DomSetSweep, DegreeVariantValid) {
  const auto param = GetParam();
  const Graph legacy = seededTree(param.n, param.maxDegree, param.seed + 10);
  const CsrGraph g = toCsrGraph(legacy);
  const DomsetRun run =
      sweepClasses(g, defectiveColoring(g, properColoring(g), param.k, 1), 1);
  EXPECT_TRUE(isKDegreeDs(legacy, g, run, param.k));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DomSetSweep,
    ::testing::Values(DsCase{50, 4, 0, 1}, DsCase{100, 5, 1, 2},
                      DsCase{150, 6, 2, 3}, DsCase{200, 8, 3, 4},
                      DsCase{300, 10, 4, 5}, DsCase{400, 12, 6, 6},
                      DsCase{500, 14, 2, 7}, DsCase{250, 9, 8, 8}),
    [](const ::testing::TestParamInfo<DsCase>& info) {
      return "n" + std::to_string(info.param.n) + "d" +
             std::to_string(info.param.maxDegree) + "k" +
             std::to_string(info.param.k) + "s" +
             std::to_string(info.param.seed);
    });

TEST(DomSet, MisFromColoringIsMis) {
  std::mt19937 rng(42);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph legacy = randomTree(120, 6, rng);
    const CsrGraph g = toCsrGraph(legacy);
    const ColorRun proper = properColoring(g);
    const DomsetRun run = sweepClasses(g, proper, 1);
    EXPECT_TRUE(isMisSet(legacy, g, run));
    EXPECT_EQ(run.rounds, static_cast<int>(proper.numColors));
  }
}

TEST(DomSet, KZeroMatchesMisSemantics) {
  // k = 0 collapses every route to an MIS: the proper classes, the 0-defect
  // coloring and the 0-arbdefect bins all sweep to an independent set.
  const Graph legacy = seededTree(80, 5, 4);
  const CsrGraph g = toCsrGraph(legacy);
  const ColorRun proper = properColoring(g);
  for (const ColorRun& classes :
       {proper, defectiveColoring(g, proper, 0, 1),
        arbdefectiveColoring(g, proper, 0, 1)}) {
    const DomsetRun run = sweepClasses(g, classes, 1);
    EXPECT_TRUE(isMisSet(legacy, g, run));
    EXPECT_TRUE(isKOutdegreeDs(legacy, g, run, proper, 0));
  }
}

TEST(DomSet, SweepRoundsShrinkWithK) {
  // The k-dependence of the paper's upper bound: the sweep stage costs one
  // round per (arb)defective class, and larger k means fewer classes.
  const CsrGraph g = toCsrGraph(seededTree(600, 16, 8));
  const ColorRun proper = properColoring(g);
  EXPECT_LT(sweepClasses(g, arbdefectiveColoring(g, proper, 7, 1), 1).rounds,
            sweepClasses(g, arbdefectiveColoring(g, proper, 1, 1), 1).rounds);
  EXPECT_LT(sweepClasses(g, defectiveColoring(g, proper, 7, 1), 1).rounds,
            sweepClasses(g, defectiveColoring(g, proper, 1, 1), 1).rounds);
}

TEST(DomSet, WorksOnPathologicalTrees) {
  for (const Graph& legacy :
       {starGraph(40), broomGraph(15, 25), pathGraph(100)}) {
    const CsrGraph g = toCsrGraph(legacy);
    const ColorRun proper = properColoring(g);
    for (int k : {0, 1, 3}) {
      const DomsetRun run =
          sweepClasses(g, arbdefectiveColoring(g, proper, k, 1), 1);
      EXPECT_TRUE(isKOutdegreeDs(legacy, g, run, proper, k));
    }
  }
}

TEST(DomSet, LargerKNeverInvalidatesSmallerSolution) {
  // A k-outdegree DS is also a (k+1)-outdegree DS.
  const Graph legacy = seededTree(150, 8, 21);
  const CsrGraph g = toCsrGraph(legacy);
  const ColorRun proper = properColoring(g);
  const DomsetRun run = sweepClasses(g, arbdefectiveColoring(g, proper, 2, 1), 1);
  for (int k = 2; k <= 5; ++k) {
    EXPECT_TRUE(isKOutdegreeDs(legacy, g, run, proper, k));
  }
}

TEST(DomSet, AdjacentSameBinVerticesBothJoin) {
  // The sweep is one LOCAL round per bin: a vertex sees only the
  // memberships of earlier rounds, so two adjacent bin-mates may both join.
  // G[S] then has edges, and the rank orientation keeps them within k.
  const Graph legacy = seededTree(3000, 4, 1);
  const CsrGraph g = toCsrGraph(legacy);
  const ColorRun proper = properColoring(g);
  const int k = 2;
  const DomsetRun run = sweepClasses(g, arbdefectiveColoring(g, proper, k, 1), 1);
  EXPECT_GT(inducedMaxDegree(legacy, toBools(run.inSet)), 0);
  EXPECT_TRUE(isKOutdegreeDs(legacy, g, run, proper, k));
}

TEST(DomSet, RankTieIsRejectedByBothTiers) {
  // A G[S] edge whose endpoints share a rank has no orientation.
  const Graph legacy = starGraph(4);
  const CsrGraph g = toCsrGraph(legacy);
  DomsetRun run;
  run.inSet = {1, 1, 0, 0, 0};  // center 0 and leaf 1
  ColorRun rank{{0, 0, 1, 1, 1}, 0, 2};
  EXPECT_FALSE(isKOutdegreeDs(legacy, g, run, rank, 4));
  rank.colors[1] = 1;  // leaf 1 -> center 0
  EXPECT_TRUE(isKOutdegreeDs(legacy, g, run, rank, 1));
  EXPECT_FALSE(isKOutdegreeDs(legacy, g, run, rank, 0));
  EXPECT_TRUE(isKDegreeDs(legacy, g, run, 1));
  EXPECT_FALSE(isKDegreeDs(legacy, g, run, 0));
}

// ---------------------------------------------------------------------------
// Luby's MIS on the builders' trees.
// ---------------------------------------------------------------------------

struct LubyCase {
  int n;
  int maxDegree;
  unsigned seed;
};

class LubySweep : public ::testing::TestWithParam<LubyCase> {};

TEST_P(LubySweep, ProducesMisOnRandomTrees) {
  const auto param = GetParam();
  const Graph legacy = seededTree(param.n, param.maxDegree, param.seed);
  const CsrGraph g = toCsrGraph(legacy);
  const MisRun run = lubyMis(g, param.seed, 1);
  EXPECT_TRUE(isMis(legacy, g, run));
  EXPECT_GT(run.rounds, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LubySweep,
    ::testing::Values(LubyCase{2, 2, 1}, LubyCase{10, 3, 2},
                      LubyCase{50, 4, 3}, LubyCase{200, 4, 4},
                      LubyCase{200, 8, 5}, LubyCase{1000, 6, 6},
                      LubyCase{1000, 3, 7}, LubyCase{3000, 5, 8}),
    [](const ::testing::TestParamInfo<LubyCase>& info) {
      return "n" + std::to_string(info.param.n) + "d" +
             std::to_string(info.param.maxDegree) + "s" +
             std::to_string(info.param.seed);
    });

TEST(Luby, WorksOnPathologicalTrees) {
  for (const Graph& legacy :
       {starGraph(50), broomGraph(20, 30), pathGraph(200)}) {
    const CsrGraph g = toCsrGraph(legacy);
    EXPECT_TRUE(isMis(legacy, g, lubyMis(g, 99, 1)));
  }
}

TEST(Luby, WorksOnCycles) {
  const Graph legacy = cycleGraph(101);
  const CsrGraph g = toCsrGraph(legacy);
  EXPECT_TRUE(isMis(legacy, g, lubyMis(g, 7, 1)));
}

TEST(Luby, PhasesLogarithmicInN) {
  // Average rounds over seeds must stay within a small multiple of log2 n.
  const CsrGraph g = toCsrGraph(seededTree(2000, 5, 1));
  double total = 0;
  const int trials = 5;
  for (int t = 0; t < trials; ++t) {
    total += lubyMis(g, 100 + static_cast<std::uint64_t>(t), 1).rounds;
  }
  EXPECT_LE(total / trials, 3.0 * std::log2(2000.0));
}

TEST(Luby, SingleNodeJoins) {
  const MisRun run = lubyMis(toCsrGraph(Graph(1)), 3, 1);
  EXPECT_EQ(run.state[0], MisFlag::kIn);
  EXPECT_EQ(run.rounds, 1);
}

// ---------------------------------------------------------------------------
// Non-trees: cycles and the symmetric-port gadget (K_{Delta,Delta}).  The
// paper's algorithms are stated for general graphs; trees are only where
// the *lower* bound lives.
// ---------------------------------------------------------------------------

TEST(NonTree, LubyOnGadget) {
  for (int delta : {2, 3, 5, 8}) {
    const Graph legacy = symmetricPortGadget(delta);
    const CsrGraph g = toCsrGraph(legacy);
    EXPECT_TRUE(isMis(legacy, g, lubyMis(g, 2, 1))) << "delta=" << delta;
  }
}

TEST(NonTree, ColoringOnGadget) {
  for (int delta : {2, 3, 5}) {
    const Graph legacy = symmetricPortGadget(delta);
    const CsrGraph g = toCsrGraph(legacy);
    EXPECT_TRUE(isProper(legacy, g, properColoring(g), g.maxDegree() + 1));
  }
}

TEST(NonTree, MisFromColoringOnCycles) {
  for (int n : {5, 8, 13, 100}) {
    const Graph legacy = cycleGraph(n);
    const CsrGraph g = toCsrGraph(legacy);
    EXPECT_TRUE(isMisSet(legacy, g, sweepClasses(g, properColoring(g), 1)))
        << n;
  }
}

TEST(NonTree, KOutdegreeDsOnGadget) {
  for (int delta : {4, 6}) {
    const Graph legacy = symmetricPortGadget(delta);
    const CsrGraph g = toCsrGraph(legacy);
    const ColorRun proper = properColoring(g);
    for (int k : {0, 1, 2}) {
      const DomsetRun run =
          sweepClasses(g, arbdefectiveColoring(g, proper, k, 1), 1);
      EXPECT_TRUE(isKOutdegreeDs(legacy, g, run, proper, k))
          << "delta=" << delta << " k=" << k;
    }
  }
}

TEST(NonTree, KDegreeDsOnCycle) {
  const Graph legacy = cycleGraph(30);
  const CsrGraph g = toCsrGraph(legacy);
  const ColorRun proper = properColoring(g);
  for (int k : {0, 1, 2}) {
    const DomsetRun run = sweepClasses(g, defectiveColoring(g, proper, k, 1), 1);
    EXPECT_TRUE(isKDegreeDs(legacy, g, run, k)) << k;
  }
}

TEST(NonTree, DefectiveColoringOnGadget) {
  const Graph legacy = symmetricPortGadget(6);
  const CsrGraph g = toCsrGraph(legacy);
  const ColorRun proper = properColoring(g);
  for (int k : {1, 2, 3}) {
    EXPECT_LE(defectOf(legacy, g, defectiveColoring(g, proper, k, 1)), k);
    const int out =
        arbdefectOf(legacy, g, arbdefectiveColoring(g, proper, k, 1), proper);
    ASSERT_GE(out, 0);
    EXPECT_LE(out, k);
  }
}

TEST(NonTree, GreedyEdgeColoringOnGadgetWithinVizing) {
  auto g = symmetricPortGadget(5);
  const int colors = g.properEdgeColorGreedy();
  EXPECT_LE(colors, 2 * g.maxDegree() - 1);
  EXPECT_TRUE(g.edgeColoringIsProper(colors));
}

// ---------------------------------------------------------------------------
// Neighbor order.  The port-numbering adversary permutes each node's ports;
// in the CSR layout that is a permuted, endpoint-flipped edge list.  No
// kernel depends on neighbor order, so every coloring and set comes out
// byte-identical.
// ---------------------------------------------------------------------------

class NeighborOrder : public ::testing::TestWithParam<unsigned> {};

TEST_P(NeighborOrder, ShuffledFlippedEdgeListGivesIdenticalOutputs) {
  const unsigned seed = testsupport::effectiveSeed(GetParam());
  const testsupport::TraceSeed trace(seed);
  const Graph legacy = seededTree(1500, 7, seed);
  const CsrGraph g = toCsrGraph(legacy);
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (EdgeId e = 0; e < legacy.numEdges(); ++e) {
    const auto [u, v] = legacy.endpoints(e);
    edges.emplace_back(static_cast<Vertex>(u), static_cast<Vertex>(v));
  }
  std::mt19937 rng(seed);
  std::shuffle(edges.begin(), edges.end(), rng);
  for (auto& edge : edges) {
    if (rng() % 2 == 0) std::swap(edge.first, edge.second);
  }
  const CsrGraph shuffled = CsrGraph::fromEdges(g.numNodes(), edges);

  const ColorRun linial = linialColorReduce(g, 1);
  EXPECT_EQ(linialColorReduce(shuffled, 1).colors, linial.colors);
  const ColorRun proper = reduceToDeltaPlusOne(g, linial, 1);
  EXPECT_EQ(properColoring(shuffled).colors, proper.colors);
  EXPECT_EQ(defectiveColoring(shuffled, proper, 2, 1).colors,
            defectiveColoring(g, proper, 2, 1).colors);
  const ColorRun arb = arbdefectiveColoring(g, proper, 2, 1);
  EXPECT_EQ(arbdefectiveColoring(shuffled, proper, 2, 1).colors, arb.colors);
  const DomsetRun sweep = sweepClasses(g, arb, 1);
  const DomsetRun sweepShuffled = sweepClasses(shuffled, arb, 1);
  EXPECT_EQ(sweepShuffled.inSet, sweep.inSet);
  EXPECT_EQ(sweepShuffled.dominator, sweep.dominator);
  EXPECT_EQ(lubyMis(shuffled, seed, 1).state, lubyMis(g, seed, 1).state);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NeighborOrder, ::testing::Range(1u, 9u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace relb::local
