// Frontier-based parallel round kernels for the paper's upper bounds.
//
// Four algorithm families, each written as runRound(frontier) -> frontier
// sweeps over the CSR vertex table (local/frontier.hpp has the blocked-range
// discipline and the determinism contract):
//
//   * Luby's randomized MIS.  Per round, an UNDECIDED vertex joins the MIS
//     iff its (priority, id) pair beats every UNDECIDED neighbor's, where
//     priority = splitmix64(seed, round, vertex) -- counter-based randomness,
//     so the coin flips are a pure function of (seed, round, vertex) and the
//     run is reproducible at any thread width.  O(log n) rounds whp.
//
//   * Cole-Vishkin color reduction on rooted trees: iterate the bit-index
//     step from the id-coloring down to <= 6 colors in log* n + O(1) rounds,
//     then three shift-down + recolor round pairs remove the classes 5, 4, 3
//     for a proper 3-coloring.  Fully deterministic -- the measured-round
//     counterpart of the paper's O(Delta + log* n) MIS upper bound.
//
//   * The Section 1.1 MIS -> bounded-out-degree dominating set reduction:
//     one round in which every non-MIS vertex points at an MIS neighbor.
//     The MIS is the dominating set, G[S] is edgeless, so the empty
//     orientation has outdegree 0 <= k for every admissible k.
//
//   * The Section 1.1 coloring route (local/colorings.cpp): Linial rounds
//     from the id-coloring to O(Delta^2) colors, class elimination to
//     Delta+1, the one-round k-defective and the k-arbdefective colorings,
//     and the class sweep that turns any coloring into a dominating set.
//     Every round's frontier is one color class; a vertex reads only slots
//     written in earlier rounds, so the class sweep is a genuine LOCAL round
//     (adjacent same-class vertices may both join).
//
// Kernels return plain data; observability is the caller's job (sim.cpp
// wires RoundHook into obs counters and tracer spans).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "local/csr.hpp"
#include "local/frontier.hpp"

namespace relb::local {

/// Called after every completed round with (round index, vertices processed
/// this round).  Hooks must be cheap; they run on the calling thread.
using RoundHook = std::function<void(int round, std::uint64_t active)>;

/// The per-(seed, round, vertex) priority driving Luby's coin flips.
[[nodiscard]] std::uint64_t lubyPriority(std::uint64_t seed, int round,
                                         Vertex v);

struct MisRun {
  std::vector<MisFlag> state;  // every vertex kIn or kOut on return
  int rounds = 0;
  std::uint64_t misSize = 0;
};

/// One Luby round over `frontier`: phase 1 marks local priority maxima into
/// `inMark` (reading only round-start state), phase 2 commits kIn/kOut and
/// collects the surviving frontier.  `state` and `inMark` must have one slot
/// per vertex; `inMark` is scratch reused across rounds.
[[nodiscard]] Frontier lubyMisRound(const CsrGraph& g, const Frontier& frontier,
                                    std::vector<MisFlag>& state,
                                    std::vector<std::uint8_t>& inMark,
                                    std::uint64_t seed, int round,
                                    int numThreads);

/// Runs Luby rounds until every vertex is decided.
[[nodiscard]] MisRun lubyMis(const CsrGraph& g, std::uint64_t seed,
                             int numThreads, const RoundHook& hook = {});

struct ColorRun {
  std::vector<std::uint32_t> colors;  // proper; values in [0, numColors)
  int rounds = 0;
  std::uint32_t numColors = 0;
};

/// One Cole-Vishkin step: next[v] = 2 * i + bit_i(cur[v]) for the lowest bit
/// i where cur[v] differs from the parent's color (the root uses a virtual
/// parent differing in bit 0).  Exposed for tests and the round benchmarks.
void cvColorRound(const CsrGraph& g, std::span<const Vertex> parents,
                  std::span<const std::uint32_t> cur,
                  std::span<std::uint32_t> next, int numThreads);

/// Full color reduction to a proper 3-coloring of the rooted tree.
[[nodiscard]] ColorRun treeColorReduce(const CsrGraph& g,
                                       std::span<const Vertex> parents,
                                       int numThreads,
                                       const RoundHook& hook = {});

struct DomsetRun {
  std::vector<std::uint8_t> inSet;  // 1 = in the dominating set
  /// dominator[v]: v itself for members, else the chosen member neighbor
  /// (kInvalidVertex marks a domination failure -- the verifier rejects).
  std::vector<Vertex> dominator;
  /// Rounds of this stage alone: 1 for domsetFromMis (MIS not included),
  /// the number of classes for sweepClasses (coloring not included).
  int rounds = 0;
  std::uint64_t setSize = 0;
};

/// The one-round MIS -> 0-outdegree dominating set reduction.
[[nodiscard]] DomsetRun domsetFromMis(const CsrGraph& g,
                                      std::span<const MisFlag> mis,
                                      int numThreads,
                                      const RoundHook& hook = {});

// ---------------------------------------------------------------------------
// The Section 1.1 coloring route (implemented in local/colorings.cpp).
// ---------------------------------------------------------------------------

/// The smallest prime >= v (trial division; v <= ~10^12).
[[nodiscard]] std::uint64_t nextPrime(std::uint64_t v);

/// One Linial round from the proper coloring `cur` with `numColors` colors:
/// colors are read as degree-d polynomials over F_q (the smallest prime q
/// with q > Delta * d), and v keeps (x, p_v(x)) for the first point x where
/// p_v differs from every neighbor's polynomial.  Writes next[v] < q^2 and
/// returns q^2.  Throws re::Error if `cur` is not proper or q^2 >= 2^32.
[[nodiscard]] std::uint64_t linialColorRound(
    const CsrGraph& g, std::span<const std::uint32_t> cur,
    std::uint64_t numColors, std::span<std::uint32_t> next, int numThreads);

/// Linial rounds from the id-coloring while they shrink the palette:
/// O(Delta^2) colors after O(log* n) rounds (Linial '92).
[[nodiscard]] ColorRun linialColorReduce(const CsrGraph& g, int numThreads);

/// Color-class elimination down to Delta+1 colors: one round per removed
/// class, in which the top class (an independent set) recolors greedily
/// into {0..Delta}.  `start` must be proper.
[[nodiscard]] ColorRun reduceToDeltaPlusOne(const CsrGraph& g, ColorRun start,
                                            int numThreads);

/// The one-round k-defective coloring (Kuhn '09 flavor): v reads its proper
/// color as a linear polynomial over F_q (q ~ Delta/(k+1), q^2 >= the input
/// palette) and keeps the point with the fewest agreements with its
/// neighbors.  O((Delta/k)^2) classes, each inducing max degree <= k.
/// Throws re::Error for k < 0.
[[nodiscard]] ColorRun defectiveColoring(const CsrGraph& g,
                                         const ColorRun& proper, int k,
                                         int numThreads);

/// The k-arbdefective coloring: one round per class of `proper`, in which
/// the class picks the least-loaded of ceil((Delta+1)/(k+1)) bins among its
/// already-binned neighbors.  The orientation is implied by `proper`: each
/// intra-bin edge points at the endpoint with the smaller proper color, so
/// every vertex has <= k out-neighbors in its bin (pigeonhole), and
/// proper.colors is the `rank` csrIsKOutdegreeDominatingSet takes.  Throws
/// re::Error for k < 0.
[[nodiscard]] ColorRun arbdefectiveColoring(const CsrGraph& g,
                                            const ColorRun& proper, int k,
                                            int numThreads);

/// The class sweep (coloring -> dominating set), one round per class in
/// increasing color order: a vertex joins iff no neighbor of an earlier
/// class has joined.  It reads only earlier rounds' membership, so adjacent
/// same-class vertices may both join; G[S] edges stay inside one class,
/// which carries the coloring's (arb)defect bound over to G[S].  A proper
/// coloring therefore yields an MIS.  Non-members record their smallest-id
/// member neighbor as dominator.
[[nodiscard]] DomsetRun sweepClasses(const CsrGraph& g,
                                     const ColorRun& coloring, int numThreads);

}  // namespace relb::local
