// Direct verifiers for the concrete graph problems of the paper:
// independent sets, dominating sets, MIS, and k-(out)degree dominating sets
// (Section 1: a k-outdegree dominating set is a dominating set S together
// with an orientation of G[S] in which every node of S has outdegree at most
// k; for k = 0 both notions coincide with MIS).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "local/csr.hpp"
#include "local/graph.hpp"

namespace relb::local {

/// Orientation of the edges inside G[S]: for each edge id, +1 if oriented
/// from endpoint 0 to endpoint 1, -1 for the reverse, 0 if the edge is not
/// inside G[S] (ignored).
using EdgeOrientation = std::vector<int>;

[[nodiscard]] bool isIndependentSet(const Graph& g,
                                    const std::vector<bool>& inSet);

[[nodiscard]] bool isDominatingSet(const Graph& g,
                                   const std::vector<bool>& inSet);

/// Maximal independent set == independent + dominating.
[[nodiscard]] bool isMaximalIndependentSet(const Graph& g,
                                           const std::vector<bool>& inSet);

/// Maximum degree of the induced subgraph G[S].
[[nodiscard]] int inducedMaxDegree(const Graph& g,
                                   const std::vector<bool>& inSet);

/// k-degree dominating set: dominating and G[S] has max degree <= k.
[[nodiscard]] bool isKDegreeDominatingSet(const Graph& g,
                                          const std::vector<bool>& inSet,
                                          int k);

/// k-outdegree dominating set: dominating, every edge of G[S] oriented, and
/// every node of S has outdegree <= k.
[[nodiscard]] bool isKOutdegreeDominatingSet(const Graph& g,
                                             const std::vector<bool>& inSet,
                                             const EdgeOrientation& orientation,
                                             int k);

/// Maximum outdegree within G[S] under the given orientation; -1 if some
/// G[S] edge is unoriented.
[[nodiscard]] int inducedMaxOutdegree(const Graph& g,
                                      const std::vector<bool>& inSet,
                                      const EdgeOrientation& orientation);

/// Orients every G[S] edge (from the smaller to the larger node id; the
/// paper's remark after Corollary 2: a k-degree dominating set becomes a
/// k-outdegree dominating set under *any* orientation).
[[nodiscard]] EdgeOrientation orientInduced(const Graph& g,
                                            const std::vector<bool>& inSet);

/// Orients every G[S] edge towards the endpoint with the smaller rank (the
/// k-arbdefective coloring's rule, rank = the proper color it came from).
/// Edges whose endpoints tie stay 0, so isKOutdegreeDominatingSet rejects
/// them exactly as csrIsKOutdegreeDominatingSet does.
[[nodiscard]] EdgeOrientation orientByRank(const Graph& g,
                                           const std::vector<bool>& inSet,
                                           std::span<const std::uint32_t> rank);

// ---------------------------------------------------------------------------
// Per-node-state verifiers over the CSR layout (the massive-scale simulator's
// outputs; docs/simulator.md).  Each sweeps the vertex table in parallel --
// the verdict is a pure AND over per-node checks, so it is deterministic at
// every thread width -- and each check reads only the node's own slot and its
// neighbors' slots, exactly the locality a LOCAL-model checker is allowed.
// ---------------------------------------------------------------------------

/// No kIn vertex has a kIn neighbor, and no vertex is kUndecided.
[[nodiscard]] bool csrIsIndependentSet(const CsrGraph& g,
                                       std::span<const MisFlag> state,
                                       int numThreads);

/// Every kOut vertex has a kIn neighbor, and no vertex is kUndecided.
[[nodiscard]] bool csrIsDominatingSet(const CsrGraph& g,
                                      std::span<const MisFlag> state,
                                      int numThreads);

/// Independent + dominating.
[[nodiscard]] bool csrIsMaximalIndependentSet(const CsrGraph& g,
                                              std::span<const MisFlag> state,
                                              int numThreads);

/// Colors are < numColors and no edge is monochromatic.
[[nodiscard]] bool csrIsProperColoring(const CsrGraph& g,
                                       std::span<const std::uint32_t> colors,
                                       std::uint32_t numColors,
                                       int numThreads);

/// The Section 1.1 reduction's certificate: members dominate themselves,
/// every non-member's `dominator` is an adjacent member, and G[S] is
/// edgeless -- so the (empty) orientation has outdegree 0, making `inSet` a
/// 0-outdegree (hence k-outdegree, for every k >= 0) dominating set.
[[nodiscard]] bool csrIsZeroOutdegreeDominatingSet(
    const CsrGraph& g, std::span<const std::uint8_t> inSet,
    std::span<const Vertex> dominator, int numThreads);

/// Every non-member has a member neighbor, and every member has at most k
/// member neighbors (G[S] has max degree <= k).  k = 0 is exactly an MIS.
[[nodiscard]] bool csrIsKDegreeDominatingSet(
    const CsrGraph& g, std::span<const std::uint8_t> inSet, int k,
    int numThreads);

/// Dominating, and under the orientation that points every G[S] edge at its
/// endpoint of smaller `rank`, every member has outdegree <= k.  A G[S] edge
/// whose endpoints tie in rank is unoriented, and rejected.  The rank
/// stands in for per-edge orientation bits, so CsrGraph needs no edge ids.
[[nodiscard]] bool csrIsKOutdegreeDominatingSet(
    const CsrGraph& g, std::span<const std::uint8_t> inSet,
    std::span<const std::uint32_t> rank, int k, int numThreads);

}  // namespace relb::local
