// Graphs for the LOCAL / port-numbering model simulator.
//
// A Graph is an undirected simple graph with, per node, an ordered list of
// incident half-edges; the position of a half-edge in that list is the
// node's *port number* for it (0-based internally).  Each undirected edge
// has a global edge id shared by its two half-edges, an optional color
// (Delta-edge colorings are first-class, as the paper's lower bound consumes
// one), and an orientation bit (the "edge port numbering" of Section 2.1).
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "local/csr.hpp"
#include "re/types.hpp"

namespace relb::local {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;
using Port = std::int32_t;

struct HalfEdge {
  NodeId neighbor = -1;
  EdgeId edge = -1;
};

class Graph {
 public:
  explicit Graph(NodeId numNodes);

  /// Adds an undirected edge and returns its id.  The first endpoint is the
  /// edge's "side 0" (used as the consistent edge orientation).
  EdgeId addEdge(NodeId u, NodeId v);

  [[nodiscard]] NodeId numNodes() const {
    return static_cast<NodeId>(adj_.size());
  }
  [[nodiscard]] EdgeId numEdges() const {
    return static_cast<EdgeId>(edges_.size());
  }
  [[nodiscard]] int degree(NodeId v) const {
    return static_cast<int>(adj_[static_cast<std::size_t>(v)].size());
  }
  [[nodiscard]] int maxDegree() const;

  [[nodiscard]] const std::vector<HalfEdge>& neighbors(NodeId v) const {
    return adj_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] HalfEdge halfEdge(NodeId v, Port p) const {
    return adj_[static_cast<std::size_t>(v)][static_cast<std::size_t>(p)];
  }
  [[nodiscard]] std::pair<NodeId, NodeId> endpoints(EdgeId e) const {
    return edges_[static_cast<std::size_t>(e)];
  }

  /// Port of `v` on edge `e`; throws if `v` is not an endpoint.
  [[nodiscard]] Port portOf(NodeId v, EdgeId e) const;

  /// Edge colors (0-based).  Unset until assigned; a graph without edges
  /// counts as (vacuously) colored.
  [[nodiscard]] bool hasEdgeColoring() const {
    return edges_.empty() || !edgeColor_.empty();
  }
  [[nodiscard]] int edgeColor(EdgeId e) const {
    return edgeColor_[static_cast<std::size_t>(e)];
  }
  void setEdgeColors(std::vector<int> colors);

  /// Computes a proper edge coloring greedily and stores it; returns the
  /// number of colors used (<= 2*maxDegree - 1; on trees built by the
  /// builders below, exactly maxDegree when `delta` is passed).
  int properEdgeColorGreedy();

  /// True iff the stored coloring is a proper edge coloring with colors in
  /// [0, numColors).
  [[nodiscard]] bool edgeColoringIsProper(int numColors) const;

  /// Randomly permutes every node's port order (the adversary's power in
  /// the PN model).  Edge ids, colors and endpoints are unaffected.
  void shufflePorts(std::mt19937& rng);

  /// True iff the graph is connected and acyclic.
  [[nodiscard]] bool isTree() const;

  /// Girth (length of shortest cycle); returns -1 for forests.
  [[nodiscard]] int girth() const;

 private:
  std::vector<std::vector<HalfEdge>> adj_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
  std::vector<int> edgeColor_;
};

// ---------------------------------------------------------------------------
// Builders.
// ---------------------------------------------------------------------------

/// Complete Delta-regular tree of the given depth: every internal node has
/// degree exactly `delta`, leaves sit at distance `depth` from the root.
/// Edges are Delta-edge-colored on construction (a proper coloring exists
/// trivially on trees).
[[nodiscard]] Graph completeRegularTree(int delta, int depth);

/// Uniform random tree on n nodes (random attachment with degree cap).
/// Delta-edge-colored on construction.
[[nodiscard]] Graph randomTree(NodeId n, int maxDegree, std::mt19937& rng);

/// Path on n nodes.
[[nodiscard]] Graph pathGraph(NodeId n);

/// Cycle on n nodes.
[[nodiscard]] Graph cycleGraph(NodeId n);

/// Star with n leaves.
[[nodiscard]] Graph starGraph(NodeId leaves);

/// "Broom": a path of length `handle` whose last node carries `bristles`
/// extra leaves.  A classic pathological tree for MIS algorithms.
[[nodiscard]] Graph broomGraph(NodeId handle, NodeId bristles);

/// The symmetric-port gadget of Lemmas 12/15: a Delta-regular,
/// Delta-edge-colored graph where the edge of color i uses port i at *both*
/// endpoints.  Realized as K_{Delta,Delta} with parts interleaved (girth 4;
/// sufficient for 0-round arguments).
[[nodiscard]] Graph symmetricPortGadget(int delta);

/// The same graph in the CSR layout, with node ids unchanged: edges are
/// passed to CsrGraph::fromEdges in edge-id order, so each neighbor list
/// follows the edge ids (not the port order).
[[nodiscard]] CsrGraph toCsrGraph(const Graph& g);

}  // namespace relb::local
