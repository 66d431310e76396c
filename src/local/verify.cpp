#include "local/verify.hpp"

#include <algorithm>

#include "re/types.hpp"
#include "util/thread_pool.hpp"

namespace relb::local {

namespace {

void requireSize(const Graph& g, const std::vector<bool>& inSet) {
  if (static_cast<NodeId>(inSet.size()) != g.numNodes()) {
    throw re::Error("verify: set size does not match node count");
  }
}

void requireCsrSize(const CsrGraph& g, std::size_t slots, const char* what) {
  if (slots != g.numNodes()) {
    throw re::Error(std::string("verify: ") + what +
                    " size does not match node count");
  }
}

/// AND of perNode(v) over all vertices, swept in parallel chunks.  The
/// accumulator is uint8_t, not bool: parallel_reduce stores parts in a
/// std::vector<T>, and vector<bool>'s proxy references don't bind.
template <typename PerNode>
bool allNodes(const CsrGraph& g, int numThreads, PerNode&& perNode) {
  return util::parallel_reduce<std::uint8_t>(
             numThreads, g.numNodes(), 1,
             [&](std::size_t begin, std::size_t end) -> std::uint8_t {
               for (std::size_t v = begin; v < end; ++v) {
                 if (!perNode(static_cast<Vertex>(v))) return 0;
               }
               return 1;
             },
             [](std::uint8_t acc, std::uint8_t part) -> std::uint8_t {
               return acc & part;
             }) != 0;
}

}  // namespace

bool isIndependentSet(const Graph& g, const std::vector<bool>& inSet) {
  requireSize(g, inSet);
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    if (inSet[static_cast<std::size_t>(u)] &&
        inSet[static_cast<std::size_t>(v)]) {
      return false;
    }
  }
  return true;
}

bool isDominatingSet(const Graph& g, const std::vector<bool>& inSet) {
  requireSize(g, inSet);
  for (NodeId v = 0; v < g.numNodes(); ++v) {
    if (inSet[static_cast<std::size_t>(v)]) continue;
    bool dominated = false;
    for (const HalfEdge& he : g.neighbors(v)) {
      if (inSet[static_cast<std::size_t>(he.neighbor)]) {
        dominated = true;
        break;
      }
    }
    if (!dominated) return false;
  }
  return true;
}

bool isMaximalIndependentSet(const Graph& g, const std::vector<bool>& inSet) {
  return isIndependentSet(g, inSet) && isDominatingSet(g, inSet);
}

int inducedMaxDegree(const Graph& g, const std::vector<bool>& inSet) {
  requireSize(g, inSet);
  int best = 0;
  for (NodeId v = 0; v < g.numNodes(); ++v) {
    if (!inSet[static_cast<std::size_t>(v)]) continue;
    int d = 0;
    for (const HalfEdge& he : g.neighbors(v)) {
      if (inSet[static_cast<std::size_t>(he.neighbor)]) ++d;
    }
    best = std::max(best, d);
  }
  return best;
}

bool isKDegreeDominatingSet(const Graph& g, const std::vector<bool>& inSet,
                            int k) {
  return isDominatingSet(g, inSet) && inducedMaxDegree(g, inSet) <= k;
}

int inducedMaxOutdegree(const Graph& g, const std::vector<bool>& inSet,
                        const EdgeOrientation& orientation) {
  requireSize(g, inSet);
  if (static_cast<EdgeId>(orientation.size()) != g.numEdges()) {
    throw re::Error("verify: orientation size does not match edge count");
  }
  std::vector<int> outdeg(static_cast<std::size_t>(g.numNodes()), 0);
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    const bool inside = inSet[static_cast<std::size_t>(u)] &&
                        inSet[static_cast<std::size_t>(v)];
    if (!inside) continue;
    const int o = orientation[static_cast<std::size_t>(e)];
    if (o == 1) {
      ++outdeg[static_cast<std::size_t>(u)];
    } else if (o == -1) {
      ++outdeg[static_cast<std::size_t>(v)];
    } else {
      return -1;  // unoriented G[S] edge
    }
  }
  return *std::max_element(outdeg.begin(), outdeg.end());
}

bool isKOutdegreeDominatingSet(const Graph& g, const std::vector<bool>& inSet,
                               const EdgeOrientation& orientation, int k) {
  if (!isDominatingSet(g, inSet)) return false;
  const int out = inducedMaxOutdegree(g, inSet, orientation);
  return out >= 0 && out <= k;
}

EdgeOrientation orientInduced(const Graph& g, const std::vector<bool>& inSet) {
  requireSize(g, inSet);
  EdgeOrientation orientation(static_cast<std::size_t>(g.numEdges()), 0);
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    if (inSet[static_cast<std::size_t>(u)] &&
        inSet[static_cast<std::size_t>(v)]) {
      orientation[static_cast<std::size_t>(e)] = u < v ? +1 : -1;
    }
  }
  return orientation;
}

EdgeOrientation orientByRank(const Graph& g, const std::vector<bool>& inSet,
                             std::span<const std::uint32_t> rank) {
  requireSize(g, inSet);
  if (static_cast<NodeId>(rank.size()) != g.numNodes()) {
    throw re::Error("verify: rank size does not match node count");
  }
  EdgeOrientation orientation(static_cast<std::size_t>(g.numEdges()), 0);
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    const auto ru = rank[static_cast<std::size_t>(u)];
    const auto rv = rank[static_cast<std::size_t>(v)];
    if (inSet[static_cast<std::size_t>(u)] &&
        inSet[static_cast<std::size_t>(v)] && ru != rv) {
      orientation[static_cast<std::size_t>(e)] = rv < ru ? +1 : -1;
    }
  }
  return orientation;
}

bool csrIsIndependentSet(const CsrGraph& g, std::span<const MisFlag> state,
                         int numThreads) {
  requireCsrSize(g, state.size(), "state");
  return allNodes(g, numThreads, [&](Vertex v) {
    if (state[v] == MisFlag::kUndecided) return false;
    if (state[v] != MisFlag::kIn) return true;
    for (const Vertex w : g.neighbors(v)) {
      if (state[w] == MisFlag::kIn) return false;
    }
    return true;
  });
}

bool csrIsDominatingSet(const CsrGraph& g, std::span<const MisFlag> state,
                        int numThreads) {
  requireCsrSize(g, state.size(), "state");
  return allNodes(g, numThreads, [&](Vertex v) {
    if (state[v] == MisFlag::kUndecided) return false;
    if (state[v] != MisFlag::kOut) return true;
    for (const Vertex w : g.neighbors(v)) {
      if (state[w] == MisFlag::kIn) return true;
    }
    return false;
  });
}

bool csrIsMaximalIndependentSet(const CsrGraph& g,
                                std::span<const MisFlag> state,
                                int numThreads) {
  return csrIsIndependentSet(g, state, numThreads) &&
         csrIsDominatingSet(g, state, numThreads);
}

bool csrIsProperColoring(const CsrGraph& g,
                         std::span<const std::uint32_t> colors,
                         std::uint32_t numColors, int numThreads) {
  requireCsrSize(g, colors.size(), "colors");
  return allNodes(g, numThreads, [&](Vertex v) {
    if (colors[v] >= numColors) return false;
    for (const Vertex w : g.neighbors(v)) {
      if (colors[w] == colors[v]) return false;
    }
    return true;
  });
}

bool csrIsZeroOutdegreeDominatingSet(const CsrGraph& g,
                                     std::span<const std::uint8_t> inSet,
                                     std::span<const Vertex> dominator,
                                     int numThreads) {
  requireCsrSize(g, inSet.size(), "inSet");
  requireCsrSize(g, dominator.size(), "dominator");
  return allNodes(g, numThreads, [&](Vertex v) {
    if (inSet[v] != 0) {
      // Members must certify themselves and induce no G[S] edge (outdegree 0
      // under the empty orientation needs G[S] edgeless).
      if (dominator[v] != v) return false;
      for (const Vertex w : g.neighbors(v)) {
        if (inSet[w] != 0) return false;
      }
      return true;
    }
    const Vertex d = dominator[v];
    if (d == kInvalidVertex || d >= g.numNodes() || inSet[d] == 0) return false;
    for (const Vertex w : g.neighbors(v)) {
      if (w == d) return true;
    }
    return false;
  });
}

bool csrIsKDegreeDominatingSet(const CsrGraph& g,
                               std::span<const std::uint8_t> inSet, int k,
                               int numThreads) {
  requireCsrSize(g, inSet.size(), "inSet");
  return allNodes(g, numThreads, [&](Vertex v) {
    int members = 0;
    for (const Vertex w : g.neighbors(v)) members += inSet[w] != 0;
    return inSet[v] != 0 ? members <= k : members > 0;
  });
}

bool csrIsKOutdegreeDominatingSet(const CsrGraph& g,
                                  std::span<const std::uint8_t> inSet,
                                  std::span<const std::uint32_t> rank, int k,
                                  int numThreads) {
  requireCsrSize(g, inSet.size(), "inSet");
  requireCsrSize(g, rank.size(), "rank");
  return allNodes(g, numThreads, [&](Vertex v) {
    const auto neighbors = g.neighbors(v);
    if (inSet[v] == 0) {
      return std::any_of(neighbors.begin(), neighbors.end(),
                         [&](Vertex w) { return inSet[w] != 0; });
    }
    int outdegree = 0;
    for (const Vertex w : neighbors) {
      if (inSet[w] == 0) continue;
      if (rank[w] == rank[v]) return false;  // unoriented G[S] edge
      outdegree += rank[w] < rank[v];
    }
    return outdegree <= k;
  });
}

}  // namespace relb::local
