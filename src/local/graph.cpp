#include "local/graph.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <numeric>

#include "re/types.hpp"

namespace relb::local {

Graph::Graph(NodeId numNodes) : adj_(static_cast<std::size_t>(numNodes)) {
  if (numNodes < 1) throw re::Error("Graph: need at least one node");
}

EdgeId Graph::addEdge(NodeId u, NodeId v) {
  if (u < 0 || v < 0 || u >= numNodes() || v >= numNodes() || u == v) {
    throw re::Error("Graph::addEdge: bad endpoints");
  }
  const EdgeId e = numEdges();
  edges_.emplace_back(u, v);
  adj_[static_cast<std::size_t>(u)].push_back({v, e});
  adj_[static_cast<std::size_t>(v)].push_back({u, e});
  return e;
}

int Graph::maxDegree() const {
  int d = 0;
  for (const auto& list : adj_) d = std::max(d, static_cast<int>(list.size()));
  return d;
}

Port Graph::portOf(NodeId v, EdgeId e) const {
  const auto& list = adj_[static_cast<std::size_t>(v)];
  for (std::size_t p = 0; p < list.size(); ++p) {
    if (list[p].edge == e) return static_cast<Port>(p);
  }
  throw re::Error("Graph::portOf: node not incident to edge");
}

void Graph::setEdgeColors(std::vector<int> colors) {
  if (colors.size() != edges_.size()) {
    throw re::Error("Graph::setEdgeColors: size mismatch");
  }
  edgeColor_ = std::move(colors);
}

int Graph::properEdgeColorGreedy() {
  edgeColor_.assign(edges_.size(), -1);
  // Process edges in BFS order from node 0 (covers all components); on trees
  // this guarantees at most maxDegree colors.
  std::vector<bool> visited(static_cast<std::size_t>(numNodes()), false);
  std::vector<EdgeId> order;
  order.reserve(edges_.size());
  for (NodeId start = 0; start < numNodes(); ++start) {
    if (visited[static_cast<std::size_t>(start)]) continue;
    std::deque<NodeId> queue{start};
    visited[static_cast<std::size_t>(start)] = true;
    while (!queue.empty()) {
      const NodeId v = queue.front();
      queue.pop_front();
      for (const HalfEdge& he : neighbors(v)) {
        if (!visited[static_cast<std::size_t>(he.neighbor)]) {
          visited[static_cast<std::size_t>(he.neighbor)] = true;
          order.push_back(he.edge);
          queue.push_back(he.neighbor);
        }
      }
    }
  }
  // Non-tree edges (not reached via BFS-tree discovery) get appended.
  std::vector<bool> inOrder(edges_.size(), false);
  for (EdgeId e : order) inOrder[static_cast<std::size_t>(e)] = true;
  for (EdgeId e = 0; e < numEdges(); ++e) {
    if (!inOrder[static_cast<std::size_t>(e)]) order.push_back(e);
  }

  int numColors = 0;
  for (EdgeId e : order) {
    const auto [u, v] = endpoints(e);
    std::vector<bool> used(static_cast<std::size_t>(2 * maxDegree()), false);
    for (const HalfEdge& he : neighbors(u)) {
      const int c = edgeColor_[static_cast<std::size_t>(he.edge)];
      if (c >= 0) used[static_cast<std::size_t>(c)] = true;
    }
    for (const HalfEdge& he : neighbors(v)) {
      const int c = edgeColor_[static_cast<std::size_t>(he.edge)];
      if (c >= 0) used[static_cast<std::size_t>(c)] = true;
    }
    int color = 0;
    while (used[static_cast<std::size_t>(color)]) ++color;
    edgeColor_[static_cast<std::size_t>(e)] = color;
    numColors = std::max(numColors, color + 1);
  }
  return numColors;
}

bool Graph::edgeColoringIsProper(int numColors) const {
  if (!hasEdgeColoring()) return false;
  if (edges_.empty()) return true;
  for (int c : edgeColor_) {
    if (c < 0 || c >= numColors) return false;
  }
  for (NodeId v = 0; v < numNodes(); ++v) {
    std::vector<bool> seen(static_cast<std::size_t>(numColors), false);
    for (const HalfEdge& he : neighbors(v)) {
      const int c = edgeColor_[static_cast<std::size_t>(he.edge)];
      if (seen[static_cast<std::size_t>(c)]) return false;
      seen[static_cast<std::size_t>(c)] = true;
    }
  }
  return true;
}

void Graph::shufflePorts(std::mt19937& rng) {
  for (auto& list : adj_) {
    std::shuffle(list.begin(), list.end(), rng);
  }
}

bool Graph::isTree() const {
  if (numEdges() != numNodes() - 1) return false;
  std::vector<bool> visited(static_cast<std::size_t>(numNodes()), false);
  std::deque<NodeId> queue{0};
  visited[0] = true;
  NodeId reached = 1;
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    for (const HalfEdge& he : neighbors(v)) {
      if (!visited[static_cast<std::size_t>(he.neighbor)]) {
        visited[static_cast<std::size_t>(he.neighbor)] = true;
        ++reached;
        queue.push_back(he.neighbor);
      }
    }
  }
  return reached == numNodes();
}

int Graph::girth() const {
  int best = -1;
  // BFS from every node; a non-tree edge at depths (d1, d2) closes a cycle
  // of length d1 + d2 + 1.
  for (NodeId start = 0; start < numNodes(); ++start) {
    std::vector<int> dist(static_cast<std::size_t>(numNodes()), -1);
    std::vector<EdgeId> parentEdge(static_cast<std::size_t>(numNodes()), -1);
    std::deque<NodeId> queue{start};
    dist[static_cast<std::size_t>(start)] = 0;
    while (!queue.empty()) {
      const NodeId v = queue.front();
      queue.pop_front();
      for (const HalfEdge& he : neighbors(v)) {
        if (he.edge == parentEdge[static_cast<std::size_t>(v)]) continue;
        if (dist[static_cast<std::size_t>(he.neighbor)] < 0) {
          dist[static_cast<std::size_t>(he.neighbor)] =
              dist[static_cast<std::size_t>(v)] + 1;
          parentEdge[static_cast<std::size_t>(he.neighbor)] = he.edge;
          queue.push_back(he.neighbor);
        } else {
          const int cycle = dist[static_cast<std::size_t>(v)] +
                            dist[static_cast<std::size_t>(he.neighbor)] + 1;
          if (best < 0 || cycle < best) best = cycle;
        }
      }
    }
  }
  return best;
}

Graph completeRegularTree(int delta, int depth) {
  if (delta < 2 || depth < 0) {
    throw re::Error("completeRegularTree: bad parameters");
  }
  // Count nodes level by level.
  std::vector<NodeId> levelSize{1};
  for (int d = 1; d <= depth; ++d) {
    levelSize.push_back(d == 1 ? delta
                               : levelSize.back() * (delta - 1));
  }
  const NodeId total = std::accumulate(levelSize.begin(), levelSize.end(), 0);
  Graph g(total);
  std::vector<int> colors;
  // BFS construction; track each node's parent-edge color to avoid reuse.
  struct Pending {
    NodeId node;
    int level;
    int parentColor;  // -1 for root
  };
  std::deque<Pending> queue{{0, 0, -1}};
  NodeId next = 1;
  while (!queue.empty()) {
    const auto [v, level, parentColor] = queue.front();
    queue.pop_front();
    if (level == depth) continue;
    const int children = (level == 0) ? delta : delta - 1;
    int color = 0;
    for (int i = 0; i < children; ++i) {
      if (color == parentColor) ++color;
      const NodeId child = next++;
      const EdgeId e = g.addEdge(v, child);
      assert(e == static_cast<EdgeId>(colors.size()));
      (void)e;
      colors.push_back(color);
      queue.push_back({child, level + 1, color});
      ++color;
    }
  }
  assert(next == total);
  g.setEdgeColors(std::move(colors));
  return g;
}

Graph randomTree(NodeId n, int maxDegree, std::mt19937& rng) {
  if (n < 1 || maxDegree < 2) throw re::Error("randomTree: bad parameters");
  Graph g(n);
  std::vector<int> degree(static_cast<std::size_t>(n), 0);
  for (NodeId v = 1; v < n; ++v) {
    // Pick an earlier node with spare degree uniformly at random.
    std::vector<NodeId> candidates;
    for (NodeId u = 0; u < v; ++u) {
      if (degree[static_cast<std::size_t>(u)] < maxDegree) {
        candidates.push_back(u);
      }
    }
    if (candidates.empty()) throw re::Error("randomTree: degree cap too low");
    std::uniform_int_distribution<std::size_t> dist(0, candidates.size() - 1);
    const NodeId u = candidates[dist(rng)];
    g.addEdge(u, v);
    ++degree[static_cast<std::size_t>(u)];
    ++degree[static_cast<std::size_t>(v)];
  }
  g.properEdgeColorGreedy();
  return g;
}

Graph pathGraph(NodeId n) {
  Graph g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.addEdge(v, v + 1);
  g.properEdgeColorGreedy();
  return g;
}

Graph cycleGraph(NodeId n) {
  if (n < 3) throw re::Error("cycleGraph: need n >= 3");
  Graph g(n);
  for (NodeId v = 0; v < n; ++v) g.addEdge(v, (v + 1) % n);
  g.properEdgeColorGreedy();
  return g;
}

Graph starGraph(NodeId leaves) {
  if (leaves < 1) throw re::Error("starGraph: need at least one leaf");
  Graph g(leaves + 1);
  for (NodeId v = 1; v <= leaves; ++v) g.addEdge(0, v);
  g.properEdgeColorGreedy();
  return g;
}

Graph broomGraph(NodeId handle, NodeId bristles) {
  if (handle < 1 || bristles < 1) throw re::Error("broomGraph: bad sizes");
  Graph g(handle + bristles);
  for (NodeId v = 0; v + 1 < handle; ++v) g.addEdge(v, v + 1);
  for (NodeId b = 0; b < bristles; ++b) g.addEdge(handle - 1, handle + b);
  g.properEdgeColorGreedy();
  return g;
}

Graph symmetricPortGadget(int delta) {
  if (delta < 2) throw re::Error("symmetricPortGadget: delta >= 2 required");
  // K_{delta,delta}: left nodes 0..delta-1, right nodes delta..2delta-1.
  // Edge {left i, right j} has color (i + j) mod delta; adding edges in
  // color-major order makes every node's port p carry the edge of color p at
  // both endpoints.
  Graph g(2 * delta);
  std::vector<int> colors;
  for (int c = 0; c < delta; ++c) {
    for (int i = 0; i < delta; ++i) {
      const int j = ((c - i) % delta + delta) % delta;
      g.addEdge(i, delta + j);
      colors.push_back(c);
    }
  }
  g.setEdgeColors(std::move(colors));
  return g;
}

CsrGraph toCsrGraph(const Graph& g) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  edges.reserve(static_cast<std::size_t>(g.numEdges()));
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    edges.emplace_back(static_cast<Vertex>(u), static_cast<Vertex>(v));
  }
  return CsrGraph::fromEdges(static_cast<Vertex>(g.numNodes()), edges);
}

}  // namespace relb::local
