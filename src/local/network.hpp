// Synchronous message-passing executor for the LOCAL / port-numbering model.
//
// One round = every node reads the messages delivered on its ports, updates
// its state, and writes one outgoing message per port (LOCAL allows
// unbounded messages; `Msg` is any value type).  The executor is
// deterministic given the algorithm's own randomness; round counting is
// explicit so upper-bound experiments can report exact round complexities.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "local/graph.hpp"

namespace relb::local {

template <typename Msg>
class SyncNetwork {
 public:
  explicit SyncNetwork(const Graph& g) : graph_(&g) {
    inbox_.resize(static_cast<std::size_t>(g.numNodes()));
    outbox_.resize(static_cast<std::size_t>(g.numNodes()));
    for (NodeId v = 0; v < g.numNodes(); ++v) {
      inbox_[static_cast<std::size_t>(v)].resize(
          static_cast<std::size_t>(g.degree(v)));
      outbox_[static_cast<std::size_t>(v)].resize(
          static_cast<std::size_t>(g.degree(v)));
    }
  }

  /// Called once per node per round:
  ///   fn(node, inbox, outbox)
  /// `inbox[p]` holds the message received on port p this round (default
  /// constructed in round 0); the node writes `outbox[p]` for each port.
  using StepFn =
      std::function<void(NodeId, std::span<const Msg>, std::span<Msg>)>;

  /// Executes one synchronous round.
  void step(const StepFn& fn) {
    const Graph& g = *graph_;
    for (NodeId v = 0; v < g.numNodes(); ++v) {
      auto& in = inbox_[static_cast<std::size_t>(v)];
      auto& out = outbox_[static_cast<std::size_t>(v)];
      fn(v, std::span<const Msg>(in), std::span<Msg>(out));
    }
    // Deliver: the message a node wrote on port p reaches the neighbor on
    // the neighbor's port for the shared edge.
    for (NodeId v = 0; v < g.numNodes(); ++v) {
      const auto& nbrs = g.neighbors(v);
      for (std::size_t p = 0; p < nbrs.size(); ++p) {
        const HalfEdge he = nbrs[p];
        const Port q = g.portOf(he.neighbor, he.edge);
        inbox_[static_cast<std::size_t>(he.neighbor)]
              [static_cast<std::size_t>(q)] =
                  outbox_[static_cast<std::size_t>(v)][p];
      }
    }
    ++rounds_;
  }

  [[nodiscard]] int rounds() const { return rounds_; }
  [[nodiscard]] const Graph& graph() const { return *graph_; }

 private:
  const Graph* graph_;
  std::vector<std::vector<Msg>> inbox_;
  std::vector<std::vector<Msg>> outbox_;
  int rounds_ = 0;
};

}  // namespace relb::local
