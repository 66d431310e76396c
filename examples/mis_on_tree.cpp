// MIS on trees: runs Luby's randomized algorithm and the deterministic
// coloring-based algorithm on random trees, verifies both, and reports
// round counts next to the paper's lower bound.
//
//   ./mis_on_tree [n] [maxDegree] [seed]
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <random>

#include "core/sequence.hpp"
#include "local/kernels.hpp"
#include "local/verify.hpp"

int main(int argc, char** argv) {
  using namespace relb;
  const int n = argc > 1 ? std::atoi(argv[1]) : 2000;
  const int maxDegree = argc > 2 ? std::atoi(argv[2]) : 8;
  const unsigned seed = argc > 3 ? static_cast<unsigned>(std::atoi(argv[3])) : 1;

  std::mt19937 rng(seed);
  const local::CsrGraph g =
      local::toCsrGraph(local::randomTree(n, maxDegree, rng));
  std::cout << "random tree: n = " << g.numNodes()
            << ", max degree = " << g.maxDegree() << "\n\n";

  // Randomized: Luby.  A phase is two communication rounds (exchange
  // priorities, then announce joins).
  const auto luby = local::lubyMis(g, seed, 1);
  std::cout << "Luby MIS:           " << luby.rounds << " phases ("
            << 2 * luby.rounds << " rounds), valid = "
            << (local::csrIsMaximalIndependentSet(g, luby.state, 1) ? "yes"
                                                                    : "no")
            << ", |S| = " << luby.misSize << "\n";

  // Deterministic: Linial coloring + class sweep (O(Delta^2 + log* n)).
  const auto proper =
      local::reduceToDeltaPlusOne(g, local::linialColorReduce(g, 1), 1);
  const auto det = local::sweepClasses(g, proper, 1);
  std::cout << "coloring-sweep MIS: " << proper.rounds + det.rounds
            << " rounds (" << proper.rounds << " coloring + " << det.rounds
            << " sweep), valid = "
            << (local::csrIsKDegreeDominatingSet(g, det.inSet, 0, 1) ? "yes"
                                                                     : "no")
            << ", |S| = " << det.setSize << "\n";

  // Sequential baseline: greedy MIS in id order.
  std::vector<bool> greedy(g.numNodes(), false);
  std::uint64_t greedySize = 0;
  for (local::Vertex v = 0; v < g.numNodes(); ++v) {
    bool blocked = false;
    for (const local::Vertex w : g.neighbors(v)) blocked = blocked || greedy[w];
    if (!blocked) {
      greedy[v] = true;
      ++greedySize;
    }
  }
  std::cout << "greedy (seq.) MIS:  |S| = " << greedySize << "\n\n";

  // The paper's lower bound at this degree.
  const auto t = core::pnLowerBoundRounds(g.maxDegree(), 0);
  std::cout << "paper lower bound (PN model, k = 0): " << t
            << " rounds  [Omega(log Delta) = Omega("
            << std::log2(static_cast<double>(g.maxDegree())) << ")]\n";
  return 0;
}
