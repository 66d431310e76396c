// End-to-end k-outdegree dominating set pipeline on a concrete tree:
//
//   upper bound:  Linial coloring -> k-arbdefective coloring -> class sweep,
//                 run by the CSR kernels of local/kernels.hpp
//   lower bound:  Lemma 5 turns the computed set into a Pi_Delta(a, k)
//                 solution, which the generic LCL checker validates, and
//                 Lemma 9 + the chain machinery bound the achievable speed.
//
//   ./domset_pipeline [delta] [depth] [k]
#include <cstdlib>
#include <iostream>
#include <memory>

#include "core/conversions.hpp"
#include "core/sequence.hpp"
#include "local/halfedge.hpp"
#include "local/kernels.hpp"
#include "local/verify.hpp"
#include "re/engine.hpp"

int main(int argc, char** argv) {
  using namespace relb;
  const int delta = argc > 1 ? std::atoi(argv[1]) : 6;
  const int depth = argc > 2 ? std::atoi(argv[2]) : 4;
  const int k = argc > 3 ? std::atoi(argv[3]) : 2;

  const local::Graph g = local::completeRegularTree(delta, depth);
  const local::CsrGraph csr = local::toCsrGraph(g);
  std::cout << "complete " << delta << "-regular tree, depth " << depth
            << ": n = " << g.numNodes() << "\n\n";

  // Upper bound: compute a k-outdegree dominating set.  The arbdefective
  // coloring's bins are swept one round each (for k = 0 the proper classes
  // are the bins); G[S] edges point at the endpoint with the smaller proper
  // color.
  const auto proper =
      local::reduceToDeltaPlusOne(csr, local::linialColorReduce(csr, 1), 1);
  local::ColorRun bins{proper.colors, 0, proper.numColors};
  if (k > 0) bins = local::arbdefectiveColoring(csr, proper, k, 1);
  const auto ds = local::sweepClasses(csr, bins, 1);
  const bool valid =
      local::csrIsKOutdegreeDominatingSet(csr, ds.inSet, proper.colors, k, 1);
  std::cout << k << "-outdegree dominating set: |S| = " << ds.setSize
            << ", valid = " << (valid ? "yes" : "no") << "\n";
  std::cout << "rounds: " << proper.rounds + bins.rounds + ds.rounds
            << " total = " << proper.rounds << " coloring + " << bins.rounds
            << " arbdefective + " << ds.rounds << " sweep\n\n";

  const std::vector<bool> inSet(ds.inSet.begin(), ds.inSet.end());
  const local::EdgeOrientation orientation =
      local::orientByRank(g, inSet, proper.colors);

  // Lemma 5: one more round turns S into a Pi_Delta(Delta, k) solution.
  const auto labeling =
      core::lemma5Labeling(g, inSet, orientation, delta, k);
  const auto pi = core::familyProblem(delta, delta, k);
  const auto check = local::checkLabeling(g, pi, labeling);
  std::cout << "Lemma 5 labeling solves Pi_Delta(Delta, k): "
            << (check.ok() ? "yes" : "no") << "\n";

  // Lemma 9 in action: embed into Pi+, convert with the edge coloring.
  if (2 * k + 1 <= delta) {
    const auto plus =
        core::plusFromFamilyLabeling(g, labeling, delta, delta, k);
    const auto plusOk =
        local::checkLabeling(g, core::familyPlusProblem(delta, delta, k), plus);
    const auto converted = core::lemma9Convert(g, plus, delta, delta, k);
    const re::Count aNew = (delta - 2 * k - 1) / 2;
    const auto convOk = local::checkLabeling(
        g, core::familyProblem(delta, aNew, k + 1), converted);
    std::cout << "Lemma 9 conversion Pi+(" << delta << "," << k << ") -> Pi("
              << aNew << "," << k + 1
              << "): input valid = " << (plusOk.ok() ? "yes" : "no")
              << ", output valid = " << (convOk.ok() ? "yes" : "no") << "\n";
  }

  // The certified lower bound at these parameters.  The chain behind the
  // bound is re-certified through an engine session (memoized 0-round
  // verdicts); an empty violation string means every Lemma 12/13 claim
  // holds.
  re::EngineSession engine(std::make_shared<re::EngineCore>());
  const core::Chain chain = core::exactChain(delta, k);
  const std::string violation = core::certifyChain(chain, engine);
  if (!violation.empty()) {
    std::cerr << "chain certification FAILED: " << violation << "\n";
    return 1;
  }
  std::cout << "\npaper lower bound (PN model): "
            << core::pnLowerBoundRounds(delta, k)
            << " rounds (chain certified)\n";
  return 0;
}
