// T8 -- Section 1.1 upper bounds vs the new lower bound.
//
// Measures, on random trees, with the CSR kernels of local/kernels.hpp:
//   * Luby MIS phases vs n (O(log n) randomized);
//   * the coloring-route MIS and k-outdegree dominating set round counts vs
//     Delta and vs k (the sweep stage carries the Delta/k shape);
//   * the certified PN-model lower bound t(Delta, k) alongside, showing the
//     Omega(log Delta) vs O(poly Delta) gap the paper leaves open.
#include <cmath>
#include <random>

#include "bench_util.hpp"
#include "core/sequence.hpp"
#include "local/kernels.hpp"
#include "local/verify.hpp"

int main() {
  using namespace relb;
  const auto properColoring = [](const local::CsrGraph& g) {
    return local::reduceToDeltaPlusOne(g, local::linialColorReduce(g, 1), 1);
  };

  bench::banner("Luby MIS phases vs n (random trees, max degree 8)");
  {
    bench::Table t({"n", "phases (avg of 5)", "log2(n)", "valid"});
    for (int n : {100, 400, 1600, 6400, 25600}) {
      double phases = 0;
      bool valid = true;
      for (unsigned seed = 0; seed < 5; ++seed) {
        std::mt19937 rng(seed * 977 + 13);
        const auto g = local::toCsrGraph(local::randomTree(n, 8, rng));
        const auto result = local::lubyMis(g, seed * 977 + 13, 1);
        phases += result.rounds;
        valid &= local::csrIsMaximalIndependentSet(g, result.state, 1);
      }
      t.row(n, phases / 5.0, std::log2(static_cast<double>(n)), valid);
    }
    t.print();
    std::cout << "shape: O(log n) phases with a large decay base -- each "
                 "phase retires ~85-90% of the\nresidual graph on "
                 "bounded-degree trees, so the logarithm grows by ~1 per "
                 "~7x nodes (paths below):\n\n";
    bench::Table tp({"n (path)", "phases (avg of 5)", "log2(n)", "valid"});
    for (int n : {64, 256, 1024, 4096, 16384, 65536}) {
      double phases = 0;
      bool valid = true;
      for (unsigned seed = 0; seed < 5; ++seed) {
        const auto g = local::toCsrGraph(local::pathGraph(n));
        const auto result = local::lubyMis(g, seed * 31 + 5, 1);
        phases += result.rounds;
        valid &= local::csrIsMaximalIndependentSet(g, result.state, 1);
      }
      tp.row(n, phases / 5.0, std::log2(static_cast<double>(n)), valid);
    }
    tp.print();
  }

  bench::banner("Deterministic MIS rounds vs Delta (n ~ 4000)");
  {
    bench::Table t({"Delta", "coloring rounds", "sweep rounds", "total",
                    "certified LB t(Delta,0)", "valid"});
    for (int delta : {4, 6, 8, 12, 16, 24}) {
      std::mt19937 rng(42);
      const auto g = local::toCsrGraph(local::randomTree(4000, delta, rng));
      const auto proper = properColoring(g);
      const auto result = local::sweepClasses(g, proper, 1);
      t.row(delta, proper.rounds, result.rounds, proper.rounds + result.rounds,
            core::pnLowerBoundRounds(g.maxDegree(), 0),
            local::csrIsKDegreeDominatingSet(g, result.inSet, 0, 1));
    }
    t.print();
    std::cout << "shape: upper bound grows polynomially in Delta (the "
                 "simplified O(Delta^2 + log* n) route; the paper cites\n"
                 "O(Delta + log* n) [BEK'14]), lower bound grows as "
                 "log(Delta) -- the gap the paper's open problem asks "
                 "about.\n";
  }

  bench::banner("k-outdegree dominating set rounds vs k (Delta = 16, n ~ 4000)");
  {
    std::mt19937 rng(7);
    const auto g = local::toCsrGraph(local::randomTree(4000, 16, rng));
    const auto proper = properColoring(g);
    bench::Table t({"k", "arbdefective rounds", "sweep rounds (#bins)",
                    "|S|", "certified LB t(Delta,k)", "valid"});
    for (int k : {0, 1, 2, 4, 8, 15}) {
      // k = 0: the proper classes are the bins (the MIS route).
      local::ColorRun bins{proper.colors, 0, proper.numColors};
      if (k > 0) bins = local::arbdefectiveColoring(g, proper, k, 1);
      const auto result = local::sweepClasses(g, bins, 1);
      const bool valid = local::csrIsKOutdegreeDominatingSet(
          g, result.inSet, proper.colors, k, 1);
      t.row(k, bins.rounds, result.rounds, result.setSize,
            core::pnLowerBoundRounds(16, k), valid);
    }
    t.print();
    std::cout << "shape: the sweep stage shrinks as ceil((Delta+1)/(k+1)) "
                 "(the Delta/k dependence of the paper's cited\n"
                 "O(Delta/k + log* n) upper bound), while the lower bound "
                 "degrades only mildly in k <= Delta^epsilon.\n";
  }

  bench::banner("k-degree dominating set sweep rounds vs k (Delta = 24)");
  {
    std::mt19937 rng(9);
    const auto g = local::toCsrGraph(local::randomTree(4000, 24, rng));
    const auto proper = properColoring(g);
    bench::Table t({"k", "defective classes = sweep rounds",
                    "(Delta/k)^2 reference", "valid"});
    for (int k : {1, 2, 3, 6, 12}) {
      const auto result =
          local::sweepClasses(g, local::defectiveColoring(g, proper, k, 1), 1);
      const bool valid =
          local::csrIsKDegreeDominatingSet(g, result.inSet, k, 1);
      const double reference =
          std::pow(static_cast<double>(g.maxDegree()) / k, 2.0);
      t.row(k, result.rounds, reference, valid);
    }
    t.print();
    std::cout << "shape: O((Delta/k)^2) classes (Kuhn'09 defective "
                 "coloring), matching the paper's Section 1.1 discussion.\n";
  }
  return 0;
}
