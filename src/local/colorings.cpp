// The Section 1.1 coloring route on the CSR layout: Linial reduction, class
// elimination, defective and arbdefective colorings, and the class sweep.
//
// Every multi-round kernel here runs one color class per round.  The class
// lists come from one counting sort (ascending ids, so each round's
// frontier is sorted), and within a round a vertex reads only slots written
// in earlier rounds -- neighbors of a smaller class -- so no lane ever reads
// a slot another lane of the same round writes.
#include <algorithm>
#include <limits>
#include <string>

#include "local/kernels.hpp"
#include "obs/trace.hpp"
#include "re/types.hpp"
#include "util/thread_pool.hpp"

namespace relb::local {

namespace {

/// The vertices of each color class, ascending: members of class c are
/// members[offsets[c] .. offsets[c + 1]).
struct ColorClasses {
  std::vector<std::uint64_t> offsets;
  std::vector<Vertex> members;

  [[nodiscard]] std::span<const Vertex> of(std::uint32_t c) const {
    return {members.data() + offsets[c], members.data() + offsets[c + 1]};
  }
};

ColorClasses bucketByColor(std::span<const std::uint32_t> colors,
                           std::uint32_t numColors) {
  ColorClasses classes;
  classes.offsets.assign(static_cast<std::size_t>(numColors) + 1, 0);
  for (const std::uint32_t c : colors) {
    if (c >= numColors) throw re::Error("color out of range");
    ++classes.offsets[c + 1];
  }
  for (std::uint32_t c = 0; c < numColors; ++c) {
    classes.offsets[c + 1] += classes.offsets[c];
  }
  classes.members.resize(colors.size());
  std::vector<std::uint64_t> cursor(classes.offsets.begin(),
                                    classes.offsets.end() - 1);
  for (Vertex v = 0; v < colors.size(); ++v) {
    classes.members[cursor[colors[v]]++] = v;
  }
  return classes;
}

/// Runs fn(slice) over the members of one class, fanned out in frontier
/// blocks; each call gets one block's contiguous, ascending slice.
template <typename Fn>
void forClass(std::span<const Vertex> members, int numThreads, Fn&& fn) {
  forBlocks(members.size(), numThreads,
            [&](std::size_t, std::size_t begin, std::size_t end) {
              fn(members.subspan(begin, end - begin));
            });
}

std::uint64_t deltaAtLeastOne(const CsrGraph& g) {
  return std::max<std::uint32_t>(1, g.maxDegree());
}

// Evaluates the polynomial whose base-q digits are `color` at x over F_q.
std::uint64_t evalPoly(std::uint64_t color, std::uint64_t q, std::uint64_t x) {
  std::uint64_t value = 0;
  std::uint64_t power = 1;
  while (color > 0) {
    value = (value + (color % q) * power) % q;
    power = (power * x) % q;
    color /= q;
  }
  return value;
}

// color = a + b*q read as the linear polynomial a + b*X over F_q.
std::uint64_t evalLinear(std::uint64_t color, std::uint64_t q,
                         std::uint64_t x) {
  return (color % q + (color / q) * x) % q;
}

// Degree of the base-q encoding of colors < m (number of digits - 1).
std::uint64_t polyDegree(std::uint64_t m, std::uint64_t q) {
  std::uint64_t digits = 1;
  for (std::uint64_t cap = q; cap < m; cap *= q) ++digits;
  return digits - 1;
}

// The smallest prime q such that colors < m fit into degree-d polynomials
// with q > delta * d: two distinct such polynomials agree on at most d
// points, so some x < q separates a vertex from all <= delta neighbors.
std::uint64_t linialPrime(std::uint64_t m, std::uint64_t delta) {
  for (std::uint64_t q = 2;; ++q) {
    q = nextPrime(q);
    if (q > delta * polyDegree(m, q)) return q;
  }
}

void requireColorFits(std::uint64_t q, const char* what) {
  if (q * q > std::numeric_limits<std::uint32_t>::max()) {
    throw re::Error(std::string(what) + ": q^2 colors do not fit in 32 bits");
  }
}

}  // namespace

std::uint64_t nextPrime(std::uint64_t v) {
  if (v <= 2) return 2;
  for (std::uint64_t c = v % 2 == 0 ? v + 1 : v;; c += 2) {
    bool prime = true;
    for (std::uint64_t d = 3; d * d <= c; d += 2) {
      if (c % d == 0) {
        prime = false;
        break;
      }
    }
    if (prime) return c;
  }
}

std::uint64_t linialColorRound(const CsrGraph& g,
                               std::span<const std::uint32_t> cur,
                               std::uint64_t numColors,
                               std::span<std::uint32_t> next,
                               int numThreads) {
  if (cur.size() != g.numNodes() || next.size() != g.numNodes()) {
    throw re::Error("linialColorRound: colors must have one slot per node");
  }
  const std::uint64_t q = linialPrime(numColors, deltaAtLeastOne(g));
  requireColorFits(q, "linialColorRound");
  obs::ScopedSpan span("local.round.linial");
  forBlocks(g.numNodes(), numThreads, [&](std::size_t, std::size_t begin,
                                          std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const Vertex v = static_cast<Vertex>(i);
      const std::uint32_t mine = cur[v];
      const auto neighbors = g.neighbors(v);
      // Equal colors agree at every point, so an improper input finds none.
      std::uint64_t x = 0;
      for (; x < q; ++x) {
        const std::uint64_t at = evalPoly(mine, q, x);
        if (std::none_of(neighbors.begin(), neighbors.end(), [&](Vertex w) {
              return evalPoly(cur[w], q, x) == at;
            })) {
          break;
        }
      }
      if (x == q) {
        throw re::Error(
            "linialColorRound: no separating point (improper input?)");
      }
      next[v] = static_cast<std::uint32_t>(x * q + evalPoly(mine, q, x));
    }
  });
  return q * q;
}

ColorRun linialColorReduce(const CsrGraph& g, int numThreads) {
  ColorRun run;
  run.colors.resize(g.numNodes());
  for (Vertex v = 0; v < g.numNodes(); ++v) run.colors[v] = v;
  run.numColors = g.numNodes();
  std::vector<std::uint32_t> next(g.numNodes());
  // A round is worth running only while it shrinks the palette.
  while (true) {
    const std::uint64_t q = linialPrime(run.numColors, deltaAtLeastOne(g));
    if (q * q >= run.numColors) break;
    run.numColors = static_cast<std::uint32_t>(
        linialColorRound(g, run.colors, run.numColors, next, numThreads));
    run.colors.swap(next);
    ++run.rounds;
  }
  return run;
}

ColorRun reduceToDeltaPlusOne(const CsrGraph& g, ColorRun start,
                              int numThreads) {
  const std::uint32_t target = g.maxDegree() + 1;
  ColorRun run = std::move(start);
  const ColorClasses classes = bucketByColor(run.colors, run.numColors);
  // The top class is independent and only ever holds its original members
  // (recolored vertices land below `target`), so it recolors in place.
  for (; run.numColors > target; --run.numColors, ++run.rounds) {
    obs::ScopedSpan span("local.round.eliminate");
    forClass(classes.of(run.numColors - 1), numThreads,
             [&](std::span<const Vertex> slice) {
               // v's smallest free color is at most its degree, so larger
               // neighbor colors -- uneliminated classes included -- never
               // matter.
               std::vector<std::uint8_t> used;
               for (const Vertex v : slice) {
                 used.assign(g.degree(v) + 1, 0);
                 for (const Vertex w : g.neighbors(v)) {
                   if (run.colors[w] < used.size()) used[run.colors[w]] = 1;
                 }
                 run.colors[v] = static_cast<std::uint32_t>(
                     std::find(used.begin(), used.end(), 0) - used.begin());
               }
             });
  }
  return run;
}

ColorRun defectiveColoring(const CsrGraph& g, const ColorRun& proper, int k,
                           int numThreads) {
  if (k < 0) throw re::Error("defectiveColoring: k must be >= 0");
  // q prime with q >= Delta/(k+1) + 1, so at most Delta/q <= k neighbors
  // agree at the best point, and q^2 >= the input palette, so linear
  // polynomials encode every input color.
  std::uint64_t q = std::max<std::uint64_t>(
      2, deltaAtLeastOne(g) / (static_cast<std::uint64_t>(k) + 1) + 1);
  while (q * q < proper.numColors) ++q;
  q = nextPrime(q);
  requireColorFits(q, "defectiveColoring");
  ColorRun run;
  run.colors.resize(g.numNodes());
  obs::ScopedSpan span("local.round.defective");
  forBlocks(g.numNodes(), numThreads, [&](std::size_t, std::size_t begin,
                                          std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const Vertex v = static_cast<Vertex>(i);
      const std::uint32_t mine = proper.colors[v];
      std::uint64_t bestX = 0;
      std::uint64_t bestAgreements = std::numeric_limits<std::uint64_t>::max();
      for (std::uint64_t x = 0; x < q; ++x) {
        const std::uint64_t at = evalLinear(mine, q, x);
        std::uint64_t agreements = 0;
        for (const Vertex w : g.neighbors(v)) {
          agreements += evalLinear(proper.colors[w], q, x) == at;
        }
        if (agreements < bestAgreements) {
          bestAgreements = agreements;
          bestX = x;
        }
      }
      run.colors[v] =
          static_cast<std::uint32_t>(bestX * q + evalLinear(mine, q, bestX));
    }
  });
  run.numColors = static_cast<std::uint32_t>(q * q);
  run.rounds = 1;
  return run;
}

ColorRun arbdefectiveColoring(const CsrGraph& g, const ColorRun& proper, int k,
                              int numThreads) {
  if (k < 0) throw re::Error("arbdefectiveColoring: k must be >= 0");
  const auto kk = static_cast<std::uint64_t>(k);
  ColorRun run;
  run.colors.assign(g.numNodes(), 0);
  run.numColors =
      static_cast<std::uint32_t>((deltaAtLeastOne(g) + 1 + kk) / (kk + 1));
  const ColorClasses classes = bucketByColor(proper.colors, proper.numColors);
  for (std::uint32_t c = 0; c < proper.numColors; ++c, ++run.rounds) {
    obs::ScopedSpan span("local.round.arbdefective");
    forClass(classes.of(c), numThreads, [&](std::span<const Vertex> slice) {
      std::vector<std::uint32_t> load;
      for (const Vertex v : slice) {
        // The least-loaded bin (smallest on ties) among neighbors binned in
        // earlier rounds.  With b such neighbors some bin below b + 1 is
        // empty, so bins past that bound never win.
        std::uint32_t binned = 0;
        for (const Vertex w : g.neighbors(v)) binned += proper.colors[w] < c;
        load.assign(std::min(run.numColors, binned + 1), 0);
        for (const Vertex w : g.neighbors(v)) {
          if (proper.colors[w] < c && run.colors[w] < load.size()) {
            ++load[run.colors[w]];
          }
        }
        run.colors[v] = static_cast<std::uint32_t>(
            std::min_element(load.begin(), load.end()) - load.begin());
      }
    });
  }
  return run;
}

DomsetRun sweepClasses(const CsrGraph& g, const ColorRun& coloring,
                       int numThreads) {
  DomsetRun run;
  run.inSet.assign(g.numNodes(), 0);
  run.dominator.assign(g.numNodes(), kInvalidVertex);
  const ColorClasses classes =
      bucketByColor(coloring.colors, coloring.numColors);
  for (std::uint32_t c = 0; c < coloring.numColors; ++c, ++run.rounds) {
    obs::ScopedSpan span("local.round.sweep");
    forClass(classes.of(c), numThreads, [&](std::span<const Vertex> slice) {
      for (const Vertex v : slice) {
        Vertex dominator = kInvalidVertex;
        for (const Vertex w : g.neighbors(v)) {
          if (coloring.colors[w] < c && run.inSet[w] != 0) {
            dominator = std::min(dominator, w);
          }
        }
        if (dominator == kInvalidVertex) {
          run.inSet[v] = 1;
          dominator = v;
        }
        run.dominator[v] = dominator;
      }
    });
  }
  run.setSize = util::parallel_reduce<std::uint64_t>(
      numThreads, g.numNodes(), 0,
      [&](std::size_t begin, std::size_t end) {
        std::uint64_t count = 0;
        for (std::size_t v = begin; v < end; ++v) count += run.inSet[v];
        return count;
      },
      [](std::uint64_t acc, std::uint64_t part) { return acc + part; });
  return run;
}

}  // namespace relb::local
