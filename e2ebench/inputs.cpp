// Workload inputs.  Everything here is a pure function of the seed, so the
// same seed gives the same request stream, op list and trees.
#include <algorithm>
#include <array>
#include <random>
#include <set>

#include "core/family.hpp"
#include "family/builtin.hpp"
#include "gen/random_problem.hpp"
#include "perf.hpp"
#include "re/autobound.hpp"
#include "re/types.hpp"
#include "re/zero_round.hpp"

namespace relb::perf {

namespace {

std::string toSpec(const std::string& rendered) {
  std::string spec;
  for (const char ch : rendered) {
    if (ch == '\n') {
      if (!spec.empty() && spec.back() != ';') spec += ';';
    } else {
      spec += ch;
    }
  }
  while (!spec.empty() && spec.back() == ';') spec.pop_back();
  return spec;
}

std::mt19937 seededRng(std::uint64_t seed, std::uint32_t stream) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32), stream};
  return std::mt19937(seq);
}

ProblemInput inputOf(std::string name, const re::Problem& p, int maxSteps) {
  ProblemInput in;
  in.name = std::move(name);
  in.nodeSpec = nodeSpecOf(p);
  in.edgeSpec = edgeSpecOf(p);
  in.maxSteps = maxSteps;
  return in;
}

}  // namespace

std::string nodeSpecOf(const re::Problem& p) {
  return toSpec(p.node.render(p.alphabet));
}

std::string edgeSpecOf(const re::Problem& p) {
  return toSpec(p.edge.render(p.alphabet));
}

std::vector<ProblemInput> warmCatalog() {
  std::vector<ProblemInput> catalog;
  // ROADMAP item 1's request.
  catalog.push_back({"item1", "M^3; P O^2", "M [P O]; O O", 3, -1});
  for (const family::FamilyDef& def : family::builtinFamilies()) {
    const family::Env defaults = family::resolveParams(def, {});
    const bool pi = def.name == "pi";
    for (long delta = 1; delta <= 3; ++delta) {
      for (long a = 0; a <= (pi ? delta : 0); ++a) {
        for (long x = 0; x <= (pi ? delta : 0); ++x) {
          family::Env params{{"delta", delta}};
          if (pi) {
            params["a"] = a;
            params["x"] = x;
          }
          re::Problem p;
          try {
            p = family::instantiateWithDefaults(def, params);
          } catch (const re::Error&) {
            continue;  // outside the family's declared ranges
          }
          std::string name = def.name + "(delta=" + std::to_string(delta);
          if (pi) name += ",a=" + std::to_string(a) + ",x=" + std::to_string(x);
          ProblemInput in = inputOf(name + ")", p, 3);
          if (!pi && defaults.at("delta") == delta) {
            in.publishedBound = static_cast<long>(
                family::publishedBound(def, defaults).value_or(-1));
          }
          catalog.push_back(std::move(in));
        }
      }
    }
  }
  return catalog;
}

std::vector<ProblemInput> hardCatalog() {
  // Answered warm in about 1 s, 6 ms and 1 ms.  The first held most of a
  // run's time; in the other two, the request's thread wake-ups (1-7 ms,
  // depending on the host's load) were a large share of the latency.
  const std::set<std::string> left = {"pi(delta=3,a=3,x=0)", "pi(delta=2,a=2,x=0)",
                                      "delta_coloring(delta=3)"};
  std::vector<ProblemInput> hard;
  onLane([&] {
    for (ProblemInput& in : warmCatalog()) {
      std::string node = in.nodeSpec, edge = in.edgeSpec;
      std::replace(node.begin(), node.end(), ';', '\n');
      std::replace(edge.begin(), edge.end(), ';', '\n');
      const re::Problem p = re::Problem::parse(node, edge);
      if (left.count(in.name) == 0 && !re::zeroRoundSolvableSymmetricPorts(p) &&
          !re::zeroRoundSolvableAdversarialPorts(p) && !re::zeroRoundSolvableWithEdgeInputs(p)) {
        hard.push_back(std::move(in));
      }
    }
  });
  return hard;
}

namespace {

/// True when `p`'s speedup iteration stays within the driver's merge target
/// for every step, so a request for it never enters the label-merge search.
bool staysSmall(const re::Problem& p, int maxSteps) {
  re::IterateOptions options;
  options.maxSteps = maxSteps;
  options.maxLabels = kColdMaxLabels;
  options.stepOptions.numThreads = 1;
  // A tight enumeration guard keeps the screen itself cheap: candidates
  // that would need more are dropped too.
  options.stepOptions.enumerationLimit = 100'000;
  options.detectFixedPoint = false;
  try {
    const re::IterationTrace trace = re::iterateSpeedup(p, options);
    return trace.reason != re::StopReason::kLabelBudget &&
           trace.reason != re::StopReason::kEngineLimit;
  } catch (const re::Error&) {
    return false;
  }
}

}  // namespace

std::vector<ProblemInput> coldStream(std::uint64_t seed, std::size_t count) {
  std::mt19937 rng = seededRng(seed, 1);
  gen::RandomProblemOptions options;
  options.maxAlphabet = 4;
  options.maxDelta = 3;
  constexpr int kSteps = 3;
  std::vector<ProblemInput> stream;
  std::set<std::pair<std::string, std::string>> seen;
  // The draw space is finite; give up long before it could be exhausted.
  // The screen runs on a lane: serially, like a served request.
  onLane([&] {
    for (std::size_t draws = 0; stream.size() < count && draws < 50 * count;
         ++draws) {
      const re::Problem p = gen::randomProblem(rng, options);
      ProblemInput in =
          inputOf("random#" + std::to_string(stream.size()), p, kSteps);
      if (seen.emplace(in.nodeSpec, in.edgeSpec).second &&
          staysSmall(p, kSteps)) {
        stream.push_back(std::move(in));
      }
    }
  });
  if (stream.size() < count) {
    throw re::Error("cold stream: only " + std::to_string(stream.size()) +
                    " distinct problems");
  }
  return stream;
}

std::vector<OneshotOp> oneshotOps() {
  const std::string cli = "round_eliminator_cli";
  std::vector<OneshotOp> ops;
  ops.push_back({"item1", {cli, "M^3; P O^2", "M [P O]; O O", "3", "0"}, -1});
  // Pi_Delta(a, x) instances at Delta = 4..5, 3 speedup steps each.
  const std::vector<std::array<long, 3>> pis = {
      {4, 2, 1}, {4, 3, 2}, {5, 2, 1}, {5, 3, 2}, {5, 4, 3}};
  for (const auto& [delta, a, x] : pis) {
    const re::Problem p = core::familyProblem(delta, a, x);
    ops.push_back({"pi" + std::to_string(delta) + "(" + std::to_string(a) +
                       "," + std::to_string(x) + ")",
                   {cli, nodeSpecOf(p), edgeSpecOf(p), "3", "0"},
                   -1});
  }
  // The built-in family derivations at their defaults, held to their
  // published bounds.
  for (const family::FamilyDef& def : family::builtinFamilies()) {
    const family::Env params = family::resolveParams(def, {});
    ops.push_back({"family:" + def.name,
                   {cli, "--family", def.name, "6", "0"},
                   static_cast<long>(
                       family::publishedBound(def, params).value_or(-1))});
  }
  return ops;
}

LocalOp localOp(std::uint64_t seed, std::size_t index) {
  const std::size_t instance = index % kLocalDistinct;
  LocalOp op;
  op.boundedDegree = instance % 2 == 1;
  op.nodes = 300'000;
  op.seed = seed * 1000 + instance + 1;
  return op;
}

}  // namespace relb::perf
