// Port-numbering adversary: every conversion must survive a random
// permutation of each node's port order (the PN model gives the adversary
// exactly this power).  The CSR kernels' independence of neighbor order is
// pinned in tests/local/colorings_test.cpp.
#include <gtest/gtest.h>

#include <random>

#include "core/conversions.hpp"
#include "local/halfedge.hpp"
#include "local/verify.hpp"
#include "support/env_seed.hpp"

namespace relb {
namespace {

class ShuffledPorts : public ::testing::TestWithParam<unsigned> {};

TEST_P(ShuffledPorts, ConversionsSurvive) {
  const unsigned seed = testsupport::effectiveSeed(GetParam() + 100);
  const testsupport::TraceSeed trace(seed);
  std::mt19937 rng(seed);
  auto g = local::completeRegularTree(5, 3);
  g.shufflePorts(rng);
  ASSERT_TRUE(g.edgeColoringIsProper(5));

  const re::Count delta = 5, a = 5, x = 1;
  const auto plus = core::syntheticPlusLabelingAlternating(g, delta, a, x);
  ASSERT_TRUE(
      local::checkLabeling(g, core::familyPlusProblem(delta, a, x), plus)
          .ok());
  const auto converted = core::lemma9Convert(g, plus, delta, a, x);
  const re::Count aNew = (a - 2 * x - 1) / 2;
  EXPECT_TRUE(local::checkLabeling(
                  g, core::familyProblem(delta, aNew, x + 1), converted)
                  .ok());
}

TEST_P(ShuffledPorts, CheckerIndependentOfPortOrder) {
  // A valid labeling stays valid if we *relabel consistently* after a
  // shuffle: build the labeling after shuffling.
  const unsigned seed = testsupport::effectiveSeed(GetParam() + 200);
  const testsupport::TraceSeed trace(seed);
  std::mt19937 rng(seed);
  auto g = local::completeRegularTree(4, 3);
  g.shufflePorts(rng);
  std::vector<bool> inSet(static_cast<std::size_t>(g.numNodes()), false);
  for (local::NodeId v = 0; v < g.numNodes(); ++v) {
    bool blocked = false;
    for (const auto& he : g.neighbors(v)) {
      if (inSet[static_cast<std::size_t>(he.neighbor)]) blocked = true;
    }
    if (!blocked) inSet[static_cast<std::size_t>(v)] = true;
  }
  local::EdgeOrientation orientation(static_cast<std::size_t>(g.numEdges()),
                                     0);
  const auto labeling = core::lemma5Labeling(g, inSet, orientation, 4, 0);
  EXPECT_TRUE(
      local::checkLabeling(g, core::familyProblem(4, 4, 0), labeling).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShuffledPorts, ::testing::Range(1u, 9u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace relb
