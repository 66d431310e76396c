// detail::Memo (re/memo.hpp), the table behind every EngineCore cache: keys
// sharing a slot hash are told apart by the full-key compare.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "re/memo.hpp"

namespace relb::re::detail {
namespace {

TEST(Memo, HashCollisionDegradesToAMiss) {
  // Every key goes to one slot, as if the hash were constant.
  constexpr std::uint64_t kSlot = 42;
  Memo<std::tuple<int, std::string>, std::string> memo;
  EXPECT_EQ(memo.find(kSlot, std::make_tuple(1, std::string("a"))), nullptr);

  memo.insert(kSlot, {1, "a"}, "first");
  memo.insert(kSlot, {1, "b"}, "second");
  memo.insert(kSlot, {2, "a"}, "third");

  const std::string a = "a";
  const std::string b = "b";
  const int one = 1;
  const int two = 2;
  const std::string* first = memo.find(kSlot, std::tie(one, a));
  const std::string* second = memo.find(kSlot, std::tie(one, b));
  const std::string* third = memo.find(kSlot, std::tie(two, a));
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(*first, "first");
  EXPECT_EQ(*second, "second");
  EXPECT_EQ(*third, "third");

  // A key that shares the slot but matches no entry is a miss, and so is a
  // stored key looked up in another slot.
  EXPECT_EQ(memo.find(kSlot, std::tie(two, b)), nullptr);
  EXPECT_EQ(memo.find(kSlot + 1, std::tie(one, a)), nullptr);
}

}  // namespace
}  // namespace relb::re::detail
