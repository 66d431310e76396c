// The bucket table behind every EngineCore cache (engine.cpp).  Private to
// the engine: nothing outside src/re/engine.cpp and its tests includes it.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace relb::re::detail {

/// Entries bucketed by a 64-bit slot hash, each carrying its full key.  A
/// lookup compares the whole key, so two keys sharing a slot (a hash
/// collision) each find only their own entry: a collision degrades to a
/// miss, never to a wrong answer.  Not synchronised; the caller locks.
template <typename K, typename V>
class Memo {
 public:
  using Key = K;
  using Value = V;

  /// The value stored under a key equal to `probe` in `slot`, or nullptr.
  /// `probe` may be any type comparable with Key -- the engine probes with
  /// a std::tie of its arguments, so a lookup copies nothing.
  template <typename Probe>
  [[nodiscard]] const Value* find(std::uint64_t slot,
                                  const Probe& probe) const {
    const auto it = buckets_.find(slot);
    if (it == buckets_.end()) return nullptr;
    for (const Entry& e : it->second) {
      if (e.key == probe) return &e.value;
    }
    return nullptr;
  }

  void insert(std::uint64_t slot, Key key, Value value) {
    buckets_[slot].push_back({std::move(key), std::move(value)});
  }

 private:
  struct Entry {
    Key key;
    Value value;
  };
  std::unordered_map<std::uint64_t, std::vector<Entry>> buckets_;
};

}  // namespace relb::re::detail
