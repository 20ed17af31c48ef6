// A minimal open-addressed hash set of u64 keys.
//
// Endpoints keep tiny per-object membership sets on the message hot path
// (acked identities, rounds already bid in).  Node-based std::unordered_set
// pays one allocation per insert and a node walk per destructor — across
// tens of thousands of endpoints the teardown frees alone are measurable.
// This set is a single flat vector: linear-probed slots at <=50% load,
// O(1) block free at teardown, and no allocation at all until first use.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fnda {

class FlatU64Set {
 public:
  /// Inserts `key`; returns true if it was not already present.
  /// `key` must not be the reserved sentinel (~0, TypedId::invalid()).
  bool insert(std::uint64_t key) {
    if (!slots_.empty()) {
      const std::size_t mask = slots_.size() - 1;
      for (std::size_t i = slot_of(key, mask);; i = (i + 1) & mask) {
        if (slots_[i] == key) return false;
        if (slots_[i] == kEmpty) break;
      }
    }
    if ((size_ + 1) * 2 > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = slot_of(key, mask);
    while (slots_[i] != kEmpty) i = (i + 1) & mask;
    slots_[i] = key;
    ++size_;
    return true;
  }

  bool contains(std::uint64_t key) const {
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = slot_of(key, mask);; i = (i + 1) & mask) {
      if (slots_[i] == key) return true;
      if (slots_[i] == kEmpty) return false;
    }
  }

  std::size_t size() const { return size_; }

  /// Empties the set, keeping its slots for reuse.
  void clear() {
    if (size_ == 0) return;
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    size_ = 0;
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  static std::size_t slot_of(std::uint64_t key, std::size_t mask) {
    // splitmix64 finalizer: keys are typically sequential ids, so the
    // low bits need mixing before masking.
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdull;
    key ^= key >> 33;
    return static_cast<std::size_t>(key) & mask;
  }

  void grow() {
    const std::size_t next = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<std::uint64_t> rebuilt(next, kEmpty);
    const std::size_t mask = next - 1;
    for (const std::uint64_t key : slots_) {
      if (key == kEmpty) continue;
      std::size_t i = slot_of(key, mask);
      while (rebuilt[i] != kEmpty) i = (i + 1) & mask;
      rebuilt[i] = key;
    }
    slots_ = std::move(rebuilt);
  }

  std::vector<std::uint64_t> slots_;
  std::size_t size_ = 0;
};

}  // namespace fnda
