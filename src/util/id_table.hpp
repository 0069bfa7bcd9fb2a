#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace llamp {

/// A map from int64 ids to small values for tables refilled once per rank
/// (request ids while a rank's stream is walked).  Open addressing with
/// linear probing over a power-of-two slot array that doubles at half
/// load, and no erase.  Each slot carries the generation it was written
/// in, so clear() is one increment: a table grown by the busiest of 1024
/// ranks costs nothing to reset for the next.  Pointers that find() and
/// insert() return stay valid until the next insert().
template <typename V>
class IdTable {
 public:
  /// The value stored under `id`, or null.
  V* find(std::int64_t id) {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(id);; i = (i + 1) & mask()) {
      Slot& s = slots_[i];
      if (s.gen != gen_) return nullptr;
      if (s.id == id) return &s.value;
    }
  }

  /// The value under `id` and true when `id` was not stored yet (the value
  /// is then V{}), else the stored value and false.
  std::pair<V*, bool> insert(std::int64_t id) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    for (std::size_t i = home(id);; i = (i + 1) & mask()) {
      Slot& s = slots_[i];
      if (s.gen != gen_) {
        s = {id, gen_, V{}};
        ++size_;
        return {&s.value, true};
      }
      if (s.id == id) return {&s.value, false};
    }
  }

  /// Ids stored since the last clear().
  std::size_t size() const { return size_; }

  /// Forget every id; O(1) but once every 2^32 calls.
  void clear() {
    size_ = 0;
    if (++gen_ != 0) return;
    for (Slot& s : slots_) s.gen = 0;
    gen_ = 1;
  }

 private:
  struct Slot {
    std::int64_t id = 0;
    std::uint32_t gen = 0;  ///< occupied iff equal to the table's gen_
    V value{};
  };

  std::size_t mask() const { return slots_.size() - 1; }
  /// Fibonacci hashing: tracer ids count up from 0 and collective ids from
  /// 2^40, and both land spread over the table.
  std::size_t home(std::int64_t id) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  void grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
    old.swap(slots_);
    shift_ = old.empty() ? 64 - 4 : shift_ - 1;
    // Fresh slots hold generation 0, which gen_ never is.
    for (const Slot& s : old) {
      if (s.gen != gen_) continue;
      std::size_t i = home(s.id);
      while (slots_[i].gen == gen_) i = (i + 1) & mask();
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::uint32_t gen_ = 1;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace llamp
