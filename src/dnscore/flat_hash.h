// Open-addressing hash map with flat storage.
//
// The node-based std::unordered_map costs one heap allocation per entry and
// a pointer chase per probe; under the §7 cache experiments that allocation
// traffic dominates the replay loop. FlatHashMap stores all slots in ONE
// allocation (a hash array and a slot array carved out of the same block),
// probes linearly, and deletes tombstone-free by backward-shifting the
// displaced run (Knuth's Algorithm R), so the table never degrades and
// never needs a tombstone-purging rehash.
//
// Deliberate scope limits, matching how the resolver cache and the trace
// replay actually use it:
//   * pointers/iterators invalidate on EVERY insert or erase (backward
//     shift relocates slots; growth reallocates) — read everything you need
//     from a found slot before mutating the table;
//   * iteration order is unspecified and changes across rehashes — callers
//     must only fold order-independent quantities (counts, sums) out of
//     for_each, which is what keeps sharded results bit-identical;
//   * Key and Value must be movable; the stored hash is computed once per
//     insert and reused for growth, probing, and backward-shift homing, so
//     hashing a Key (e.g. Name) never happens twice for resident entries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "dnscore/contracts.h"
#include "dnscore/hashing.h"

namespace ecsdns::dnscore {

template <class Key, class Value, class Hash>
class FlatHashMap {
 public:
  struct Slot {
    Key key;
    Value value;
  };

  FlatHashMap() = default;
  explicit FlatHashMap(std::size_t expected) { reserve(expected); }

  FlatHashMap(FlatHashMap&& other) noexcept { swap(other); }
  FlatHashMap& operator=(FlatHashMap&& other) noexcept {
    if (this != &other) {
      destroy();
      swap(other);
    }
    return *this;
  }
  FlatHashMap(const FlatHashMap&) = delete;
  FlatHashMap& operator=(const FlatHashMap&) = delete;

  ~FlatHashMap() { destroy(); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return capacity_; }

  // Grows so `expected` entries fit without rehashing.
  void reserve(std::size_t expected) {
    std::size_t cap = kMinCapacity;
    // Max load factor 3/4: grow while expected exceeds 3/4 of cap.
    while (expected * 4 > cap * 3) cap <<= 1;
    if (cap > capacity_) rehash(cap);
  }

  Value* find(const Key& key) noexcept {
    const std::size_t i = find_index(key);
    return i == kNotFound ? nullptr : &slots_[i].value;
  }
  const Value* find(const Key& key) const noexcept {
    const std::size_t i = find_index(key);
    return i == kNotFound ? nullptr : &slots_[i].value;
  }
  bool contains(const Key& key) const noexcept {
    return find_index(key) != kNotFound;
  }

  // Heterogeneous lookup: probe with a precomputed raw hash and an equality
  // predicate over the stored key, so callers can look up by the pieces of a
  // composite key without materializing one (e.g. without copying a Name).
  // `raw_hash` must equal Hash{}(key) for the key being sought, and `eq`
  // must agree with Key::operator== for hash-equal candidates.
  template <class Eq>
  Value* find_with(std::uint64_t raw_hash, Eq&& eq) noexcept {
    const std::size_t i = find_index_with(raw_hash, eq);
    return i == kNotFound ? nullptr : &slots_[i].value;
  }
  template <class Eq>
  const Value* find_with(std::uint64_t raw_hash, Eq&& eq) const noexcept {
    const std::size_t i = find_index_with(raw_hash, eq);
    return i == kNotFound ? nullptr : &slots_[i].value;
  }

  // Inserts or overwrites. Returns {slot, inserted}; the pointer is valid
  // only until the next mutation.
  template <class V>
  std::pair<Slot*, bool> insert_or_assign(const Key& key, V&& value) {
    grow_if_needed();
    const std::uint64_t h = adjusted_hash(key);
    std::size_t i = static_cast<std::size_t>(h) & mask();
    for (;;) {
      if (hashes_[i] == kEmpty) {
        new (&slots_[i]) Slot{key, Value(std::forward<V>(value))};
        hashes_[i] = h;
        ++size_;
        return {&slots_[i], true};
      }
      if (hashes_[i] == h && slots_[i].key == key) {
        slots_[i].value = Value(std::forward<V>(value));
        return {&slots_[i], false};
      }
      i = (i + 1) & mask();
    }
  }

  // Places `key`, which the caller knows is absent, under its precomputed
  // raw hash: the probe walks to the first empty slot from the key's home
  // with no key compares, and the key is not hashed again. `raw_hash` must
  // equal Hash{}(key). Lets a caller whose find_with just missed insert
  // without a second hash and a second compare-probe. Returns the slot; the
  // pointer is valid only until the next mutation.
  template <class V>
  Slot* insert_absent(std::uint64_t raw_hash, const Key& key, V&& value) {
    ECSDNS_DCHECK(static_cast<std::uint64_t>(Hash{}(key)) == raw_hash);
    grow_if_needed();
    const std::uint64_t h = remap_zero(raw_hash);
    std::size_t i = static_cast<std::size_t>(h) & mask();
    while (hashes_[i] != kEmpty) {
      ECSDNS_DCHECK(hashes_[i] != h || !(slots_[i].key == key));
      i = (i + 1) & mask();
    }
    new (&slots_[i]) Slot{key, Value(std::forward<V>(value))};
    hashes_[i] = h;
    ++size_;
    return &slots_[i];
  }

  // Finds `key`, default-constructing its value first if absent.
  Value& operator[](const Key& key) {
    grow_if_needed();
    const std::uint64_t h = adjusted_hash(key);
    std::size_t i = static_cast<std::size_t>(h) & mask();
    for (;;) {
      if (hashes_[i] == kEmpty) {
        new (&slots_[i]) Slot{key, Value{}};
        hashes_[i] = h;
        ++size_;
        return slots_[i].value;
      }
      if (hashes_[i] == h && slots_[i].key == key) return slots_[i].value;
      i = (i + 1) & mask();
    }
  }

  // Tombstone-free removal: empty the slot, then backward-shift every
  // displaced successor whose home position cannot reach it through the new
  // hole (Knuth 6.4 Algorithm R). The table is exactly as if the key had
  // never been inserted, so probe lengths never grow with churn.
  bool erase(const Key& key) { return erase_at(find_index(key)); }

  // Erases the first entry, in probe order, whose stored hash equals
  // `raw_hash` and for which `pred(key, value)` holds; false if none does.
  // Lets a caller that kept only an entry's hash (never its key) remove it
  // by some other property of the entry, e.g. the cache replay's expiry.
  template <class Pred>
  bool erase_with(std::uint64_t raw_hash, Pred&& pred) {
    return erase_at(probe(raw_hash, [&pred](const Slot& slot) {
      return pred(slot.key, slot.value);
    }));
  }

  // Applies `fn(slot)` to every live entry. The callback may mutate the
  // value but must not mutate the table.
  template <class Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (hashes_[i] != kEmpty) fn(slots_[i]);
    }
  }
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (hashes_[i] != kEmpty) fn(const_cast<const Slot&>(slots_[i]));
    }
  }

  void clear() {
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (hashes_[i] != kEmpty) {
        slots_[i].~Slot();
        hashes_[i] = kEmpty;
      }
    }
    size_ = 0;
  }

 private:
  static constexpr std::uint64_t kEmpty = 0;
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinCapacity = 8;

  std::size_t mask() const noexcept { return capacity_ - 1; }

  // The stored hash doubles as the occupancy marker, so the (astronomically
  // rare) true hash of 0 is remapped to a fixed non-zero constant. Probing
  // and backward-shift homing both use the adjusted value consistently.
  static std::uint64_t remap_zero(std::uint64_t h) noexcept {
    return h == kEmpty ? 0x9e3779b97f4a7c15ull : h;
  }
  std::uint64_t adjusted_hash(const Key& key) const noexcept {
    return remap_zero(static_cast<std::uint64_t>(Hash{}(key)));
  }

  std::size_t find_index(const Key& key) const noexcept {
    return find_index_with(static_cast<std::uint64_t>(Hash{}(key)),
                           [&key](const Key& k) { return k == key; });
  }

  template <class Eq>
  std::size_t find_index_with(std::uint64_t raw_hash, Eq&& eq) const noexcept {
    return probe(raw_hash, [&eq](const Slot& slot) { return eq(slot.key); });
  }

  // Index of the first slot, in probe order from `raw_hash`'s home, whose
  // stored hash matches and for which `match(slot)` holds.
  template <class Match>
  std::size_t probe(std::uint64_t raw_hash, Match&& match) const noexcept {
    if (capacity_ == 0) return kNotFound;
    const std::uint64_t h = remap_zero(raw_hash);
    std::size_t i = static_cast<std::size_t>(h) & mask();
    for (;;) {
      if (hashes_[i] == kEmpty) return kNotFound;
      if (hashes_[i] == h && match(slots_[i])) return i;
      i = (i + 1) & mask();
    }
  }

  bool erase_at(std::size_t i) {
    if (i == kNotFound) return false;
    slots_[i].~Slot();
    hashes_[i] = kEmpty;
    --size_;
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask();
      if (hashes_[j] == kEmpty) break;
      const std::size_t home = static_cast<std::size_t>(hashes_[j]) & mask();
      // Leave slot j alone iff its home lies cyclically within (i, j]: the
      // element is still reachable from home without crossing the hole.
      const bool reachable =
          i < j ? (home > i && home <= j) : (home > i || home <= j);
      if (!reachable) {
        new (&slots_[i]) Slot(std::move(slots_[j]));
        hashes_[i] = hashes_[j];
        slots_[j].~Slot();
        hashes_[j] = kEmpty;
        i = j;
      }
    }
    return true;
  }

  void grow_if_needed() {
    if (capacity_ == 0) {
      rehash(kMinCapacity);
    } else if ((size_ + 1) * 4 > capacity_ * 3) {
      rehash(capacity_ * 2);
    }
  }

  // One block holds both arrays: [hash x cap][pad][Slot x cap].
  static std::size_t slots_offset(std::size_t cap) noexcept {
    const std::size_t raw = cap * sizeof(std::uint64_t);
    const std::size_t align = alignof(Slot);
    return (raw + align - 1) / align * align;
  }

  void rehash(std::size_t new_capacity) {
    ECSDNS_DCHECK((new_capacity & (new_capacity - 1)) == 0);
    static_assert(alignof(Slot) <= alignof(std::max_align_t),
                  "over-aligned slots need an aligned allocation path");
    const std::size_t offset = slots_offset(new_capacity);
    // new[] of char returns max_align_t-aligned storage, which covers Slot.
    auto block = std::unique_ptr<unsigned char[]>(
        new unsigned char[offset + new_capacity * sizeof(Slot)]);
    auto* new_hashes = reinterpret_cast<std::uint64_t*>(block.get());
    auto* new_slots = reinterpret_cast<Slot*>(block.get() + offset);
    for (std::size_t i = 0; i < new_capacity; ++i) new_hashes[i] = kEmpty;

    const std::size_t new_mask = new_capacity - 1;
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (hashes_[i] == kEmpty) continue;
      std::size_t j = static_cast<std::size_t>(hashes_[i]) & new_mask;
      while (new_hashes[j] != kEmpty) j = (j + 1) & new_mask;
      new (&new_slots[j]) Slot(std::move(slots_[i]));
      new_hashes[j] = hashes_[i];
      slots_[i].~Slot();
    }

    block_ = std::move(block);
    hashes_ = new_hashes;
    slots_ = new_slots;
    capacity_ = new_capacity;
  }

  void destroy() {
    clear();
    block_.reset();
    hashes_ = nullptr;
    slots_ = nullptr;
    capacity_ = 0;
  }

  void swap(FlatHashMap& other) noexcept {
    std::swap(block_, other.block_);
    std::swap(hashes_, other.hashes_);
    std::swap(slots_, other.slots_);
    std::swap(capacity_, other.capacity_);
    std::swap(size_, other.size_);
  }

  std::unique_ptr<unsigned char[]> block_;
  std::uint64_t* hashes_ = nullptr;
  Slot* slots_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ecsdns::dnscore
