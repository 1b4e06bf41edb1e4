// Pluggable eviction policies for memory-bounded ECS caches.
//
// The paper's §7 cache experiments assume an infinite cache: every entry
// lives for exactly its TTL. Production resolvers evict, and under ECS
// blow-up the *choice* of victim decides how much of the blow-up cost
// lands on the hit rate. This header is the seam both cache
// implementations (resolver::EcsCache and measurement::cache_sim) share:
// a capacity bound plus a victim order that observes inserts/hits/erases
// and names a victim under pressure.
//
// Every policy is strictly deterministic — victim choice is a pure
// function of the observed event sequence (no wall time, no randomness,
// never the numeric value of an entry's handle) — so bounded replays stay
// bit-identical across shard and thread counts, extending the
// serial-equivalence oracle to bounded caches.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dnscore/annotations.h"
#include "dnscore/flat_hash.h"

namespace ecsdns::resolver {

// Which victim-selection strategy a bounded cache runs.
enum class EvictionPolicy : std::uint8_t {
  kLru,        // least recently used
  kLfu,        // least frequently used, LRU tie-break
  kSieve,      // SIEVE / S3-FIFO-style second-chance FIFO (lazy promotion)
  kScopeAware, // collapse overlapping ECS scopes: most-specific prefix first
};

std::string to_string(EvictionPolicy policy);
// All four policies, in a stable order benches and tests sweep over.
inline constexpr EvictionPolicy kAllEvictionPolicies[] = {
    EvictionPolicy::kLru, EvictionPolicy::kLfu, EvictionPolicy::kSieve,
    EvictionPolicy::kScopeAware};

// Capacity configuration threaded from ResolverConfig / CacheSimOptions
// down to the cache. The bound counts entries, the unit of the paper's §7
// cache-size ratios; unset means "infinite", the paper's baseline
// assumption.
struct CacheConfig {
  std::optional<std::size_t> capacity_entries;
  EvictionPolicy policy = EvictionPolicy::kLru;

  bool bounded() const noexcept { return capacity_entries.has_value(); }
};

// Handle of a live cache entry. In the bounded caches it is the entry's
// SlotEviction slot.
using EntryId = std::uint64_t;

// What a policy may know about an entry beyond its handle. scope_bits is
// the ECS prefix length of the entry's block (0 = global answer); only the
// scope-aware policy reads it.
struct EntryTraits {
  int scope_bits = 0;
};

// The victim order every bounded cache runs. It names each live entry by a
// dense slot id that it hands out itself, recycling freed slots through an
// intrusive freelist, so ids stay below the cache's peak live count and
// the owner can keep its per-entry payload in a plain array indexed by
// slot. The policy is a tag, not a class hierarchy: all per-entry state
// lives in arrays indexed by slot, and each policy is an intrusive
// structure over them —
//   LRU   one index-linked list, coldest at the head;
//   LFU   frequency buckets in ascending order, each an LRU list;
//   SIEVE one FIFO list with visited bits and a persistent hand;
//   scope one LRU list per prefix length plus a nonempty-length bitmap.
// Every event is O(1) (scope: O(1) plus a 3-word bitmap scan). Once the
// arrays have grown to the cache's bound, no event allocates.
//
// Lifecycle, reported by the owner:
//   on_insert  — a new entry became live; returns its slot;
//   on_hit     — a lookup served the slot;
//   on_erase   — the slot left for any reason (TTL expiry, replacement,
//                capacity eviction after pick_victim) and is free again;
// pick_victim() names the slot to evict next; the owner erases it and
// reports that back through on_erase(). Only valid while tracked() > 0.
class SlotEviction {
 public:
  using Slot = std::uint32_t;

  explicit SlotEviction(EvictionPolicy policy = EvictionPolicy::kLru);

  // Grows the per-slot arrays (amortized) only when no freed slot is left.
  Slot on_insert(int scope_bits);
  ECSDNS_NOALLOC void on_hit(Slot slot);
  ECSDNS_NOALLOC void on_erase(Slot slot);
  ECSDNS_NOALLOC Slot pick_victim();
  // Forgets every slot (all ids are free again); capacity is retained.
  void clear();
  std::size_t tracked() const noexcept { return tracked_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint32_t kVisited = 0x80000000u;  // SIEVE, in aux
  static constexpr int kMaxScope = 128;

  // An index-linked list threaded through links_.
  struct List {
    Slot head = kNil;
    Slot tail = kNil;
    bool empty() const noexcept { return head == kNil; }
  };
  struct Link {
    Slot prev = kNil;
    Slot next = kNil;  // a free slot's next free slot
    // LRU/SIEVE/scope: index into lists_ (SIEVE adds kVisited).
    // LFU: index into buckets_.
    std::uint32_t aux = 0;
  };
  // LFU frequency bucket; buckets form their own ascending list.
  struct Bucket {
    std::uint64_t freq = 0;
    List entries;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  ECSDNS_NOALLOC void append(List& list, Slot slot);
  ECSDNS_NOALLOC void unlink(List& list, Slot slot);
  ECSDNS_NOALLOC void lfu_hit(Slot slot);
  ECSDNS_NOALLOC void lfu_drop_if_empty(std::uint32_t bucket);
  std::uint32_t lfu_new_bucket(std::uint64_t freq, std::uint32_t after);

  EvictionPolicy policy_;
  std::size_t tracked_ = 0;
  std::vector<Link> links_;
  std::vector<List> lists_;  // LRU/SIEVE: one; scope: one per length
  std::array<std::uint64_t, 3> nonempty_{};  // bitmap of nonempty lists_
  Slot hand_ = kNil;       // SIEVE; kNil = past the newest entry
  Slot free_slot_ = kNil;  // head of the freelist
  std::vector<Bucket> buckets_;              // LFU
  std::uint32_t first_bucket_ = kNil;
  std::uint32_t free_bucket_ = kNil;
};

// Id-keyed front end over SlotEviction for callers whose handles are not
// slot ids (tests, standalone policy benchmarks): maps each live EntryId
// to a recycled slot. The caches use SlotEviction directly.
class EvictionStrategy {
 public:
  explicit EvictionStrategy(EvictionPolicy policy) : order_(policy) {}

  // `id` must not be live already.
  void on_insert(EntryId id, const EntryTraits& traits);
  void on_hit(EntryId id);
  void on_erase(EntryId id);
  EntryId pick_victim();
  void clear();
  std::size_t tracked() const noexcept { return order_.tracked(); }

 private:
  struct IdHash {
    std::size_t operator()(EntryId id) const noexcept;
  };
  SlotEviction::Slot slot_of(EntryId id) const;

  SlotEviction order_;
  dnscore::FlatHashMap<EntryId, SlotEviction::Slot, IdHash> slot_of_;
  std::vector<EntryId> id_of_;  // indexed by slot
};

std::unique_ptr<EvictionStrategy> make_eviction_strategy(EvictionPolicy policy);

}  // namespace ecsdns::resolver
