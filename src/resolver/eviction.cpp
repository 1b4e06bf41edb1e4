#include "resolver/eviction.h"

#include <algorithm>
#include <bit>

#include "dnscore/contracts.h"
#include "dnscore/hashing.h"

namespace ecsdns::resolver {

std::string to_string(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kLru: return "lru";
    case EvictionPolicy::kLfu: return "lfu";
    case EvictionPolicy::kSieve: return "sieve";
    case EvictionPolicy::kScopeAware: return "scope";
  }
  return "unknown";
}

SlotEviction::SlotEviction(EvictionPolicy policy)
    : policy_(policy),
      lists_(policy == EvictionPolicy::kScopeAware ? kMaxScope + 1 : 1) {}

SlotEviction::Slot SlotEviction::on_insert(int scope_bits) {
  Slot slot = free_slot_;
  if (slot != kNil) {
    free_slot_ = links_[slot].next;
  } else {
    slot = static_cast<Slot>(links_.size());
    links_.emplace_back();
  }
  ++tracked_;
  if (policy_ == EvictionPolicy::kLfu) {
    // At most one bucket per tracked entry: reserving here keeps
    // lfu_new_bucket from ever reallocating on the hit path.
    if (buckets_.capacity() < links_.capacity()) buckets_.reserve(links_.capacity());
    std::uint32_t bucket = first_bucket_;
    if (bucket == kNil || buckets_[bucket].freq != 1) bucket = lfu_new_bucket(1, kNil);
    links_[slot].aux = bucket;
    append(buckets_[bucket].entries, slot);
    return slot;
  }
  // Scope-aware keeps one LRU list per prefix length; LRU and SIEVE keep
  // everything in list 0, so for LRU the scope-aware victim rule (longest
  // nonempty length first) reduces to the head of list 0.
  ECSDNS_DCHECK(scope_bits >= 0 && scope_bits <= kMaxScope);
  const std::uint32_t list =
      policy_ == EvictionPolicy::kScopeAware ? static_cast<std::uint32_t>(scope_bits) : 0;
  links_[slot].aux = list;  // SIEVE: visited bit clear
  append(lists_[list], slot);
  nonempty_[list / 64] |= std::uint64_t{1} << (list % 64);
  return slot;
}

void SlotEviction::on_hit(Slot slot) {
  if (policy_ == EvictionPolicy::kLfu) {
    lfu_hit(slot);
  } else if (policy_ == EvictionPolicy::kSieve) {
    // Hits only set a bit — no list surgery — which is what makes SIEVE
    // cheap.
    links_[slot].aux |= kVisited;
  } else {
    List& list = lists_[links_[slot].aux];
    unlink(list, slot);
    append(list, slot);
  }
}

void SlotEviction::on_erase(Slot slot) {
  ECSDNS_DCHECK(tracked_ > 0);
  --tracked_;
  if (policy_ == EvictionPolicy::kLfu) {
    const std::uint32_t bucket = links_[slot].aux;
    unlink(buckets_[bucket].entries, slot);
    lfu_drop_if_empty(bucket);
  } else {
    // If the SIEVE hand rests on the erased entry, it advances to the next
    // survivor toward the newest end; the sweep continues from there
    // whatever the reason the entry left, so the outcome is independent of
    // erase order.
    if (hand_ == slot) hand_ = links_[slot].next;
    const std::uint32_t list = links_[slot].aux & ~kVisited;
    unlink(lists_[list], slot);
    if (lists_[list].empty()) nonempty_[list / 64] &= ~(std::uint64_t{1} << (list % 64));
  }
  links_[slot].next = free_slot_;
  free_slot_ = slot;
}

SlotEviction::Slot SlotEviction::pick_victim() {
  ECSDNS_DCHECK(tracked_ > 0);
  if (policy_ == EvictionPolicy::kLfu) return buckets_[first_bucket_].entries.head;
  if (policy_ != EvictionPolicy::kSieve) {
    // Longest nonempty prefix length first (global /0 last), oldest touch
    // within it.
    for (std::size_t word = nonempty_.size(); word-- > 0;) {
      if (nonempty_[word] != 0) {
        return lists_[64 * word + std::bit_width(nonempty_[word]) - 1].head;
      }
    }
  }
  // SIEVE (Zhang et al., NSDI'24): the hand sweeps from the oldest entry
  // toward the newest, wrapping around. Visited entries get a second
  // chance (bit cleared, hand moves on); the first unvisited entry is the
  // victim. The hand's position persists across evictions.
  const Slot oldest = lists_[0].head;
  if (hand_ == kNil) hand_ = oldest;
  while ((links_[hand_].aux & kVisited) != 0) {
    links_[hand_].aux &= ~kVisited;
    hand_ = links_[hand_].next;
    if (hand_ == kNil) hand_ = oldest;
  }
  return hand_;
}

void SlotEviction::clear() {
  tracked_ = 0;
  links_.clear();
  std::fill(lists_.begin(), lists_.end(), List{});
  hand_ = kNil;
  free_slot_ = kNil;
  nonempty_ = {};
  buckets_.clear();
  first_bucket_ = kNil;
  free_bucket_ = kNil;
}

void SlotEviction::append(List& list, Slot slot) {
  links_[slot].prev = list.tail;
  links_[slot].next = kNil;
  (list.tail == kNil ? list.head : links_[list.tail].next) = slot;
  list.tail = slot;
}

void SlotEviction::unlink(List& list, Slot slot) {
  const Link& link = links_[slot];
  (link.prev == kNil ? list.head : links_[link.prev].next) = link.next;
  (link.next == kNil ? list.tail : links_[link.next].prev) = link.prev;
}

// A hit moves the entry from its bucket (frequency f) to the tail of the
// f+1 bucket. Buckets stay in ascending frequency and each bucket in touch
// order, so the head of the first bucket is exactly the minimum of
// (frequency, last touch) — the victim order of LFU with an LRU tie-break.
void SlotEviction::lfu_hit(Slot slot) {
  const std::uint32_t from = links_[slot].aux;
  const std::uint64_t freq = buckets_[from].freq + 1;
  std::uint32_t to = buckets_[from].next;
  if (to == kNil || buckets_[to].freq != freq) {
    const List& entries = buckets_[from].entries;
    if (entries.head == entries.tail) {
      // Sole member: its bucket can take the new frequency in place and
      // still sit strictly between its neighbours.
      buckets_[from].freq = freq;
      return;
    }
    to = lfu_new_bucket(freq, from);
  }
  unlink(buckets_[from].entries, slot);
  lfu_drop_if_empty(from);
  links_[slot].aux = to;
  append(buckets_[to].entries, slot);
}

void SlotEviction::lfu_drop_if_empty(std::uint32_t bucket) {
  Bucket& b = buckets_[bucket];
  if (!b.entries.empty()) return;
  (b.prev == kNil ? first_bucket_ : buckets_[b.prev].next) = b.next;
  if (b.next != kNil) buckets_[b.next].prev = b.prev;
  b.next = free_bucket_;
  free_bucket_ = bucket;
}

// Links a bucket of `freq` after `after` (kNil = at the front), recycling a
// dropped bucket when one is free.
std::uint32_t SlotEviction::lfu_new_bucket(std::uint64_t freq, std::uint32_t after) {
  std::uint32_t bucket = free_bucket_;
  if (bucket != kNil) {
    free_bucket_ = buckets_[bucket].next;
  } else {
    bucket = static_cast<std::uint32_t>(buckets_.size());
    // ecstidy:allow(noalloc): stays within the capacity on_insert reserved
    // (one bucket per tracked entry at most), so it never reallocates.
    buckets_.emplace_back();
  }
  const std::uint32_t next = after == kNil ? first_bucket_ : buckets_[after].next;
  buckets_[bucket] = Bucket{freq, List{}, after, next};
  if (next != kNil) buckets_[next].prev = bucket;
  (after == kNil ? first_bucket_ : buckets_[after].next) = bucket;
  return bucket;
}

std::size_t EvictionStrategy::IdHash::operator()(EntryId id) const noexcept {
  return static_cast<std::size_t>(dnscore::mix64(id));
}

SlotEviction::Slot EvictionStrategy::slot_of(EntryId id) const {
  const SlotEviction::Slot* slot = slot_of_.find(id);
  ECSDNS_CHECK(slot != nullptr);
  return *slot;
}

void EvictionStrategy::on_insert(EntryId id, const EntryTraits& traits) {
  const SlotEviction::Slot slot = order_.on_insert(traits.scope_bits);
  if (slot >= id_of_.size()) id_of_.resize(std::size_t{slot} + 1);
  id_of_[slot] = id;
  slot_of_.insert_or_assign(id, slot);
}

void EvictionStrategy::on_hit(EntryId id) { order_.on_hit(slot_of(id)); }

void EvictionStrategy::on_erase(EntryId id) {
  order_.on_erase(slot_of(id));
  slot_of_.erase(id);
}

EntryId EvictionStrategy::pick_victim() { return id_of_[order_.pick_victim()]; }

void EvictionStrategy::clear() {
  order_.clear();
  slot_of_.clear();
}

std::unique_ptr<EvictionStrategy> make_eviction_strategy(EvictionPolicy policy) {
  return std::make_unique<EvictionStrategy>(policy);
}

}  // namespace ecsdns::resolver
