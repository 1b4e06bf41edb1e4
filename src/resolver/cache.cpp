#include "resolver/cache.h"

#include <algorithm>

#include "dnscore/contracts.h"

namespace ecsdns::resolver {

EcsCache::EcsCache() { register_metrics(); }

EcsCache::EcsCache(CacheConfig config) : config_(config) {
  if (config_.bounded()) eviction_ = std::make_unique<Eviction>(config_.policy);
  register_metrics();
}

void EcsCache::register_metrics() {
  auto& registry = obs::MetricsRegistry::global();
  metrics_.hits = obs::CounterHandle(registry.counter("cache.hits"));
  metrics_.misses = obs::CounterHandle(registry.counter("cache.misses"));
  metrics_.insertions = obs::CounterHandle(registry.counter("cache.insertions"));
  metrics_.expired_evictions =
      obs::CounterHandle(registry.counter("cache.expired_evictions"));
  metrics_.capacity_evictions =
      obs::CounterHandle(registry.counter("cache.capacity_evictions"));
  metrics_.capacity_evictions_policy = obs::CounterHandle(
      registry.counter("cache.capacity_evictions." + to_string(config_.policy)));
  metrics_.cleared_entries =
      obs::CounterHandle(registry.counter("cache.cleared_entries"));
  metrics_.replacements = obs::CounterHandle(registry.counter("cache.replacements"));
  metrics_.ttl_zero_skips =
      obs::CounterHandle(registry.counter("cache.ttl_zero_skips"));
  metrics_.eviction_age_s =
      obs::HistogramHandle(registry.histogram("cache.eviction_age_s"));
  metrics_.live_entries = obs::GaugeHandle(registry.gauge("cache.live_entries"));
}

EcsCache::LengthBucket& EcsCache::QuestionEntries::bucket_for(int length) {
  // Descending order, so the lookup loop walks longest-prefix-first.
  auto it = std::lower_bound(
      by_length.begin(), by_length.end(), length,
      [](const LengthBucket& b, int l) { return b.length > l; });
  if (it == by_length.end() || it->length != length) {
    it = by_length.insert(it, LengthBucket{length, {}});
  }
  return *it;
}

const CacheEntry* EcsCache::lookup(const Name& qname, RRType qtype,
                                   const std::optional<IpAddress>& client,
                                   SimTime now) {
  // Heterogeneous probe: hash (qname, qtype) directly instead of copying the
  // Name into a Key — the copy was measurable on the §7 replay's hit path.
  const auto key_eq = [&](const Key& k) {
    return k.qtype == qtype && k.qname == qname;
  };
  QuestionEntries* question =
      map_.find_with(Key::hash_of(qname, qtype), key_eq);
  if (question == nullptr) {
    ++stats_.misses;
    metrics_.misses.inc();
    return nullptr;
  }
  auto& buckets = question->by_length;

  // Longest-prefix-first probe: one hash lookup per distinct scope length.
  // Cleanup is uniform across every exit path — each probed bucket sheds
  // its expired entries and is erased when emptied *before* the loop can
  // break on a hit, so no all-expired bucket lingers until purge_expired()
  // and live-entry accounting stays exact.
  const CacheEntry* best = nullptr;
  for (auto bucket_it = buckets.begin(); bucket_it != buckets.end();) {
    const int length = bucket_it->length;
    auto& bucket = bucket_it->entries;
    const bool global_bucket = length == 0;
    if (global_bucket || (client && length <= client->bit_length())) {
      // Global entries occupy a single slot keyed by the zero prefix; a
      // scoped candidate inherits the client's family, so cross-family
      // entries can never collide in the bucket.
      const Prefix candidate = global_bucket ? Prefix{} : Prefix{*client, length};
      if (const CacheEntry* entry = bucket.find(candidate)) {
        if (entry->expiry <= now) {
          // The candidate expired under us. Sweep the whole bucket while it
          // is hot: expiry is bulk-correlated (entries inserted together
          // age together), and sweeping here keeps size() truthful instead
          // of deferring to the next purge_expired().
          note_expirations(bucket.erase_if([&](const auto& slot) {
            if (slot.value.expiry > now) return false;
            if (eviction_) forget_entry(slot.value);
            return true;
          }));
        } else if (best == nullptr) {
          best = entry;  // longest first: first live hit wins
        }
      }
    }
    if (bucket.empty()) {
      bucket_it = buckets.erase(bucket_it);
    } else {
      ++bucket_it;
    }
    // The hit's own bucket is untouched after the hit (the sweep runs only
    // on the expired branch and the vector erase only on empty buckets), so
    // `best` survives the cleanup above.
    if (best != nullptr) break;
  }
  if (buckets.empty()) map_.erase(Key{qname, qtype});

  if (best != nullptr) {
    // The sweep above guarantees a returned entry is live.
    ECSDNS_DCHECK(best->expiry > now);
    if (eviction_) eviction_->order.on_hit(static_cast<SlotEviction::Slot>(best->id));
    ++stats_.hits;
    metrics_.hits.inc();
  } else {
    ++stats_.misses;
    metrics_.misses.inc();
  }
  return best;
}

void EcsCache::insert(const Name& qname, RRType qtype, const Prefix& network,
                      std::uint8_t echo_scope, std::vector<ResourceRecord> records,
                      SimTime now, SimTime ttl) {
  // RFC 7871 §7.3.1: entries are cached at the *effective* scope, so the
  // stored network can never be more specific than the scope echoed to
  // clients, and neither exceeds the family's bit length.
  ECSDNS_DCHECK(network.length() <= network.address().bit_length());
  ECSDNS_DCHECK(network.length() <= static_cast<int>(echo_scope) ||
                network.length() == 0);
  ECSDNS_DCHECK(static_cast<int>(echo_scope) <= network.address().bit_length());
  // RFC 1035 §3.2.1 / RFC 7871: a TTL of zero means "use once, do not
  // cache". Storing it created an entry with expiry == now that the very
  // next lookup swept, inflating insertions/expired_evictions with pure
  // churn — skip it entirely.
  if (ttl <= 0) {
    ++stats_.ttl_zero_skips;
    metrics_.ttl_zero_skips.inc();
    return;
  }
  CacheEntry entry;
  entry.network = network;
  entry.records = std::move(records);
  entry.scope = echo_scope;
  entry.inserted_at = now;
  entry.expiry = now + ttl;
  const auto key = network.length() == 0 ? Prefix{} : network;
  if (eviction_) {
    // A same-network insert replaces the old entry; retire its eviction
    // state before insert_or_assign overwrites (and forgets) its slot. The
    // bucket reference is scoped: make_room below relocates the table.
    bool replacing = false;
    {
      auto& bucket = map_[Key{qname, qtype}].bucket_for(network.length());
      if (const CacheEntry* old = bucket.entries.find(key)) {
        forget_entry(*old);
        replacing = true;
      }
    }
    // Room first, then the slot: a victim's slot is recycled at once, so
    // the slab never outgrows the bound.
    make_room(replacing ? 0 : 1, now);
    const SlotEviction::Slot slot = eviction_->order.on_insert(network.length());
    auto& slots = eviction_->slots;
    if (slot >= slots.size()) slots.resize(std::size_t{slot} + 1);
    slots[slot] = EntryLoc{qname, qtype, key, network.length()};
    entry.id = slot;
  }
  auto& bucket = map_[Key{qname, qtype}].bucket_for(network.length());
  const auto [slot, inserted] = bucket.entries.insert_or_assign(key, std::move(entry));
  (void)slot;
  if (!inserted) {
    ++stats_.replacements;
    metrics_.replacements.inc();
  } else {
    ++live_entries_;
    metrics_.live_entries.add(1);
  }
  ++stats_.insertions;
  metrics_.insertions.inc();
  note_size();
}

void EcsCache::purge_expired(SimTime now) {
  // Pass 1 sweeps expired entries in place; pass 2 drops questions whose
  // buckets all emptied (erase_if collects keys first, so the question
  // table is never mutated mid-scan).
  map_.for_each([&](auto& slot) {
    auto& buckets = slot.value.by_length;
    for (auto bucket_it = buckets.begin(); bucket_it != buckets.end();) {
      note_expirations(bucket_it->entries.erase_if([&](const auto& e) {
        if (e.value.expiry > now) return false;
        if (eviction_) forget_entry(e.value);
        return true;
      }));
      if (bucket_it->entries.empty()) {
        bucket_it = buckets.erase(bucket_it);
      } else {
        ++bucket_it;
      }
    }
  });
  map_.erase_if([](const auto& slot) { return slot.value.by_length.empty(); });
}

std::size_t EcsCache::entries_for(const Name& qname, RRType qtype, SimTime now) {
  const QuestionEntries* question = map_.find_with(
      Key::hash_of(qname, qtype),
      [&](const Key& k) { return k.qtype == qtype && k.qname == qname; });
  if (question == nullptr) return 0;
  std::size_t count = 0;
  for (const auto& bucket : question->by_length) {
    bucket.entries.for_each([&](const auto& slot) {
      if (slot.value.expiry > now) ++count;
    });
  }
  return count;
}

void EcsCache::clear() {
  map_.clear();
  // The dropped entries must land in a counter or the accounting identity
  // (insertions == live + expired + capacity + cleared + replacements)
  // silently breaks across a clear.
  stats_.cleared_entries += live_entries_;
  metrics_.cleared_entries.inc(live_entries_);
  metrics_.live_entries.add(-static_cast<std::int64_t>(live_entries_));
  live_entries_ = 0;
  if (eviction_) eviction_->order.clear();
}

void EcsCache::note_size() {
  stats_.max_entries = std::max(stats_.max_entries, live_entries_);
}

void EcsCache::note_expirations(std::size_t n) {
  if (n == 0) return;
  stats_.expired_evictions += n;
  live_entries_ -= n;
  metrics_.expired_evictions.inc(n);
  metrics_.live_entries.add(-static_cast<std::int64_t>(n));
}

void EcsCache::forget_entry(const CacheEntry& entry) {
  ECSDNS_DCHECK(eviction_ != nullptr);
  eviction_->order.on_erase(static_cast<SlotEviction::Slot>(entry.id));
}

void EcsCache::make_room(std::size_t incoming_entries, SimTime now) {
  // tracked() hits zero only under a zero-entry bound; the entry is then
  // stored anyway, since an empty cache has no victim left to name.
  while (eviction_->order.tracked() > 0 &&
         live_entries_ + incoming_entries > *config_.capacity_entries) {
    evict_victim(now);
  }
}

void EcsCache::evict_victim(SimTime now) {
  const SlotEviction::Slot victim = eviction_->order.pick_victim();
  // forget_entry only frees the slot, so `loc` stays intact until the next
  // insert.
  const EntryLoc& loc = eviction_->slots[victim];
  QuestionEntries* question =
      map_.find_with(Key::hash_of(loc.qname, loc.qtype), [&](const Key& k) {
        return k.qtype == loc.qtype && k.qname == loc.qname;
      });
  ECSDNS_DCHECK(question != nullptr);
  auto& buckets = question->by_length;
  for (auto bucket_it = buckets.begin(); bucket_it != buckets.end();
       ++bucket_it) {
    if (bucket_it->length != loc.length) continue;
    const CacheEntry* doomed = bucket_it->entries.find(loc.key);
    ECSDNS_DCHECK(doomed != nullptr && doomed->id == victim);
    const SimTime age = now > doomed->inserted_at ? now - doomed->inserted_at : 0;
    metrics_.eviction_age_s.observe(
        static_cast<std::uint64_t>(age / netsim::kSecond));
    forget_entry(*doomed);
    bucket_it->entries.erase(loc.key);
    if (bucket_it->entries.empty()) buckets.erase(bucket_it);
    break;
  }
  if (buckets.empty()) map_.erase(Key{loc.qname, loc.qtype});
  --live_entries_;
  ++stats_.capacity_evictions;
  metrics_.capacity_evictions.inc();
  metrics_.capacity_evictions_policy.inc();
  metrics_.live_entries.add(-1);
}

}  // namespace ecsdns::resolver
