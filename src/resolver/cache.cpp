#include "resolver/cache.h"

#include <algorithm>

#include "dnscore/contracts.h"

namespace ecsdns::resolver {

EcsCache::EcsCache() : metrics_(&metrics_for(config_.policy)) {}

EcsCache::EcsCache(CacheConfig config)
    : config_(config), metrics_(&metrics_for(config_.policy)) {
  if (config_.bounded()) eviction_ = std::make_unique<SlotEviction>(config_.policy);
}

const EcsCache::Metrics& EcsCache::metrics_for(EvictionPolicy policy) {
  // Every cache binds the same process-wide registry entries, so they are
  // bound once per policy instead of once per cache (a fleet builds
  // thousands). Each policy binds on first use, so only the per-policy
  // eviction counters a run constructs appear in its export.
  const auto bind = [](EvictionPolicy p) {
    auto& registry = obs::MetricsRegistry::global();
    Metrics m;
    m.hits = obs::CounterHandle(registry.counter("cache.hits"));
    m.misses = obs::CounterHandle(registry.counter("cache.misses"));
    m.insertions = obs::CounterHandle(registry.counter("cache.insertions"));
    m.expired_evictions = obs::CounterHandle(registry.counter("cache.expired_evictions"));
    m.capacity_evictions =
        obs::CounterHandle(registry.counter("cache.capacity_evictions"));
    m.capacity_evictions_policy = obs::CounterHandle(
        registry.counter("cache.capacity_evictions." + to_string(p)));
    m.cleared_entries = obs::CounterHandle(registry.counter("cache.cleared_entries"));
    m.replacements = obs::CounterHandle(registry.counter("cache.replacements"));
    m.ttl_zero_skips = obs::CounterHandle(registry.counter("cache.ttl_zero_skips"));
    m.eviction_age_s = obs::HistogramHandle(registry.histogram("cache.eviction_age_s"));
    m.live_entries = obs::GaugeHandle(registry.gauge("cache.live_entries"));
    return m;
  };
  switch (policy) {
    case EvictionPolicy::kLfu: {
      static const Metrics lfu = bind(policy);
      return lfu;
    }
    case EvictionPolicy::kSieve: {
      static const Metrics sieve = bind(policy);
      return sieve;
    }
    case EvictionPolicy::kScopeAware: {
      static const Metrics scope = bind(policy);
      return scope;
    }
    case EvictionPolicy::kLru:
      break;
  }
  static const Metrics lru = bind(EvictionPolicy::kLru);
  return lru;
}

std::uint32_t EcsCache::find_question(const Name& qname, RRType qtype) const {
  // Heterogeneous probe: hash (qname, qtype) directly instead of copying the
  // Name into a Key — the copy was measurable on the §7 replay's hit path.
  const std::uint32_t* question =
      question_index_.find_with(Key::hash_of(qname, qtype), [&](const Key& k) {
        return k.qtype == qtype && k.qname == qname;
      });
  return question == nullptr ? kNil : *question;
}

const CacheEntry* EcsCache::lookup(const Name& qname, RRType qtype,
                                   const std::optional<IpAddress>& client,
                                   SimTime now) {
  const std::uint32_t q = find_question(qname, qtype);
  if (q == kNil) {
    ++stats_.misses;
    metrics_->misses.inc();
    return nullptr;
  }
  auto& lengths = questions_[q].lengths;

  // Longest-prefix-first probe: one block lookup per distinct scope length.
  // Cleanup is uniform across every exit path — each probed chain sheds
  // its expired entries and is dropped when emptied *before* the loop can
  // break on a hit, so no all-expired chain lingers until purge_expired()
  // and live-entry accounting stays exact.
  std::uint32_t best = kNil;
  for (std::size_t i = 0; i < lengths.size();) {
    LengthChain& chain = lengths[i];
    const bool global_chain = chain.length == 0;
    if (global_chain || (client && chain.length <= client->bit_length())) {
      const Prefix candidate =
          global_chain ? Prefix{} : Prefix{*client, chain.length};
      const std::uint32_t* found = block_index_.find(BlockKey{q, candidate});
      const std::uint32_t slot = found == nullptr ? kNil : *found;
      if (slot != kNil) {
        if (slots_[slot].entry.expiry <= now) {
          // The candidate expired under us. Sweep its whole chain while it
          // is hot: expiry is bulk-correlated (entries inserted together
          // age together), and sweeping here keeps size() truthful instead
          // of deferring to the next purge_expired().
          note_expirations(sweep(chain, now));
        } else {
          best = slot;  // longest first: first live hit wins
        }
      }
    }
    if (chain.head == kNil) {
      lengths.erase(lengths.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
    // A hit's chain was not swept, so it is never the one dropped above.
    if (best != kNil) break;
  }
  if (lengths.empty()) release_question(q);

  if (best == kNil) {
    ++stats_.misses;
    metrics_->misses.inc();
    return nullptr;
  }
  // The sweep above guarantees a returned entry is live.
  ECSDNS_DCHECK(slots_[best].entry.expiry > now);
  if (eviction_) eviction_->on_hit(best);
  ++stats_.hits;
  metrics_->hits.inc();
  return &slots_[best].entry;
}

void EcsCache::insert(const Name& qname, RRType qtype, const Prefix& network,
                      std::uint8_t echo_scope, std::span<const ResourceRecord> records,
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
    metrics_->ttl_zero_skips.inc();
    return;
  }
  const Prefix block = network.length() == 0 ? Prefix{} : network;
  const std::uint32_t q = find_question(qname, qtype);
  const std::uint32_t* existing =
      q == kNil ? nullptr : block_index_.find(BlockKey{q, block});
  std::uint32_t slot = existing == nullptr ? kNil : *existing;
  if (slot != kNil) {
    // A same-network insert replaces the entry in its slot. Its eviction
    // state restarts as a fresh insert; with no victim named in between,
    // the victim order hands the freed slot straight back.
    if (eviction_) {
      eviction_->on_erase(slot);
      [[maybe_unused]] const SlotEviction::Slot again =
          eviction_->on_insert(network.length());
      ECSDNS_DCHECK(again == slot);
    }
    ++stats_.replacements;
    metrics_->replacements.inc();
  } else {
    // Room first, then the slot: a victim's slot is recycled at once, so
    // the slab never outgrows the bound. Eviction may free this question,
    // so claim_slot looks it up afresh.
    if (eviction_) make_room(1, now);
    slot = claim_slot(qname, qtype, block, network.length());
    ++live_entries_;
    metrics_->live_entries.add(1);
  }
  CacheEntry& entry = slots_[slot].entry;
  entry.network = network;
  entry.records.assign(records.begin(), records.end());
  entry.scope = echo_scope;
  entry.inserted_at = now;
  entry.expiry = now + ttl;
  ++stats_.insertions;
  metrics_->insertions.inc();
  note_size();
}

std::uint32_t EcsCache::claim_slot(const Name& qname, RRType qtype,
                                   const Prefix& block, int length) {
  std::uint32_t q = find_question(qname, qtype);
  if (q == kNil) {
    if (free_question_ != kNil) {
      q = free_question_;
      free_question_ = questions_[q].next_free;
      questions_[q].key = Key{qname, qtype};
    } else {
      q = static_cast<std::uint32_t>(questions_.size());
      questions_.push_back(Question{Key{qname, qtype}, {}, kNil});
    }
    question_index_.insert_or_assign(questions_[q].key, q);
  }
  std::uint32_t slot;
  if (eviction_) {
    slot = eviction_->on_insert(length);
    if (slot >= slots_.size()) slots_.resize(std::size_t{slot} + 1);
  } else if (free_slot_ != kNil) {
    slot = free_slot_;
    free_slot_ = slots_[slot].next;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  block_index_.insert_or_assign(BlockKey{q, block}, slot);

  // Descending order, so the lookup loop walks longest-prefix-first.
  auto& lengths = questions_[q].lengths;
  auto chain = std::lower_bound(
      lengths.begin(), lengths.end(), length,
      [](const LengthChain& c, int l) { return c.length > l; });
  if (chain == lengths.end() || chain->length != length) {
    chain = lengths.insert(chain, LengthChain{length, kNil});
  }
  Slot& s = slots_[slot];
  s.question = q;
  s.prev = kNil;
  s.next = chain->head;
  if (chain->head != kNil) slots_[chain->head].prev = slot;
  chain->head = slot;
  return slot;
}

void EcsCache::unlink(std::uint32_t slot, LengthChain& chain) {
  Slot& s = slots_[slot];
  if (s.prev == kNil) {
    chain.head = s.next;
  } else {
    slots_[s.prev].next = s.next;
  }
  if (s.next != kNil) slots_[s.next].prev = s.prev;
  const Prefix& network = s.entry.network;
  block_index_.erase(BlockKey{s.question, network.length() == 0 ? Prefix{} : network});
  if (eviction_) {
    eviction_->on_erase(slot);
  } else {
    s.next = free_slot_;
    free_slot_ = slot;
  }
}

std::size_t EcsCache::sweep(LengthChain& chain, SimTime now) {
  std::size_t swept = 0;
  for (std::uint32_t slot = chain.head; slot != kNil;) {
    const std::uint32_t next = slots_[slot].next;
    if (slots_[slot].entry.expiry <= now) {
      unlink(slot, chain);
      ++swept;
    }
    slot = next;
  }
  return swept;
}

void EcsCache::release_question(std::uint32_t question) {
  Question& q = questions_[question];
  ECSDNS_DCHECK(q.lengths.empty());
  question_index_.erase(q.key);
  q.next_free = free_question_;
  free_question_ = question;
}

void EcsCache::purge_expired(SimTime now) {
  for (std::uint32_t q = 0; q < questions_.size(); ++q) {
    auto& lengths = questions_[q].lengths;
    if (lengths.empty()) continue;  // free
    for (std::size_t i = 0; i < lengths.size();) {
      note_expirations(sweep(lengths[i], now));
      if (lengths[i].head == kNil) {
        lengths.erase(lengths.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    if (lengths.empty()) release_question(q);
  }
}

std::size_t EcsCache::entries_for(const Name& qname, RRType qtype, SimTime now) {
  const std::uint32_t q = find_question(qname, qtype);
  if (q == kNil) return 0;
  std::size_t count = 0;
  for (const LengthChain& chain : questions_[q].lengths) {
    for (std::uint32_t slot = chain.head; slot != kNil; slot = slots_[slot].next) {
      if (slots_[slot].entry.expiry > now) ++count;
    }
  }
  return count;
}

void EcsCache::clear() {
  // Every slot and question goes back to its freelist; the slabs keep
  // their storage for reuse.
  question_index_.clear();
  block_index_.clear();
  free_question_ = kNil;
  for (std::uint32_t q = static_cast<std::uint32_t>(questions_.size()); q-- > 0;) {
    questions_[q].lengths.clear();
    questions_[q].next_free = free_question_;
    free_question_ = q;
  }
  free_slot_ = kNil;
  if (eviction_) {
    eviction_->clear();
  } else {
    for (std::uint32_t slot = static_cast<std::uint32_t>(slots_.size()); slot-- > 0;) {
      slots_[slot].next = free_slot_;
      free_slot_ = slot;
    }
  }
  // The dropped entries must land in a counter or the accounting identity
  // (insertions == live + expired + capacity + cleared + replacements)
  // silently breaks across a clear.
  stats_.cleared_entries += live_entries_;
  metrics_->cleared_entries.inc(live_entries_);
  metrics_->live_entries.add(-static_cast<std::int64_t>(live_entries_));
  live_entries_ = 0;
}

void EcsCache::note_size() {
  stats_.max_entries = std::max(stats_.max_entries, live_entries_);
}

void EcsCache::note_expirations(std::size_t n) {
  if (n == 0) return;
  stats_.expired_evictions += n;
  live_entries_ -= n;
  metrics_->expired_evictions.inc(n);
  metrics_->live_entries.add(-static_cast<std::int64_t>(n));
}

void EcsCache::make_room(std::size_t incoming_entries, SimTime now) {
  // tracked() hits zero only under a zero-entry bound; the entry is then
  // stored anyway, since an empty cache has no victim left to name.
  while (eviction_->tracked() > 0 &&
         live_entries_ + incoming_entries > *config_.capacity_entries) {
    evict_victim(now);
  }
}

void EcsCache::evict_victim(SimTime now) {
  const SlotEviction::Slot victim = eviction_->pick_victim();
  const Slot& s = slots_[victim];
  const SimTime age = now > s.entry.inserted_at ? now - s.entry.inserted_at : 0;
  metrics_->eviction_age_s.observe(static_cast<std::uint64_t>(age / netsim::kSecond));
  const std::uint32_t q = s.question;
  auto& lengths = questions_[q].lengths;
  const auto chain = std::find_if(
      lengths.begin(), lengths.end(),
      [&](const LengthChain& c) { return c.length == s.entry.network.length(); });
  ECSDNS_DCHECK(chain != lengths.end());
  unlink(victim, *chain);
  if (chain->head == kNil) lengths.erase(chain);
  if (lengths.empty()) release_question(q);
  --live_entries_;
  ++stats_.capacity_evictions;
  metrics_->capacity_evictions.inc();
  metrics_->capacity_evictions_policy.inc();
  metrics_->live_entries.add(-1);
}

}  // namespace ecsdns::resolver
