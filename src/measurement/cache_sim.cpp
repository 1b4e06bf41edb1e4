#include "measurement/cache_sim.h"

#include <algorithm>
#include <memory>
#include <queue>
#include <span>
#include <stdexcept>
#include <utility>

#include "dnscore/contracts.h"
#include "dnscore/flat_hash.h"
#include "dnscore/hashing.h"
#include "dnscore/ip.h"
#include "measurement/sharding.h"
#include "netsim/parallel_engine.h"
#include "obs/metrics.h"

namespace ecsdns::measurement {
namespace {

using dnscore::IpAddress;
using dnscore::Prefix;
using detail::CacheKey;
using detail::CacheKeyHash;
using detail::cache_key_of;

// Content hash of a query's cache key, cheap enough for every shard to run
// over the full stream as its partition filter (no Prefix construction for
// foreign queries). Equal keys always hash equal; collisions only co-locate
// two keys on one shard, which is harmless.
std::uint64_t key_shard_hash(const TraceQuery& q, bool with_ecs) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = 14695981039346656037ull;
  h = (h ^ q.resolver) * kPrime;
  h = (h ^ q.name) * kPrime;
  if (with_ecs && q.scope > 0) {
    const int bits = std::min(q.scope, q.client.bit_length());
    const auto& bytes = q.client.bytes();
    const int full = bits / 8;
    const int partial = bits % 8;
    for (int i = 0; i < full; ++i) {
      h = (h ^ bytes[static_cast<std::size_t>(i)]) * kPrime;
    }
    if (partial != 0) {
      const auto mask = static_cast<std::uint8_t>(0xff00u >> partial);
      h = (h ^ static_cast<std::uint8_t>(
               bytes[static_cast<std::size_t>(full)] & mask)) *
          kPrime;
    }
    h = (h ^ static_cast<std::uint64_t>(bits)) * kPrime;
    h = (h ^ static_cast<std::uint64_t>(q.client.is_v4() ? 4 : 6)) * kPrime;
  }
  return h;
}

}  // namespace

const ResolverCacheResult& CacheSimResult::resolver(std::uint32_t id) const {
  for (const auto& r : per_resolver) {
    if (r.resolver == id) return r;
  }
  throw std::out_of_range("no such resolver in result");
}

std::uint64_t CacheSimResult::total_hits() const {
  std::uint64_t n = 0;
  for (const auto& r : per_resolver) n += r.hits;
  return n;
}

std::uint64_t CacheSimResult::total_misses() const {
  std::uint64_t n = 0;
  for (const auto& r : per_resolver) n += r.misses;
  return n;
}

double CacheSimResult::overall_hit_rate() const {
  const auto total = total_hits() + total_misses();
  return total == 0 ? 0.0
                    : static_cast<double>(total_hits()) / static_cast<double>(total);
}

// ---------------------------------------------------------------------------
// Unbounded streaming replay: entries leave only by TTL (the paper's §7
// assumption). This is the serial path; bounded replays go through
// BoundedCacheSim below instead.

StreamingCacheSim::StreamingCacheSim(std::uint32_t resolvers,
                                     const CacheSimOptions& options)
    : with_ecs_(options.with_ecs),
      ttl_override_(options.ttl_override),
      results_(resolvers),
      live_(resolvers, 0) {
  for (std::uint32_t r = 0; r < resolvers; ++r) results_[r].resolver = r;
}

void StreamingCacheSim::observe(const TraceQuery& q) {
  ++queries_;
  // Retire everything that expired before this query.
  while (!expirations_.empty() && expirations_.top().when <= q.time) {
    const Expiry e = expirations_.top();
    expirations_.pop();
    const Slot* slot = cache_.find(e.key);
    // Only erase if this expiration is current (the entry may have been
    // refreshed after a miss).
    if (slot != nullptr && slot->expiry <= e.when) {
      --live_[e.key.resolver];
      cache_.erase(e.key);
    }
  }

  const CacheKey key = cache_key_of(q, with_ecs_);

  auto& result = results_.at(q.resolver);
  Slot* found = cache_.find(key);
  if (found != nullptr && found->expiry > q.time) {
    ++result.hits;
    return;
  }
  ++result.misses;
  const std::uint32_t ttl_s = ttl_override_.value_or(q.ttl_s);
  const SimTime expiry = q.time + static_cast<SimTime>(ttl_s) * netsim::kSecond;
  const auto [new_slot, inserted] = cache_.insert_or_assign(key, Slot{expiry});
  (void)new_slot;
  if (inserted) ++live_[q.resolver];
  result.max_cache_size = std::max(result.max_cache_size, live_[q.resolver]);
  expirations_.push(Expiry{expiry, key});
}

CacheSimResult StreamingCacheSim::finish() {
  CacheSimResult out;
  out.per_resolver = std::move(results_);
  return out;
}

// ---------------------------------------------------------------------------
// Bounded replay.

namespace {
constexpr std::uint32_t kNoCache = 0xffffffffu;
}  // namespace

BoundedCacheSim::BoundedCacheSim(std::uint32_t resolvers,
                                 const CacheSimOptions& options,
                                 obs::MetricsRegistry& metrics)
    : with_ecs_(options.with_ecs),
      ttl_override_(options.ttl_override),
      policy_(options.policy),
      bound_(options.max_entries_per_resolver.value()),
      evictions_(metrics.counter("cache_sim.capacity_evictions")),
      eviction_ages_(metrics.histogram("cache_sim.eviction_age_s")),
      results_(resolvers),
      cache_index_(resolvers, kNoCache) {
  for (std::uint32_t r = 0; r < resolvers; ++r) results_[r].resolver = r;
}

BoundedCacheSim::ResolverCache& BoundedCacheSim::cache_of(std::uint32_t resolver) {
  std::uint32_t& index = cache_index_.at(resolver);
  if (index == kNoCache) {
    index = static_cast<std::uint32_t>(caches_.size());
    caches_.emplace_back(policy_);
  }
  return caches_[index];
}

void BoundedCacheSim::observe(const TraceQuery& q) {
  ResolverCache& cache = cache_of(q.resolver);
  ResolverCacheResult& row = results_[q.resolver];
  // Retire this resolver's entries that expired by now, skipping records
  // whose entry was evicted first.
  auto& expiries = cache.expiries;
  const auto later = [](const Expiry& a, const Expiry& b) { return a.when > b.when; };
  while (!expiries.empty() && expiries.front().when <= q.time) {
    std::pop_heap(expiries.begin(), expiries.end(), later);
    const Expiry e = expiries.back();
    expiries.pop_back();
    if (cache.slab[e.slot].generation == e.generation) release(cache, e.slot);
  }

  const CacheKey key = cache_key_of(q, with_ecs_);
  const Live* live = cache.table.find(key);
  if (live != nullptr && live->expiry > q.time) {
    ++row.hits;
    cache.order.on_hit(live->slot);
    return;
  }
  // The sweep retires anything with expiry <= q.time before the probe, so
  // a miss never finds a stale entry to refresh.
  ECSDNS_DCHECK(live == nullptr);
  ++row.misses;
  const std::uint32_t ttl_s = ttl_override_.value_or(q.ttl_s);
  // TTL-0 answers are used once and never cached (RFC 1035), mirroring
  // EcsCache::insert.
  if (ttl_s == 0) return;
  // Make room BEFORE inserting, so the bound is never exceeded — not even
  // transiently — and the incoming entry is not a victim candidate.
  while (cache.table.size() >= bound_ && !cache.table.empty()) {
    evict_one(cache, row, q.time);
  }
  const SimTime expiry = q.time + static_cast<SimTime>(ttl_s) * netsim::kSecond;
  const Slot slot = cache.order.on_insert(key.block.length());
  if (slot >= cache.slab.size()) cache.slab.resize(std::size_t{slot} + 1);
  Entry& entry = cache.slab[slot];
  entry.key = key;
  entry.inserted_at = q.time;
  cache.table.insert_or_assign(key, Live{expiry, slot});
  row.max_cache_size = std::max(row.max_cache_size, cache.table.size());
  expiries.push_back(Expiry{expiry, slot, entry.generation});
  std::push_heap(expiries.begin(), expiries.end(), later);
}

void BoundedCacheSim::release(ResolverCache& cache, Slot slot) {
  Entry& entry = cache.slab[slot];
  cache.table.erase(entry.key);
  cache.order.on_erase(slot);
  ++entry.generation;
}

void BoundedCacheSim::evict_one(ResolverCache& cache, ResolverCacheResult& row,
                                SimTime now) {
  const Slot victim = cache.order.pick_victim();
  const SimTime inserted_at = cache.slab[victim].inserted_at;
  const SimTime age = now > inserted_at ? now - inserted_at : 0;
  eviction_ages_.observe(static_cast<std::uint64_t>(age / netsim::kSecond));
  release(cache, victim);
  ++row.premature_evictions;
  evictions_.inc();
}

CacheSimResult BoundedCacheSim::finish() {
  CacheSimResult out;
  out.per_resolver = std::move(results_);
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// Sharded replay (see docs/parallel_engine.md).
//
// With an unbounded cache, each key's hit/miss sequence depends only on the
// queries that map to it, so keys partition across shards by stable hash
// and replay independently — each shard pulling its *own* instance of the
// stream and keeping only the keys it owns (the streaming analog of every
// shard scanning the shared trace vector). The one cross-key quantity — a
// resolver's peak live-entry count, sampled by the serial replay after
// every insert — is reconstructed exactly from per-shard occupancy deltas:
// every insert emits (+1, time, query index) and every real expiration
// (-1, expiry time). Deltas batch into the shard's epoch arena and stream
// each epoch to the shard that owns the resolver's accounting, which
// applies them in (time, expire-before-insert, query index) order —
// precisely the order the serial replay's lazy expiration sweep induces,
// because an expiration with `when <= q.time` always fires before query q.
// Batches are confined to one epoch window, so the owner merges N
// already-sorted runs per window.

// One occupancy change of a resolver's cache.
struct Delta {
  SimTime time;
  std::uint32_t resolver;
  // 0 = entry expired (-1), 1 = entry inserted (+1). Expires sort first at
  // equal times, matching the serial sweep-then-query order; this is exact
  // whenever effective TTLs are positive (an entry then never expires at
  // its own insertion time), which the dispatch in simulate_cache_stream
  // guarantees.
  std::uint8_t kind;
  // Stream index of the (creating) insert: the deterministic tie-break.
  std::uint64_t seq;
};

bool delta_less(const Delta& a, const Delta& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.kind != b.kind) return a.kind < b.kind;
  return a.seq < b.seq;
}

class ReplayShard final : public netsim::ShardProgram {
 public:
  ReplayShard(std::unique_ptr<TraceStream> stream, const CacheSimOptions& options,
              std::size_t index, std::size_t shards,
              std::vector<ReplayShard*>& directory,
              std::vector<ResolverCacheResult>& results)
      : stream_(std::move(stream)),
        options_(options),
        index_(index),
        shards_(shards),
        directory_(directory),
        results_(results),
        resolvers_(stream_->info().resolvers),
        hits_(resolvers_, 0),
        misses_(resolvers_, 0),
        live_(resolvers_, 0),
        peak_(resolvers_, 0),
        out_(shards) {
    has_next_ = stream_->next(next_q_);
  }

  void epoch(netsim::ShardContext& ctx, SimTime epoch_end) override {
    apply_pending();
    replay_until(epoch_end);
    flush_expirations(epoch_end);
    ship(ctx);
  }

  bool done(const netsim::ShardContext&) const override {
    return !has_next_ && expirations_.empty() && pending_.empty();
  }

  void finish(netsim::ShardContext& ctx) override {
    // Serial, in shard-index order: fold this shard's tallies and its owned
    // resolvers' exact peaks into the shared result.
    std::uint64_t hit_total = 0;
    std::uint64_t miss_total = 0;
    for (std::uint32_t r = 0; r < resolvers_; ++r) {
      results_[r].hits += hits_[r];
      results_[r].misses += misses_[r];
      hit_total += hits_[r];
      miss_total += misses_[r];
      if (shard_of_id(r, shards_) == index_) {
        ECSDNS_DCHECK(live_[r] == 0);
        results_[r].max_cache_size = peak_[r];
      }
    }
    auto& metrics = ctx.metrics();
    metrics.counter("cache_sim.queries").inc(hit_total + miss_total);
    metrics.counter("cache_sim.hits").inc(hit_total);
    metrics.counter("cache_sim.misses").inc(miss_total);
  }

  // Delta batches live in the sender's epoch arena; the span stays valid
  // until that arena's parity comes around again (round k+2), strictly
  // after this shard merges it in round k+1.
  void absorb(std::span<const Delta> batch) { pending_.push_back(batch); }

 private:
  struct Slot {
    SimTime expiry;
    std::uint64_t seq;
  };
  struct PendingExpiry {
    SimTime when;
    std::uint64_t seq;
    CacheKey key;
  };
  struct LaterExpiry {
    bool operator()(const PendingExpiry& a, const PendingExpiry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  // Owner role: merge the batches for the window that just closed. Every
  // source batch is sorted and covers the same window, so this is an N-way
  // merge on a strict total order (stream indexes never repeat).
  void apply_pending() {
    if (pending_.empty()) return;
    std::vector<std::size_t> cursor(pending_.size(), 0);
    for (;;) {
      std::size_t best = pending_.size();
      for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (cursor[i] >= pending_[i].size()) continue;
        if (best == pending_.size() ||
            delta_less(pending_[i][cursor[i]], pending_[best][cursor[best]])) {
          best = i;
        }
      }
      if (best == pending_.size()) break;
      const Delta& d = pending_[best][cursor[best]++];
      if (d.kind == 0) {
        ECSDNS_DCHECK(live_[d.resolver] > 0);
        --live_[d.resolver];
      } else {
        const std::int64_t now_live = ++live_[d.resolver];
        if (static_cast<std::uint64_t>(now_live) > peak_[d.resolver]) {
          peak_[d.resolver] = static_cast<std::uint64_t>(now_live);
        }
      }
    }
    pending_.clear();
  }

  // Replayer role: consume this window's slice of the stream, keeping only
  // the keys this shard owns.
  void replay_until(SimTime epoch_end) {
    while (has_next_ && next_q_.time < epoch_end) {
      const TraceQuery q = next_q_;
      const std::uint64_t seq = seq_++;
      has_next_ = stream_->next(next_q_);
      if (shard_of_hash(key_shard_hash(q, options_.with_ecs), shards_) !=
          index_) {
        continue;
      }
      sweep(q.time);
      const CacheKey key = cache_key_of(q, options_.with_ecs);
      const Slot* slot = cache_.find(key);
      if (slot != nullptr && slot->expiry > q.time) {
        ++hits_[q.resolver];
        continue;
      }
      // With positive TTLs the sweep has already erased an expired entry,
      // so a miss always inserts a fresh one.
      ECSDNS_DCHECK(slot == nullptr);
      ++misses_[q.resolver];
      const std::uint32_t ttl_s = options_.ttl_override.value_or(q.ttl_s);
      const SimTime expiry =
          q.time + static_cast<SimTime>(ttl_s) * netsim::kSecond;
      cache_.insert_or_assign(key, Slot{expiry, seq});
      emit(Delta{q.time, q.resolver, 1, seq});
      expirations_.push(PendingExpiry{expiry, seq, key});
    }
  }

  void sweep(SimTime now) {
    while (!expirations_.empty() && expirations_.top().when <= now) {
      pop_expiry();
    }
  }

  // Emits every expiration inside the closing window even when no local
  // query observed it — the owner's merge needs each window complete.
  void flush_expirations(SimTime epoch_end) {
    while (!expirations_.empty() && expirations_.top().when < epoch_end) {
      pop_expiry();
    }
  }

  void pop_expiry() {
    const PendingExpiry e = expirations_.top();
    expirations_.pop();
    const Slot* slot = cache_.find(e.key);
    // Skip stale records: the entry was refreshed after this expiry was
    // scheduled (mirrors the serial replay's currentness check). The delta
    // reads the slot before the erase relocates it.
    if (slot != nullptr && slot->expiry <= e.when) {
      emit(Delta{e.when, e.key.resolver, 0, slot->seq});
      cache_.erase(e.key);
    }
  }

  void emit(const Delta& d) { out_[shard_of_id(d.resolver, shards_)].push_back(d); }

  void ship(netsim::ShardContext& ctx) {
    for (std::size_t owner = 0; owner < shards_; ++owner) {
      auto& bucket = out_[owner];
      if (bucket.empty()) continue;
      ECSDNS_DCHECK(std::is_sorted(bucket.begin(), bucket.end(), delta_less));
      // Copy the batch into the epoch arena and ship a span: the reusable
      // bucket keeps its capacity, so the steady-state epoch allocates
      // nothing on this path.
      Delta* batch = ctx.epoch_arena().alloc_array<Delta>(bucket.size());
      std::copy(bucket.begin(), bucket.end(), batch);
      const std::size_t count = bucket.size();
      ctx.post(owner, [target = directory_[owner], batch, count](
                          netsim::ShardContext&) {
        target->absorb(std::span<const Delta>(batch, count));
      });
      bucket.clear();
    }
  }

  std::unique_ptr<TraceStream> stream_;
  const CacheSimOptions& options_;
  std::size_t index_;
  std::size_t shards_;
  std::vector<ReplayShard*>& directory_;
  std::vector<ResolverCacheResult>& results_;
  std::uint32_t resolvers_;

  bool has_next_ = false;
  TraceQuery next_q_;
  std::uint64_t seq_ = 0;
  dnscore::FlatHashMap<CacheKey, Slot, CacheKeyHash> cache_;
  std::priority_queue<PendingExpiry, std::vector<PendingExpiry>, LaterExpiry>
      expirations_;
  std::vector<std::uint64_t> hits_;
  std::vector<std::uint64_t> misses_;
  std::vector<std::int64_t> live_;
  std::vector<std::uint64_t> peak_;
  std::vector<std::vector<Delta>> out_;
  std::vector<std::span<const Delta>> pending_;
};

// ---------------------------------------------------------------------------
// Sharded bounded replay.
//
// A capacity bound couples every key of one resolver through the eviction
// policy's victim order — but never keys of different resolvers: each
// resolver owns its cache, its live count, and its policy state. So the
// unit of partitioning is the resolver (shard_of_id), and each shard
// replays its own stream instance through a BoundedCacheSim fed only the
// resolvers it owns. Every shard count — including 1, the serial case —
// runs this exact code, so serial equivalence holds by construction; no
// cross-shard mail, no sortedness requirement.
class BoundedShard final : public netsim::ShardProgram {
 public:
  BoundedShard(std::unique_ptr<TraceStream> stream, const CacheSimOptions& options,
               std::size_t index, std::size_t shards,
               std::vector<ResolverCacheResult>& results)
      : stream_(std::move(stream)),
        options_(options),
        results_(results),
        owned_(stream_->info().resolvers) {
    for (std::uint32_t r = 0; r < owned_.size(); ++r) {
      owned_[r] = shard_of_id(r, shards) == index;
    }
  }

  // The whole replay runs in the first epoch: shards never exchange mail,
  // so there is nothing to synchronize at epoch boundaries.
  void epoch(netsim::ShardContext& ctx, SimTime) override {
    if (done_) return;
    done_ = true;
    BoundedCacheSim sim(static_cast<std::uint32_t>(owned_.size()), options_,
                        ctx.metrics());
    TraceQuery q;
    while (stream_->next(q)) {
      if (owned_[q.resolver]) sim.observe(q);
    }
    result_ = sim.finish();
    ctx.metrics().counter("cache_sim.queries").inc(result_.total_hits() +
                                                   result_.total_misses());
    ctx.metrics().counter("cache_sim.hits").inc(result_.total_hits());
    ctx.metrics().counter("cache_sim.misses").inc(result_.total_misses());
  }

  bool done(const netsim::ShardContext&) const override { return done_; }

  void finish(netsim::ShardContext&) override {
    // Serial, in shard-index order: publish owned resolvers' rows.
    for (std::uint32_t r = 0; r < owned_.size(); ++r) {
      if (owned_[r]) results_[r] = result_.per_resolver[r];
    }
  }

 private:
  std::unique_ptr<TraceStream> stream_;
  const CacheSimOptions& options_;
  std::vector<ResolverCacheResult>& results_;
  std::vector<bool> owned_;

  bool done_ = false;
  CacheSimResult result_;
};

// ---------------------------------------------------------------------------
// Resolver-partitioned unbounded replay.
//
// Used when the stream restricts generation to owned members
// (TraceStream::restrict_to_members): each shard then *generates* only its
// own resolvers' queries, so generation cost — the dominant term of a
// synthetic replay — splits across cores too. (The key-partitioned path
// regenerates the full stream per shard and filters, which caps its speedup
// at the replay fraction of the work.) Replay is the StreamingCacheSim fold
// verbatim, one sweep queue per shard: on a time-ordered stream, any
// schedule that retires every expiration with `when <= q.time` before
// processing q yields identical hit/miss decisions and identical live
// counts at every insert, and queries of different resolvers never share a
// cache key — so each owned resolver's row equals the serial fold's row
// exactly, for every shard count. Works for TTL-0 queries too (the fold
// handles them inline), and needs no cross-shard mail.
class ResolverShard final : public netsim::ShardProgram {
 public:
  ResolverShard(std::unique_ptr<TraceStream> stream,
                const CacheSimOptions& options, std::size_t index,
                std::size_t shards, std::vector<ResolverCacheResult>& results)
      : stream_(std::move(stream)),
        options_(options),
        index_(index),
        shards_(shards),
        results_(results),
        resolvers_(stream_->info().resolvers),
        hits_(resolvers_, 0),
        misses_(resolvers_, 0),
        live_(resolvers_, 0),
        peak_(resolvers_, 0) {}

  // The whole replay runs in the first epoch — no mail, nothing to
  // synchronize at epoch boundaries (same shape as BoundedShard).
  void epoch(netsim::ShardContext& ctx, SimTime) override {
    if (done_) return;
    done_ = true;
    TraceQuery q;
    while (stream_->next(q)) observe(q);
    std::uint64_t hit_total = 0;
    std::uint64_t miss_total = 0;
    for (std::uint32_t r = 0; r < resolvers_; ++r) {
      hit_total += hits_[r];
      miss_total += misses_[r];
    }
    ctx.metrics().counter("cache_sim.queries").inc(hit_total + miss_total);
    ctx.metrics().counter("cache_sim.hits").inc(hit_total);
    ctx.metrics().counter("cache_sim.misses").inc(miss_total);
  }

  bool done(const netsim::ShardContext&) const override { return done_; }

  void finish(netsim::ShardContext&) override {
    // Serial, in shard-index order: publish owned resolvers' rows.
    for (std::uint32_t r = 0; r < resolvers_; ++r) {
      if (shard_of_id(r, shards_) != index_) continue;
      results_[r].hits = hits_[r];
      results_[r].misses = misses_[r];
      results_[r].max_cache_size = peak_[r];
    }
  }

 private:
  struct Slot {
    SimTime expiry = 0;
  };
  struct Expiry {
    SimTime when;
    CacheKey key;
  };
  struct LaterExpiry {
    bool operator()(const Expiry& a, const Expiry& b) const {
      return a.when > b.when;
    }
  };

  // StreamingCacheSim::observe, on this shard's slice of the stream.
  void observe(const TraceQuery& q) {
    ECSDNS_DCHECK(shard_of_id(q.resolver, shards_) == index_);
    while (!expirations_.empty() && expirations_.top().when <= q.time) {
      const Expiry e = expirations_.top();
      expirations_.pop();
      const Slot* slot = cache_.find(e.key);
      if (slot != nullptr && slot->expiry <= e.when) {
        --live_[e.key.resolver];
        cache_.erase(e.key);
      }
    }
    const CacheKey key = cache_key_of(q, options_.with_ecs);
    const Slot* found = cache_.find(key);
    if (found != nullptr && found->expiry > q.time) {
      ++hits_[q.resolver];
      return;
    }
    ++misses_[q.resolver];
    const std::uint32_t ttl_s = options_.ttl_override.value_or(q.ttl_s);
    const SimTime expiry =
        q.time + static_cast<SimTime>(ttl_s) * netsim::kSecond;
    const auto [new_slot, inserted] = cache_.insert_or_assign(key, Slot{expiry});
    (void)new_slot;
    if (inserted) ++live_[q.resolver];
    peak_[q.resolver] = std::max(peak_[q.resolver], live_[q.resolver]);
    expirations_.push(Expiry{expiry, key});
  }

  std::unique_ptr<TraceStream> stream_;
  const CacheSimOptions& options_;
  std::size_t index_;
  std::size_t shards_;
  std::vector<ResolverCacheResult>& results_;
  std::uint32_t resolvers_;

  bool done_ = false;
  dnscore::FlatHashMap<CacheKey, Slot, CacheKeyHash> cache_;
  std::priority_queue<Expiry, std::vector<Expiry>, LaterExpiry> expirations_;
  std::vector<std::uint64_t> hits_;
  std::vector<std::uint64_t> misses_;
  std::vector<std::size_t> live_;
  std::vector<std::size_t> peak_;
};

// Builds the per-shard stream instances: the dispatch probe (an untouched
// stream) becomes shard 0; the rest replay fresh from the factory.
std::vector<std::unique_ptr<TraceStream>> shard_streams(
    const TraceStreamFactory& factory, std::unique_ptr<TraceStream> probe,
    std::size_t shards) {
  std::vector<std::unique_ptr<TraceStream>> streams;
  streams.reserve(shards);
  streams.push_back(std::move(probe));
  for (std::size_t s = 1; s < shards; ++s) streams.push_back(factory());
  return streams;
}

netsim::ParallelConfig engine_config(const CacheSimOptions& options,
                                     std::size_t shards) {
  netsim::ParallelConfig config;
  config.shards = shards;
  config.threads = options.threads;
  config.pin_threads = options.pin_threads;
  config.runtime_metrics = options.runtime_metrics;
  return config;
}

CacheSimResult simulate_bounded(const TraceStreamFactory& factory,
                                std::unique_ptr<TraceStream> probe,
                                const CacheSimOptions& options) {
  const std::size_t shards = std::max<std::size_t>(1, options.shards);
  const std::uint32_t resolvers = probe->info().resolvers;
  std::vector<ResolverCacheResult> results(resolvers);
  for (std::uint32_t r = 0; r < resolvers; ++r) results[r].resolver = r;

  auto streams = shard_streams(factory, std::move(probe), shards);
  // Best-effort: a stream that can restrict skips generating foreign
  // resolvers' queries entirely; the ownership filter in BoundedShard still
  // guards streams that cannot. An owned resolver's queries keep their
  // relative order either way, so results are unchanged.
  if (shards > 1) {
    for (std::size_t s = 0; s < shards; ++s) {
      streams[s]->restrict_to_members(s, shards);
    }
  }
  std::vector<std::unique_ptr<netsim::ShardProgram>> programs;
  programs.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    programs.push_back(std::make_unique<BoundedShard>(std::move(streams[s]),
                                                      options, s, shards,
                                                      results));
  }

  // Epoch length is irrelevant — the shards exchange no messages and each
  // replays fully inside its first epoch.
  netsim::ParallelEngine engine(engine_config(options, shards),
                                std::move(programs));
  engine.run();
  engine.merge_metrics(obs::MetricsRegistry::global());

  CacheSimResult out;
  out.per_resolver = std::move(results);
  return out;
}

CacheSimResult simulate_by_resolver(const TraceStreamFactory& factory,
                                    std::unique_ptr<TraceStream> probe,
                                    const CacheSimOptions& options) {
  const std::size_t shards = options.shards;
  const std::uint32_t resolvers = probe->info().resolvers;
  std::vector<ResolverCacheResult> results(resolvers);
  for (std::uint32_t r = 0; r < resolvers; ++r) results[r].resolver = r;

  // The dispatch already restricted the probe to shard 0's members; every
  // other instance replays the same logical stream, so it must restrict
  // the same way.
  auto streams = shard_streams(factory, std::move(probe), shards);
  for (std::size_t s = 1; s < shards; ++s) {
    const bool restricted = streams[s]->restrict_to_members(s, shards);
    ECSDNS_CHECK(restricted);
  }
  std::vector<std::unique_ptr<netsim::ShardProgram>> programs;
  programs.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    programs.push_back(std::make_unique<ResolverShard>(std::move(streams[s]),
                                                       options, s, shards,
                                                       results));
  }

  netsim::ParallelEngine engine(engine_config(options, shards),
                                std::move(programs));
  engine.run();
  engine.merge_metrics(obs::MetricsRegistry::global());

  CacheSimResult out;
  out.per_resolver = std::move(results);
  return out;
}

CacheSimResult simulate_sharded(const TraceStreamFactory& factory,
                                std::unique_ptr<TraceStream> probe,
                                const CacheSimOptions& options) {
  const std::size_t shards = options.shards;
  const TraceStreamInfo info = probe->info();
  std::vector<ResolverCacheResult> results(info.resolvers);
  for (std::uint32_t r = 0; r < info.resolvers; ++r) results[r].resolver = r;

  auto streams = shard_streams(factory, std::move(probe), shards);
  std::vector<ReplayShard*> directory(shards, nullptr);
  std::vector<std::unique_ptr<netsim::ShardProgram>> programs;
  programs.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    auto program = std::make_unique<ReplayShard>(std::move(streams[s]), options,
                                                 s, shards, directory, results);
    directory[s] = program.get();
    programs.push_back(std::move(program));
  }

  netsim::ParallelConfig config = engine_config(options, shards);
  // Delta mail is accounting, not simulation traffic, so the window length
  // is free — it only has to be a pure function of the stream's config so
  // every shard count sees the same windows.
  config.epoch = std::max<SimTime>(netsim::kSecond, info.time_bound / 128);
  netsim::ParallelEngine engine(config, std::move(programs));
  engine.run();
  engine.merge_metrics(obs::MetricsRegistry::global());

  CacheSimResult out;
  out.per_resolver = std::move(results);
  return out;
}

}  // namespace

CacheSimResult simulate_cache_stream(const TraceStreamFactory& factory,
                                     const CacheSimOptions& options) {
  auto probe = factory();
  const TraceStreamInfo info = probe->info();
  // Sharded-path preconditions; anything else replays serially. Bounded
  // caches always partition by resolver. Unbounded sharded replays prefer
  // the resolver-partitioned path when the stream can restrict generation
  // to owned members (the only mode that also splits generation cost
  // across cores); it needs a time-ordered stream so the per-shard sweep
  // retires exactly what the serial sweep would have before each query.
  // The key-partitioned fallback additionally needs positive effective
  // TTLs — a zero TTL makes an entry expire at its own insert time, which
  // its expire-before-insert merge order cannot represent.
  const bool positive_ttls =
      options.ttl_override ? *options.ttl_override > 0 : info.positive_ttls;
  CacheSimResult out;
  if (options.max_entries_per_resolver) {
    out = simulate_bounded(factory, std::move(probe), options);
  } else if (options.shards > 1 && info.time_ordered &&
             info.resolvers >= options.shards &&
             probe->restrict_to_members(0, options.shards)) {
    out = simulate_by_resolver(factory, std::move(probe), options);
  } else if (options.shards > 1 && info.time_ordered && positive_ttls) {
    out = simulate_sharded(factory, std::move(probe), options);
  } else {
    StreamingCacheSim sim(info.resolvers, options);
    TraceQuery q;
    while (probe->next(q)) sim.observe(q);
    out = sim.finish();
    // Mirror the merged metrics of the sharded path so exports are
    // byte-identical across shard counts.
    auto& registry = obs::MetricsRegistry::global();
    registry.counter("cache_sim.queries").inc(out.total_hits() + out.total_misses());
    registry.counter("cache_sim.hits").inc(out.total_hits());
    registry.counter("cache_sim.misses").inc(out.total_misses());
  }
  std::uint64_t peak = 0;
  for (const auto& r : out.per_resolver) {
    peak = std::max<std::uint64_t>(peak, r.max_cache_size);
  }
  obs::MetricsRegistry::global().gauge("cache_sim.peak_entries").set(
      static_cast<std::int64_t>(peak));
  return out;
}

CacheSimResult simulate_cache(const Trace& trace, const CacheSimOptions& options) {
  // One info scan up front, shared by every per-shard stream instance.
  const TraceStreamInfo info = scan_trace_info(trace);
  return simulate_cache_stream(
      [&trace, &info]() -> std::unique_ptr<TraceStream> {
        return std::make_unique<MaterializedTraceStream>(trace, info);
      },
      options);
}

std::uint64_t sampled_result_digest(const CacheSimResult& result,
                                    std::size_t sample_rows,
                                    std::uint64_t seed) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = 14695981039346656037ull;
  const auto fold = [&h](std::uint64_t v) { h = (h ^ v) * kPrime; };
  const std::size_t n = result.per_resolver.size();
  fold(n);
  fold(result.total_hits());
  fold(result.total_misses());
  if (n == 0) return h;
  for (std::size_t k = 0; k < sample_rows; ++k) {
    const auto& row = result.per_resolver[mix64(seed + k) % n];
    fold(row.resolver);
    fold(row.hits);
    fold(row.misses);
    fold(row.max_cache_size);
    fold(row.premature_evictions);
  }
  return h;
}

std::vector<double> blowup_factors(const Trace& trace,
                                   std::optional<std::uint32_t> ttl_override,
                                   std::size_t shards, std::size_t threads,
                                   bool pin_threads) {
  CacheSimOptions with;
  with.with_ecs = true;
  with.ttl_override = ttl_override;
  with.shards = shards;
  with.threads = threads;
  with.pin_threads = pin_threads;
  CacheSimOptions without;
  without.with_ecs = false;
  without.ttl_override = ttl_override;
  without.shards = shards;
  without.threads = threads;
  without.pin_threads = pin_threads;

  const CacheSimResult ecs = simulate_cache(trace, with);
  const CacheSimResult plain = simulate_cache(trace, without);

  std::vector<double> out;
  out.reserve(ecs.per_resolver.size());
  for (std::size_t i = 0; i < ecs.per_resolver.size(); ++i) {
    const auto base = plain.per_resolver[i].max_cache_size;
    if (base == 0) continue;
    out.push_back(static_cast<double>(ecs.per_resolver[i].max_cache_size) /
                  static_cast<double>(base));
  }
  return out;
}

}  // namespace ecsdns::measurement
