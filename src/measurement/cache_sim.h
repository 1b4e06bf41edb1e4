// Trace-driven cache simulation (§7).
//
// Replays a resolver-side trace twice — once obeying the logged ECS scopes,
// once disregarding them — and reports per-resolver peak cache size and hit
// rate. Mirrors the paper's simulation assumptions: resolvers retain
// records for exactly the authoritative TTL and never evict early.
//
// Every replay consumes a TraceStream (measurement/trace_stream.h); the
// classic simulate_cache(Trace, ...) entry point wraps the trace in a
// MaterializedTraceStream and runs the identical fold, so the streaming and
// materialized paths cannot diverge. At paper scale a generator stream
// feeds the fold directly and the run's RSS stays bounded by *live cache
// entries*, not by trace length.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "dnscore/annotations.h"
#include "dnscore/flat_hash.h"
#include "dnscore/hashing.h"
#include "dnscore/ip.h"
#include "measurement/trace_stream.h"
#include "measurement/tracegen.h"
#include "obs/metrics.h"
#include "resolver/eviction.h"

namespace ecsdns::measurement {

namespace detail {

// Cache key: resolver x question x (scope-truncated client block). Without
// ECS the block is the zero prefix.
struct CacheKey {
  std::uint32_t resolver;
  std::uint32_t name;
  dnscore::Prefix block;

  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept {
    return dnscore::hash_combine(
        dnscore::hash_combine(k.block.hash(), k.resolver), k.name);
  }
};

inline CacheKey cache_key_of(const TraceQuery& q, bool with_ecs) {
  CacheKey key{q.resolver, q.name, dnscore::Prefix{}};
  if (with_ecs && q.scope > 0) {
    const int bits = std::min(q.scope, q.client.bit_length());
    key.block = dnscore::Prefix{q.client, bits};
  }
  return key;
}

}  // namespace detail

struct CacheSimOptions {
  bool with_ecs = true;
  // Overrides every response TTL (Figure 1 re-runs the CDN trace at 20, 40,
  // and 60 seconds).
  std::optional<std::uint32_t> ttl_override;
  // Bounds each resolver's cache; overflow evicts an entry chosen by
  // `policy` before its TTL ("premature eviction", the operational cost §7
  // says operators must size against). Unset = unbounded, the paper's
  // baseline assumption.
  std::optional<std::size_t> max_entries_per_resolver;
  // Victim selection for bounded replays (resolver::EvictionPolicy); LRU
  // preserves the historical behavior.
  resolver::EvictionPolicy policy = resolver::EvictionPolicy::kLru;
  // Partitions whole resolvers over N shards (netsim::run_sharded), each
  // replaying its own stream instance restricted to the resolvers it owns.
  // Results are bit-identical to the serial replay for every shard and
  // thread count (the serial-equivalence oracle in
  // tests/test_parallel_determinism.cpp enforces this).
  std::size_t shards = 1;
  // Worker threads for the sharded replay; 0 = one per shard, capped at
  // the hardware. Never affects results.
  std::size_t threads = 0;
  // Forwarded to netsim::RunnerConfig::runtime_metrics: per-shard busy
  // counters and join-wait histograms in the merged export. Run metadata,
  // exempt from the byte-identity contract — leave off anywhere exports
  // are compared across shard/thread counts.
  bool runtime_metrics = false;
};

struct ResolverCacheResult {
  std::uint32_t resolver = 0;
  std::size_t max_cache_size = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t premature_evictions = 0;

  double hit_rate() const {
    const auto total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

struct CacheSimResult {
  // One row per resolver, indexed by resolver id.
  std::vector<ResolverCacheResult> per_resolver;

  std::uint64_t total_hits() const;
  std::uint64_t total_misses() const;
  double overall_hit_rate() const;
};

// The cache replay: feed queries one at a time, read the per-resolver rows
// when the stream ends. simulate_cache_stream runs every replay — serial or
// sharded, bounded or not — through this fold; it is exposed so streaming
// pipelines (the scale_streaming bench, custom aggregations) can
// interleave generation and simulation without a trace in memory.
//
// One key table and one expiry heap serve every resolver of the instance.
// Per resolver it has observed, the instance keeps one dense row (the
// result row, the live-entry count and, bounded, the resolver's cache
// index), found through a 4-byte id -> row map; a shard of a sharded replay
// therefore holds rows only for the resolvers it replays. Before each
// query, every entry that expired by then is retired, so a key still in the
// table is live: a hit. A miss caches the answer for exactly its TTL; a
// TTL-0 answer is used once and never cached (RFC 1035, mirroring
// EcsCache::insert).
//
// A query's key is hashed once. The lookup probes with that hash; a miss
// inserts under it with no key compares (FlatHashMap::insert_absent: the
// lookup just proved the key absent, and eviction removes only other
// keys); and the entry's expiry record (unbounded) or slab entry (bounded)
// keeps the hash, not a copy of the key, so retiring or evicting the entry
// erases it through that hash (FlatHashMap::erase_with).
//
// With `options.max_entries_per_resolver` set, every resolver's cache
// holds at most that many entries, and an insert into a full cache first
// evicts the victim `options.policy` names (a "premature eviction").
// Bounded mode adds, per resolver that ever inserts, a
// resolver::SlotEviction victim order and an entry slab indexed by its
// dense slots, so once a cache has reached its bound observe() allocates
// nothing for it. Memory is O(live cache entries + resolvers observed),
// independent of how many queries flow through.
//
// Capacity evictions are tallied inside the instance, so an eviction
// touches no shared metric; the tallies reach the registry given to the
// constructor when the instance finishes (finish() or finish_into()).
class StreamingCacheSim {
 public:
  // Capacity evictions count into `metrics` (cache_sim.capacity_evictions,
  // plus the entry-age histogram cache_sim.eviction_age_s) when the
  // instance finishes; unbounded replays record nothing there.
  StreamingCacheSim(std::uint32_t resolvers, const CacheSimOptions& options,
                    obs::MetricsRegistry& metrics = obs::MetricsRegistry::global());

  // Reserves rows for `resolvers` distinct resolvers, so observing that
  // many allocates no row storage beyond this call.
  void reserve_rows(std::size_t resolvers) { rows_.reserve(resolvers); }

  void observe(const TraceQuery& q);
  // Per-resolver rows, one per resolver id; resolvers never observed keep
  // all-zero rows. Adds the eviction tallies to the registry. The instance
  // is spent afterwards.
  CacheSimResult finish();
  // Writes the row of every observed resolver into
  // `out.per_resolver[resolver]`, which must hold a row per resolver id, and
  // touches no other row; instances that observed disjoint resolvers may
  // write into one result concurrently. Adds the eviction tallies to the
  // registry. The instance is spent afterwards.
  void finish_into(CacheSimResult& out);

  std::uint64_t queries() const noexcept { return queries_; }
  std::size_t live_entries() const noexcept { return table_.size(); }

 private:
  using Slot = resolver::SlotEviction::Slot;
  // Pending expiries. An unbounded entry leaves only by expiry, so its
  // record holds just the expiry and its key's hash — 16 bytes, not a
  // 40-byte key copy — and retire_expired erases the entry both match.
  // Bounded records name the entry's slab slot instead, because an evicted
  // entry leaves its record behind, and that heap outgrows the live set.
  struct KeyExpiry {
    SimTime when;
    std::uint64_t hash;  // detail::CacheKeyHash of the entry's key
  };
  struct SlotExpiry {
    SimTime when;
    std::uint32_t resolver;
    Slot slot;
  };
  // A bounded entry's slab record: 24 bytes. The key lives only in the
  // table; its hash is enough to erase it there (see release()).
  struct Entry {
    std::uint64_t hash = 0;  // detail::CacheKeyHash of the entry's key
    SimTime inserted_at = 0;
    SimTime expiry = 0;  // kFree once the slot is released
  };
  static_assert(sizeof(Entry) == 24);
  // One resolver's capacity state (bounded mode only).
  struct ResolverCache {
    explicit ResolverCache(resolver::EvictionPolicy policy) : order(policy) {}
    resolver::SlotEviction order;
    std::vector<Entry> slab;  // indexed by the order's slots
  };
  static constexpr std::uint32_t kNone = 0xffffffffu;
  // One observed resolver.
  struct Row {
    ResolverCacheResult result;
    std::uint32_t live = 0;
    std::uint32_t cache = kNone;  // caches_ index (bounded mode)
  };

  Row& row_of(std::uint32_t resolver);
  Row& observed_row(std::uint32_t resolver) { return rows_[row_index_[resolver]]; }
  void retire_expired(SimTime now);
  ResolverCache& cache_of(Row& row);
  // Removes the live entry in `resolver`'s `slot` from the table and the
  // slab, and frees the slot.
  ECSDNS_NOALLOC void release(ResolverCache& cache, std::uint32_t resolver, Slot slot);
  ECSDNS_NOALLOC void evict_one(ResolverCache& cache, ResolverCacheResult& row,
                                SimTime now);

  bool with_ecs_;
  std::optional<std::uint32_t> ttl_override_;
  std::optional<std::size_t> bound_;
  resolver::EvictionPolicy policy_;
  // The registry's eviction metrics (bounded mode), and this instance's
  // eviction ages, added to them once when the instance finishes; the
  // count of ages is the eviction count.
  obs::Counter* evictions_ = nullptr;
  obs::Histogram* eviction_ages_ = nullptr;
  obs::Histogram ages_;
  // Live entries. The value is the entry's expiry (unbounded mode) or its
  // slot in its resolver's slab (bounded mode).
  dnscore::FlatHashMap<detail::CacheKey, SimTime, detail::CacheKeyHash> table_;
  // Min-heaps on `when`; each mode uses one.
  std::vector<KeyExpiry> key_expiries_;
  std::vector<SlotExpiry> slot_expiries_;
  std::vector<std::uint32_t> row_index_;  // resolver id -> rows_ index, or kNone
  std::vector<Row> rows_;                 // in order of first observation
  std::vector<ResolverCache> caches_;
  std::uint64_t queries_ = 0;
};

// Replays one logical stream through StreamingCacheSim. A time-ordered
// stream partitions by resolver over `options.shards` shards, each worker
// building its own instance from the factory (stream construction is a
// pure deterministic function, so every instance replays the same
// sequence) and restricting it to the resolvers it owns; any other stream
// replays on one shard.
CacheSimResult simulate_cache_stream(const TraceStreamFactory& factory,
                                     const CacheSimOptions& options);

CacheSimResult simulate_cache(const Trace& trace, const CacheSimOptions& options);

// Digest of the row count, the global tallies and every per-resolver row
// (resolver, hits, misses, max_cache_size, premature_evictions) in
// resolver order — the serial-equivalence oracle where holding two
// million-row results side by side is wasteful. O(resolvers): milliseconds
// at 1M rows.
std::uint64_t result_digest(const CacheSimResult& result);

// Per-resolver blow-up factors: peak cache size with ECS divided by peak
// size without (Figure 1's metric). Resolvers with an empty no-ECS cache
// are skipped. `shards`/`threads` forward to CacheSimOptions.
std::vector<double> blowup_factors(const Trace& trace,
                                   std::optional<std::uint32_t> ttl_override,
                                   std::size_t shards = 1,
                                   std::size_t threads = 0);

}  // namespace ecsdns::measurement
