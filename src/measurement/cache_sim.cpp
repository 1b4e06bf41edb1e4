#include "measurement/cache_sim.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "dnscore/contracts.h"
#include "netsim/sharded_runner.h"
#include "obs/metrics.h"

namespace ecsdns::measurement {

using detail::CacheKey;
using detail::cache_key_of;

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
// The fold.

namespace {

constexpr SimTime kFree = std::numeric_limits<SimTime>::min();

// Heap order: the earliest expiry on top.
struct Later {
  template <class Record>
  bool operator()(const Record& a, const Record& b) const noexcept {
    return a.when > b.when;
  }
};

template <class Record>
void push_expiry(std::vector<Record>& heap, const Record& record) {
  heap.push_back(record);
  std::push_heap(heap.begin(), heap.end(), Later{});
}

// Pops the earliest record into `out` if it is due by `now`.
template <class Record>
bool pop_due(std::vector<Record>& heap, SimTime now, Record& out) {
  if (heap.empty() || heap.front().when > now) return false;
  std::pop_heap(heap.begin(), heap.end(), Later{});
  out = heap.back();
  heap.pop_back();
  return true;
}

// One all-zero row per resolver id, each carrying its id.
CacheSimResult zero_rows(std::size_t resolvers) {
  CacheSimResult out;
  out.per_resolver.resize(resolvers);
  for (std::size_t r = 0; r < resolvers; ++r) {
    out.per_resolver[r].resolver = static_cast<std::uint32_t>(r);
  }
  return out;
}

}  // namespace

StreamingCacheSim::StreamingCacheSim(std::uint32_t resolvers,
                                     const CacheSimOptions& options,
                                     obs::MetricsRegistry& metrics)
    : with_ecs_(options.with_ecs),
      ttl_override_(options.ttl_override),
      bound_(options.max_entries_per_resolver),
      policy_(options.policy),
      row_index_(resolvers, kNone) {
  if (bound_) {
    evictions_ = &metrics.counter("cache_sim.capacity_evictions");
    eviction_ages_ = &metrics.histogram("cache_sim.eviction_age_s");
  }
}

StreamingCacheSim::Row& StreamingCacheSim::row_of(std::uint32_t resolver) {
  std::uint32_t& index = row_index_.at(resolver);
  if (index == kNone) {
    index = static_cast<std::uint32_t>(rows_.size());
    rows_.emplace_back().result.resolver = resolver;
  }
  return rows_[index];
}

StreamingCacheSim::ResolverCache& StreamingCacheSim::cache_of(Row& row) {
  if (row.cache == kNone) {
    row.cache = static_cast<std::uint32_t>(caches_.size());
    caches_.emplace_back(policy_);
  }
  return caches_[row.cache];
}

void StreamingCacheSim::retire_expired(SimTime now) {
  KeyExpiry due{};
  while (pop_due(key_expiries_, now, due)) {
    // Exact without the key: an unbounded entry leaves only by expiry, so
    // every live entry has exactly one pending record, carrying its own
    // (hash, expiry), and every record belongs to a live entry. A due
    // record therefore always finds an entry matching both, and erasing any
    // such entry keeps that pairing one to one, even when two keys share a
    // 64-bit hash. After the sweep the live set is exactly the entries
    // expiring after `now`.
    std::uint32_t resolver = 0;
    const bool erased =
        table_.erase_with(due.hash, [&](const CacheKey& key, SimTime expiry) {
          if (expiry != due.when) return false;
          resolver = key.resolver;
          return true;
        });
    ECSDNS_DCHECK(erased);
    --observed_row(resolver).live;
  }
  SlotExpiry slot_due{};
  while (pop_due(slot_expiries_, now, slot_due)) {
    // An evicted entry's record is stale: its slot is free, or holds an
    // entry with another expiry (one with the same expiry is due anyway).
    ResolverCache& cache = caches_[observed_row(slot_due.resolver).cache];
    if (cache.slab[slot_due.slot].expiry == slot_due.when) {
      release(cache, slot_due.resolver, slot_due.slot);
    }
  }
}

void StreamingCacheSim::observe(const TraceQuery& q) {
  ++queries_;
  retire_expired(q.time);

  Row& row = row_of(q.resolver);
  const CacheKey key = cache_key_of(q, with_ecs_);
  const std::uint64_t hash = detail::CacheKeyHash{}(key);
  if (const SimTime* stamp =
          table_.find_with(hash, [&key](const CacheKey& k) { return k == key; })) {
    ++row.result.hits;
    if (bound_) caches_[row.cache].order.on_hit(static_cast<Slot>(*stamp));
    return;
  }
  ++row.result.misses;
  const std::uint32_t ttl_s = ttl_override_.value_or(q.ttl_s);
  // TTL-0 answers are used once and never cached (RFC 1035), mirroring
  // EcsCache::insert.
  if (ttl_s == 0) return;
  const SimTime expiry = q.time + static_cast<SimTime>(ttl_s) * netsim::kSecond;
  // The key is still absent at each insert below: the lookup just missed,
  // and eviction removes only entries already in the table.
  if (bound_) {
    ResolverCache& cache = cache_of(row);
    // Make room BEFORE inserting, so the bound is never exceeded — not even
    // transiently — and the incoming entry is not a victim candidate.
    while (row.live >= *bound_ && row.live > 0) evict_one(cache, row.result, q.time);
    const Slot slot = cache.order.on_insert(key.block.length());
    if (slot >= cache.slab.size()) cache.slab.resize(std::size_t{slot} + 1);
    cache.slab[slot] = Entry{hash, q.time, expiry};
    push_expiry(slot_expiries_, SlotExpiry{expiry, q.resolver, slot});
    table_.insert_absent(hash, key, static_cast<SimTime>(slot));
  } else {
    push_expiry(key_expiries_, KeyExpiry{expiry, hash});
    table_.insert_absent(hash, key, expiry);
  }
  ++row.live;
  row.result.max_cache_size = std::max<std::size_t>(row.result.max_cache_size, row.live);
}

void StreamingCacheSim::release(ResolverCache& cache, std::uint32_t resolver, Slot slot) {
  Entry& entry = cache.slab[slot];
  // Exact without the key: within one resolver, live entries occupy
  // distinct slab slots, and a bounded entry's table value is its slot, so
  // (resolver, slot) names exactly one live table entry, and that entry's
  // stored hash is `entry.hash`.
  const bool erased =
      table_.erase_with(entry.hash, [&](const CacheKey& key, SimTime value) {
        return value == static_cast<SimTime>(slot) && key.resolver == resolver;
      });
  ECSDNS_DCHECK(erased);
  --observed_row(resolver).live;
  entry.expiry = kFree;
  cache.order.on_erase(slot);
}

void StreamingCacheSim::evict_one(ResolverCache& cache, ResolverCacheResult& row,
                                  SimTime now) {
  const Slot victim = cache.order.pick_victim();
  const SimTime inserted_at = cache.slab[victim].inserted_at;
  const SimTime age = now > inserted_at ? now - inserted_at : 0;
  ages_.observe(static_cast<std::uint64_t>(age / netsim::kSecond));
  release(cache, row.resolver, victim);
  ++row.premature_evictions;
}

CacheSimResult StreamingCacheSim::finish() {
  CacheSimResult out = zero_rows(row_index_.size());
  finish_into(out);
  return out;
}

void StreamingCacheSim::finish_into(CacheSimResult& out) {
  for (const Row& row : rows_) out.per_resolver[row.result.resolver] = row.result;
  if (bound_) {
    evictions_->inc(ages_.count());
    eviction_ages_->merge_from(ages_);
    ages_.reset();
  }
}

// ---------------------------------------------------------------------------
// Replay dispatch (see docs/parallel_engine.md).
//
// Rows of different resolvers never interact — no shared key, no shared
// bound — so whole resolvers partition across shards (shard_of_id), each
// shard replaying its own stream instance restricted to the resolvers it
// owns. On a time-ordered stream a shard's sweep retires exactly the
// entries of its resolvers that the serial sweep would have retired before
// each of their queries, so every row equals the serial fold's row at any
// shard count. A stream that is not time-ordered replays on one shard, and
// so does a single-resolver trace (All-Names). A shard reserves rows for
// exactly the resolvers it owns and, after its replay, writes them into
// the one merged result; shards own disjoint resolvers, so no two write
// the same row and there is nothing left to merge.

CacheSimResult simulate_cache_stream(const TraceStreamFactory& factory,
                                     const CacheSimOptions& options) {
  const TraceStreamInfo info = factory()->info();
  // A shard beyond the resolver count would own no resolver.
  const std::size_t shards =
      info.time_ordered
          ? std::clamp<std::size_t>(options.shards, 1, std::max(info.resolvers, 1u))
          : 1;

  CacheSimResult out = zero_rows(info.resolvers);
  netsim::RunnerConfig runner;
  runner.threads = options.threads;
  runner.runtime_metrics = options.runtime_metrics;
  netsim::run_sharded(
      shards, runner, obs::MetricsRegistry::global(),
      [&](std::size_t s, obs::MetricsRegistry& metrics) {
        std::unique_ptr<TraceStream> stream = factory();
        ECSDNS_CHECK(shards == 1 || stream->restrict_to_members(s, shards));
        StreamingCacheSim sim(info.resolvers, options, metrics);
        sim.reserve_rows(owned_id_count(info.resolvers, s, shards));
        TraceQuery q;
        while (stream->next(q)) sim.observe(q);
        sim.finish_into(out);
        metrics.counter("cache_sim.queries").inc(sim.queries());
      });

  obs::MetricsRegistry& global = obs::MetricsRegistry::global();
  global.counter("cache_sim.hits").inc(out.total_hits());
  global.counter("cache_sim.misses").inc(out.total_misses());
  std::uint64_t peak = 0;
  for (const auto& r : out.per_resolver) {
    peak = std::max<std::uint64_t>(peak, r.max_cache_size);
  }
  global.gauge("cache_sim.peak_entries").set(static_cast<std::int64_t>(peak));
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

std::uint64_t result_digest(const CacheSimResult& result) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = 14695981039346656037ull;
  const auto fold = [&h](std::uint64_t v) { h = (h ^ v) * kPrime; };
  fold(result.per_resolver.size());
  fold(result.total_hits());
  fold(result.total_misses());
  for (const auto& row : result.per_resolver) {
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
                                   std::size_t shards, std::size_t threads) {
  CacheSimOptions with;
  with.with_ecs = true;
  with.ttl_override = ttl_override;
  with.shards = shards;
  with.threads = threads;
  CacheSimOptions without = with;
  without.with_ecs = false;

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
