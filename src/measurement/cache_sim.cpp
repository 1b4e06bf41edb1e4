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

constexpr std::uint32_t kNoCache = 0xffffffffu;
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

}  // namespace

StreamingCacheSim::StreamingCacheSim(std::uint32_t resolvers,
                                     const CacheSimOptions& options,
                                     obs::MetricsRegistry& metrics)
    : with_ecs_(options.with_ecs),
      ttl_override_(options.ttl_override),
      bound_(options.max_entries_per_resolver),
      policy_(options.policy),
      results_(resolvers),
      live_(resolvers, 0) {
  for (std::uint32_t r = 0; r < resolvers; ++r) results_[r].resolver = r;
  if (bound_) {
    evictions_ = &metrics.counter("cache_sim.capacity_evictions");
    eviction_ages_ = &metrics.histogram("cache_sim.eviction_age_s");
    cache_index_.assign(resolvers, kNoCache);
  }
}

StreamingCacheSim::ResolverCache& StreamingCacheSim::cache_of(std::uint32_t resolver) {
  std::uint32_t& index = cache_index_[resolver];
  if (index == kNoCache) {
    index = static_cast<std::uint32_t>(caches_.size());
    caches_.emplace_back(policy_);
  }
  return caches_[index];
}

void StreamingCacheSim::retire_expired(SimTime now) {
  KeyExpiry due{};
  while (pop_due(key_expiries_, now, due)) {
    table_.erase(due.key);
    --live_[due.key.resolver];
  }
  SlotExpiry slot_due{};
  while (pop_due(slot_expiries_, now, slot_due)) {
    // An evicted entry's record is stale: its slot is free, or holds an
    // entry with another expiry (one with the same expiry is due anyway).
    ResolverCache& cache = caches_[cache_index_[slot_due.resolver]];
    if (cache.slab[slot_due.slot].expiry == slot_due.when) {
      release(cache, slot_due.slot);
    }
  }
}

void StreamingCacheSim::observe(const TraceQuery& q) {
  ++queries_;
  retire_expired(q.time);

  ResolverCacheResult& row = results_.at(q.resolver);
  const CacheKey key = cache_key_of(q, with_ecs_);
  if (const Slot* slot = table_.find(key)) {
    ++row.hits;
    if (bound_) caches_[cache_index_[q.resolver]].order.on_hit(*slot);
    return;
  }
  ++row.misses;
  const std::uint32_t ttl_s = ttl_override_.value_or(q.ttl_s);
  // TTL-0 answers are used once and never cached (RFC 1035), mirroring
  // EcsCache::insert.
  if (ttl_s == 0) return;
  const SimTime expiry = q.time + static_cast<SimTime>(ttl_s) * netsim::kSecond;
  std::uint32_t& live = live_[q.resolver];
  Slot slot = 0;
  if (bound_) {
    ResolverCache& cache = cache_of(q.resolver);
    // Make room BEFORE inserting, so the bound is never exceeded — not even
    // transiently — and the incoming entry is not a victim candidate.
    while (live >= *bound_ && live > 0) evict_one(cache, row, q.time);
    slot = cache.order.on_insert(key.block.length());
    if (slot >= cache.slab.size()) cache.slab.resize(std::size_t{slot} + 1);
    cache.slab[slot] = Entry{key, q.time, expiry};
    push_expiry(slot_expiries_, SlotExpiry{expiry, q.resolver, slot});
  } else {
    push_expiry(key_expiries_, KeyExpiry{expiry, key});
  }
  table_.insert_or_assign(key, slot);
  ++live;
  row.max_cache_size = std::max<std::size_t>(row.max_cache_size, live);
}

void StreamingCacheSim::release(ResolverCache& cache, Slot slot) {
  Entry& entry = cache.slab[slot];
  table_.erase(entry.key);
  --live_[entry.key.resolver];
  entry.expiry = kFree;
  cache.order.on_erase(slot);
}

void StreamingCacheSim::evict_one(ResolverCache& cache, ResolverCacheResult& row,
                                  SimTime now) {
  const Slot victim = cache.order.pick_victim();
  const SimTime inserted_at = cache.slab[victim].inserted_at;
  const SimTime age = now > inserted_at ? now - inserted_at : 0;
  eviction_ages_->observe(static_cast<std::uint64_t>(age / netsim::kSecond));
  release(cache, victim);
  ++row.premature_evictions;
  evictions_->inc();
}

CacheSimResult StreamingCacheSim::finish() {
  CacheSimResult out;
  out.per_resolver = std::move(results_);
  return out;
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
// so does a single-resolver trace (All-Names). A shard's rows of foreign
// resolvers stay all-zero, so the merge is a field-wise sum (max for the
// peak).

CacheSimResult simulate_cache_stream(const TraceStreamFactory& factory,
                                     const CacheSimOptions& options) {
  const TraceStreamInfo info = factory()->info();
  // A shard beyond the resolver count would own no resolver.
  const std::size_t shards =
      info.time_ordered
          ? std::clamp<std::size_t>(options.shards, 1, std::max(info.resolvers, 1u))
          : 1;

  std::vector<CacheSimResult> parts(shards);
  netsim::RunnerConfig runner;
  runner.threads = options.threads;
  runner.runtime_metrics = options.runtime_metrics;
  netsim::run_sharded(
      shards, runner, obs::MetricsRegistry::global(),
      [&](std::size_t s, obs::MetricsRegistry& metrics) {
        std::unique_ptr<TraceStream> stream = factory();
        ECSDNS_CHECK(shards == 1 || stream->restrict_to_members(s, shards));
        StreamingCacheSim sim(info.resolvers, options, metrics);
        TraceQuery q;
        while (stream->next(q)) sim.observe(q);
        parts[s] = sim.finish();
        metrics.counter("cache_sim.queries").inc(sim.queries());
        metrics.counter("cache_sim.hits").inc(parts[s].total_hits());
        metrics.counter("cache_sim.misses").inc(parts[s].total_misses());
      });

  CacheSimResult out = std::move(parts[0]);
  for (std::size_t s = 1; s < shards; ++s) {
    for (std::size_t r = 0; r < out.per_resolver.size(); ++r) {
      ResolverCacheResult& row = out.per_resolver[r];
      const ResolverCacheResult& part = parts[s].per_resolver[r];
      row.hits += part.hits;
      row.misses += part.misses;
      row.premature_evictions += part.premature_evictions;
      row.max_cache_size = std::max(row.max_cache_size, part.max_cache_size);
    }
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
