// Eviction-policy conformance: per-policy victim order, capacity
// enforcement in the bounded EcsCache (entry and byte bounds, scope-aware
// collapse), the cache accounting identity, and randomized differential
// tests of every policy — alone and inside the bounded trace replay —
// against a naive reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "measurement/cache_sim.h"
#include "measurement/tracegen.h"
#include "netsim/rng.h"
#include "resolver/cache.h"
#include "resolver/eviction.h"

namespace ecsdns::resolver {
namespace {

using dnscore::IpAddress;
using dnscore::Name;
using dnscore::Prefix;
using netsim::kSecond;

TEST(EvictionPolicyNames, ToStringGivesMetricKeyNames) {
  // Metric keys (cache.capacity_evictions.<policy>) and perfbench's
  // per-policy metrics are spelled with these names.
  EXPECT_EQ(to_string(EvictionPolicy::kLru), "lru");
  EXPECT_EQ(to_string(EvictionPolicy::kLfu), "lfu");
  EXPECT_EQ(to_string(EvictionPolicy::kSieve), "sieve");
  EXPECT_EQ(to_string(EvictionPolicy::kScopeAware), "scope");
}

TEST(LruStrategy, EvictsLeastRecentlyUsed) {
  auto s = make_eviction_strategy(EvictionPolicy::kLru);
  s->on_insert(1, {});
  s->on_insert(2, {});
  s->on_insert(3, {});
  s->on_hit(1);  // 1 becomes most recent; 2 is now the coldest
  EXPECT_EQ(s->pick_victim(), 2u);
  s->on_erase(2);
  EXPECT_EQ(s->pick_victim(), 3u);
  s->on_erase(3);
  EXPECT_EQ(s->pick_victim(), 1u);
  EXPECT_EQ(s->tracked(), 1u);
}

TEST(LfuStrategy, EvictsLeastFrequentWithLruTieBreak) {
  auto s = make_eviction_strategy(EvictionPolicy::kLfu);
  s->on_insert(1, {});
  s->on_insert(2, {});
  s->on_insert(3, {});
  s->on_hit(1);
  s->on_hit(1);
  s->on_hit(2);
  EXPECT_EQ(s->pick_victim(), 3u);  // frequency 1 loses to 2 and 3
  s->on_erase(3);
  EXPECT_EQ(s->pick_victim(), 2u);  // frequency 2 loses to frequency 3
  // Equal frequencies: the least recently touched goes first.
  s->on_insert(4, {});
  s->on_insert(5, {});
  s->on_erase(2);
  s->on_erase(1);
  EXPECT_EQ(s->pick_victim(), 4u);
  s->on_hit(4);
  EXPECT_EQ(s->pick_victim(), 5u);
}

TEST(SieveStrategy, GivesVisitedEntriesASecondChance) {
  auto s = make_eviction_strategy(EvictionPolicy::kSieve);
  s->on_insert(1, {});
  s->on_insert(2, {});
  s->on_insert(3, {});
  s->on_hit(1);
  // Hand sweeps from the oldest: 1 is visited (bit cleared, spared), 2 is
  // the first unvisited entry.
  EXPECT_EQ(s->pick_victim(), 2u);
  s->on_erase(2);
  EXPECT_EQ(s->pick_victim(), 3u);
  s->on_erase(3);
  // Wraps around; 1's second chance was already spent.
  EXPECT_EQ(s->pick_victim(), 1u);
}

TEST(SieveStrategy, HandSurvivesArbitraryErase) {
  auto s = make_eviction_strategy(EvictionPolicy::kSieve);
  s->on_insert(1, {});
  s->on_insert(2, {});
  s->on_insert(3, {});
  EXPECT_EQ(s->pick_victim(), 1u);  // hand now rests on 1
  // 1 leaves for another reason (TTL expiry); the hand must move on to the
  // next survivor instead of dangling.
  s->on_erase(1);
  EXPECT_EQ(s->pick_victim(), 2u);
  s->on_erase(2);
  EXPECT_EQ(s->pick_victim(), 3u);
}

TEST(ScopeAwareStrategy, EvictsMostSpecificFirstGlobalLast) {
  auto s = make_eviction_strategy(EvictionPolicy::kScopeAware);
  s->on_insert(1, EntryTraits{0});   // global
  s->on_insert(2, EntryTraits{16});
  s->on_insert(3, EntryTraits{24});
  EXPECT_EQ(s->pick_victim(), 3u);  // most specific collapses first
  s->on_erase(3);
  EXPECT_EQ(s->pick_victim(), 2u);
  s->on_erase(2);
  EXPECT_EQ(s->pick_victim(), 1u);  // the global entry survives longest
  // Within one prefix length the tie breaks LRU.
  s->on_insert(4, EntryTraits{24});
  s->on_insert(5, EntryTraits{24});
  s->on_hit(4);
  EXPECT_EQ(s->pick_victim(), 5u);
}

// ---------------------------------------------------------------------------
// Randomized differential test: every strategy against a naive reference
// that stores entries in a flat vector and scans for the victim.

struct RefEntry {
  EntryId id;
  int scope;
  std::uint64_t stamp;
  std::uint64_t freq;
  bool visited;
};

class ReferenceStrategy {
 public:
  explicit ReferenceStrategy(EvictionPolicy policy) : policy_(policy) {}

  void insert(EntryId id, int scope) {
    // A SIEVE hand past the newest entry (its entry was the newest and
    // left) stays past the end: the next sweep restarts at the oldest, not
    // at whatever was inserted since.
    const bool hand_past_end = hand_ >= order_.size();
    order_.push_back(RefEntry{id, scope, clock_++, 1, false});
    if (hand_past_end) hand_ = order_.size();
  }

  void hit(EntryId id) {
    auto& e = *find(id);
    e.stamp = clock_++;
    ++e.freq;
    e.visited = true;
  }

  void erase(EntryId id) {
    const auto idx = static_cast<std::size_t>(find(id) - order_.begin());
    // Erasing at or before the SIEVE hand shifts the "next" element into
    // the erased position, which is exactly where the hand should resume.
    if (idx < hand_) --hand_;
    order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(idx));
  }

  EntryId victim() {
    EXPECT_FALSE(order_.empty());
    if (policy_ == EvictionPolicy::kSieve) {
      for (;;) {
        if (hand_ >= order_.size()) hand_ = 0;
        if (!order_[hand_].visited) return order_[hand_].id;
        order_[hand_].visited = false;
        ++hand_;
      }
    }
    const RefEntry* best = &order_.front();
    for (const auto& e : order_) {
      if (rank(e) < rank(*best)) best = &e;
    }
    return best->id;
  }

  std::size_t size() const { return order_.size(); }
  EntryId id_at(std::size_t i) const { return order_[i].id; }

 private:
  std::pair<std::int64_t, std::uint64_t> rank(const RefEntry& e) const {
    switch (policy_) {
      case EvictionPolicy::kLru:
        return {0, e.stamp};
      case EvictionPolicy::kLfu:
        return {static_cast<std::int64_t>(e.freq), e.stamp};
      case EvictionPolicy::kScopeAware:
        return {-e.scope, e.stamp};
      case EvictionPolicy::kSieve:
        break;
    }
    ADD_FAILURE() << "rank() on SIEVE";
    return {0, 0};
  }

  std::vector<RefEntry>::iterator find(EntryId id) {
    const auto it = std::find_if(order_.begin(), order_.end(),
                                 [id](const RefEntry& e) { return e.id == id; });
    EXPECT_NE(it, order_.end());
    return it;
  }

  EvictionPolicy policy_;
  std::vector<RefEntry> order_;
  std::size_t hand_ = 0;
  std::uint64_t clock_ = 0;
};

class StrategyDifferential
    : public ::testing::TestWithParam<std::tuple<EvictionPolicy, std::uint64_t>> {};

TEST_P(StrategyDifferential, AgreesWithReferenceModel) {
  const auto [policy, seed] = GetParam();
  netsim::Rng rng(seed);
  auto strategy = make_eviction_strategy(policy);
  ReferenceStrategy reference(policy);
  EntryId next_id = 1;

  for (int op = 0; op < 3000; ++op) {
    const double roll = rng.uniform_double();
    if (reference.size() == 0 || roll < 0.45) {
      const int scope = static_cast<int>(rng.uniform(33));
      const EntryId id = next_id++;
      strategy->on_insert(id, EntryTraits{scope});
      reference.insert(id, scope);
    } else if (roll < 0.75) {
      const EntryId id = reference.id_at(rng.uniform(reference.size()));
      strategy->on_hit(id);
      reference.hit(id);
    } else if (roll < 0.90) {
      // An entry leaves for a non-capacity reason (expiry/replacement).
      const EntryId id = reference.id_at(rng.uniform(reference.size()));
      strategy->on_erase(id);
      reference.erase(id);
    } else {
      // Capacity eviction: both sides must name the same victim. (SIEVE's
      // pick mutates visited bits; issuing the pick to both models keeps
      // them in lockstep.)
      const EntryId got = strategy->pick_victim();
      const EntryId want = reference.victim();
      ASSERT_EQ(got, want) << to_string(policy) << " op " << op;
      strategy->on_erase(got);
      reference.erase(want);
    }
    ASSERT_EQ(strategy->tracked(), reference.size()) << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, StrategyDifferential,
    ::testing::Combine(::testing::ValuesIn(kAllEvictionPolicies),
                       ::testing::Values(1u, 7u, 42u)),
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Replay differential: the slab/heap/slot-indexed replay against a naive
// one that keeps each resolver's live entries in a vector, expires them by
// scanning, and (when bounded) asks ReferenceStrategy for every victim.
// Before each query the naive replay expires the entries of every resolver
// queried so far, as the replay's one fleet-wide expiry sweep does; on a
// time-ordered trace that equals expiring only the queried resolver's, and
// on an out-of-order one it is the replay's defined behaviour.

measurement::CacheSimResult naive_replay(const measurement::Trace& trace,
                                         const measurement::CacheSimOptions& options) {
  struct Live {
    measurement::detail::CacheKey key;
    netsim::SimTime expiry;
    EntryId id;
  };
  struct PerResolver {
    explicit PerResolver(EvictionPolicy policy) : order(policy) {}
    ReferenceStrategy order;
    std::vector<Live> live;
  };
  std::vector<PerResolver> caches(trace.resolvers, PerResolver(options.policy));
  std::vector<bool> queried(trace.resolvers, false);
  std::vector<std::uint32_t> fleet;  // resolvers queried so far
  measurement::CacheSimResult out;
  out.per_resolver.resize(trace.resolvers);
  for (std::uint32_t r = 0; r < trace.resolvers; ++r) out.per_resolver[r].resolver = r;
  EntryId next_id = 1;
  for (const auto& q : trace.queries) {
    if (!queried[q.resolver]) {
      queried[q.resolver] = true;
      fleet.push_back(q.resolver);
    }
    for (const std::uint32_t r : fleet) {
      auto& expiring = caches[r];
      std::erase_if(expiring.live, [&](const Live& e) {
        if (e.expiry > q.time) return false;
        expiring.order.erase(e.id);
        return true;
      });
    }
    auto& cache = caches[q.resolver];
    auto& row = out.per_resolver[q.resolver];
    const auto key = measurement::detail::cache_key_of(q, options.with_ecs);
    const auto hit = std::find_if(cache.live.begin(), cache.live.end(),
                                  [&](const Live& e) { return e.key == key; });
    if (hit != cache.live.end()) {
      ++row.hits;
      cache.order.hit(hit->id);
      continue;
    }
    ++row.misses;
    const std::uint32_t ttl_s = options.ttl_override.value_or(q.ttl_s);
    if (ttl_s == 0) continue;
    while (options.max_entries_per_resolver &&
           cache.live.size() >= *options.max_entries_per_resolver) {
      const EntryId victim = cache.order.victim();
      cache.order.erase(victim);
      std::erase_if(cache.live, [&](const Live& e) { return e.id == victim; });
      ++row.premature_evictions;
    }
    const EntryId id = next_id++;
    cache.order.insert(id, key.block.length());
    const netsim::SimTime expiry = q.time + static_cast<netsim::SimTime>(ttl_s) * kSecond;
    cache.live.push_back(Live{key, expiry, id});
    row.max_cache_size = std::max(row.max_cache_size, cache.live.size());
  }
  return out;
}

// A dense six-resolver trace in which every seventh answer has TTL 0 (used
// once, never cached), mixed with the generator's positive TTLs.
measurement::Trace mixed_ttl_trace() {
  measurement::PublicResolverCdnConfig config;
  config.resolvers = 6;
  config.min_qps = 20;
  config.max_qps = 60;
  config.duration = 90 * kSecond;
  config.seed = 11;
  measurement::Trace trace = measurement::generate_public_resolver_cdn_trace(config);
  for (std::size_t i = 0; i < trace.queries.size(); i += 7) trace.queries[i].ttl_s = 0;
  return trace;
}

// An irregular, sparse trace: five resolvers named by ids spread over a
// 100,000-wide fleet; TTLs of 1, 5, 20 and 60 s; eight queries per
// half-second timestamp, so several entries share one expiry and expiries
// land exactly on query times; and two 25 s stretches out of order.
measurement::Trace sparse_irregular_trace() {
  measurement::Trace trace;
  trace.resolvers = 100000;
  trace.hostnames = 6;
  const std::uint32_t resolvers[] = {0, 3, 4242, 65537, 99999};
  const std::uint32_t ttls[] = {1, 5, 20, 60};
  const int scopes[] = {0, 16, 20, 24, 24, 32};
  for (std::uint8_t c = 0; c < 24; ++c) {
    trace.clients.push_back(IpAddress::v4(100, c % 4, c, 7));
  }
  netsim::Rng rng(22);
  for (int i = 0; i < 6000; ++i) {
    measurement::TraceQuery q;
    q.time = (i / 8) * (kSecond / 2);
    q.resolver = resolvers[rng.uniform(std::size(resolvers))];
    q.client = rng.pick(trace.clients);
    q.name = static_cast<std::uint32_t>(rng.uniform(trace.hostnames));
    q.scope = scopes[q.name];
    q.ttl_s = ttls[rng.uniform(std::size(ttls))];
    trace.queries.push_back(q);
  }
  // In one 25 s stretch resolver 0's queries arrive after everyone else's:
  // by then the fleet-wide sweep has passed the stretch's end, so resolver
  // 0's entries expiring inside it are already gone. A later stretch runs
  // backwards, inserting entries that expire before queries already seen.
  const auto late = trace.queries.begin() + 2000;
  std::stable_partition(late, late + 400,
                        [](const measurement::TraceQuery& q) { return q.resolver != 0; });
  std::reverse(trace.queries.begin() + 4000, trace.queries.begin() + 4400);
  return trace;
}

// The naive-replay differential's traces: the dense mixed-TTL one, and the
// sparse irregular one both as generated (not time-ordered, so it replays
// on one shard whatever the shard count) and sorted by time (sharded).
std::vector<std::pair<std::string, measurement::Trace>> differential_traces() {
  measurement::Trace sorted = sparse_irregular_trace();
  std::stable_sort(sorted.queries.begin(), sorted.queries.end(),
                   [](const auto& a, const auto& b) { return a.time < b.time; });
  std::vector<std::pair<std::string, measurement::Trace>> traces;
  traces.emplace_back("mixed ttl", mixed_ttl_trace());
  traces.emplace_back("sparse, out of order", sparse_irregular_trace());
  traces.emplace_back("sparse, sorted", std::move(sorted));
  return traces;
}

void expect_same_rows(const measurement::CacheSimResult& got,
                      const measurement::CacheSimResult& want, const std::string& label) {
  ASSERT_EQ(got.per_resolver.size(), want.per_resolver.size()) << label;
  for (std::size_t r = 0; r < want.per_resolver.size(); ++r) {
    const auto& g = got.per_resolver[r];
    const auto& w = want.per_resolver[r];
    EXPECT_EQ(g.resolver, w.resolver) << label << ", resolver " << r;
    EXPECT_EQ(g.hits, w.hits) << label << ", resolver " << r;
    EXPECT_EQ(g.misses, w.misses) << label << ", resolver " << r;
    EXPECT_EQ(g.max_cache_size, w.max_cache_size) << label << ", resolver " << r;
    EXPECT_EQ(g.premature_evictions, w.premature_evictions) << label << ", resolver " << r;
  }
}

class BoundedReplayDifferential
    : public ::testing::TestWithParam<std::tuple<EvictionPolicy, std::size_t>> {};

TEST_P(BoundedReplayDifferential, MatchesNaiveReplay) {
  const auto [policy, bound] = GetParam();
  for (const auto& [label, trace] : differential_traces()) {
    measurement::CacheSimOptions options;
    options.with_ecs = true;
    options.max_entries_per_resolver = bound;
    options.policy = policy;
    const measurement::CacheSimResult want = naive_replay(trace, options);
    std::uint64_t evictions = 0;
    for (const std::size_t shards : {1u, 3u}) {
      options.shards = shards;
      const measurement::CacheSimResult got = measurement::simulate_cache(trace, options);
      expect_same_rows(got, want, label + ", " + std::to_string(shards) + " shard(s)");
      for (const auto& row : got.per_resolver) evictions += row.premature_evictions;
    }
    EXPECT_GT(evictions, 0u) << label << ": the bound never bit; the test is vacuous";
  }
}

TEST_P(BoundedReplayDifferential, UnboundedMatchesNaiveReplay) {
  for (const auto& [label, trace] : differential_traces()) {
    for (const bool with_ecs : {true, false}) {
      measurement::CacheSimOptions options;
      options.with_ecs = with_ecs;
      const measurement::CacheSimResult want = naive_replay(trace, options);
      EXPECT_GT(want.total_hits(), 0u) << label;
      for (const std::size_t shards : {1u, 3u}) {
        options.shards = shards;
        expect_same_rows(measurement::simulate_cache(trace, options), want,
                         label + ", ecs=" + std::to_string(with_ecs) + ", " +
                             std::to_string(shards) + " shard(s)");
      }
    }
  }
}

TEST_P(BoundedReplayDifferential, UnboundedEqualsBoundedThatNeverBinds) {
  // A bound of at least the query count can never bind, so the bounded
  // fold must reproduce the unbounded rows exactly — TTL-0 answers
  // included, which neither mode caches or counts toward the peak.
  const auto [policy, bound] = GetParam();
  const measurement::Trace trace = mixed_ttl_trace();
  for (const bool with_ecs : {true, false}) {
    measurement::CacheSimOptions unbounded;
    unbounded.with_ecs = with_ecs;
    const measurement::CacheSimResult want = measurement::simulate_cache(trace, unbounded);
    measurement::CacheSimOptions bounded = unbounded;
    bounded.max_entries_per_resolver = trace.queries.size() * bound;
    bounded.policy = policy;
    for (const std::size_t shards : {1u, 3u}) {
      bounded.shards = shards;
      expect_same_rows(measurement::simulate_cache(trace, bounded), want,
                       "ecs=" + std::to_string(with_ecs) + ", " +
                           std::to_string(shards) + " shard(s)");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, BoundedReplayDifferential,
    ::testing::Combine(::testing::ValuesIn(kAllEvictionPolicies),
                       ::testing::Values(std::size_t{3}, std::size_t{40})),
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_bound" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Bounded EcsCache conformance

const Name kQname = Name::from_string("www.example.com");

std::vector<dnscore::ResourceRecord> answer(const char* ip) {
  return {dnscore::ResourceRecord::make_a(kQname, 20, IpAddress::parse(ip))};
}

Prefix block24(std::uint8_t b, std::uint8_t c) {
  return Prefix{IpAddress::v4(10, b, c, 0), 24};
}

class BoundedCacheSweep : public ::testing::TestWithParam<EvictionPolicy> {};

TEST_P(BoundedCacheSweep, CapacityIsNeverExceeded) {
  CacheConfig config;
  config.capacity_entries = 4;
  config.policy = GetParam();
  EcsCache cache(config);
  for (int i = 0; i < 32; ++i) {
    cache.insert(kQname, RRType::A,
                 block24(static_cast<std::uint8_t>(i / 8),
                         static_cast<std::uint8_t>(i % 8)),
                 24, answer("9.9.9.1"), i * kSecond, 600 * kSecond);
    ASSERT_LE(cache.size(), 4u) << "insert " << i;
    ASSERT_LE(cache.stats().max_entries, 4u) << "insert " << i;
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().insertions, 32u);
  EXPECT_EQ(cache.stats().capacity_evictions, 28u);
  // The accounting identity holds: every insertion is live or counted out.
  EXPECT_EQ(cache.stats().insertions,
            cache.stats().accounted_insertions(cache.size()));
}

TEST_P(BoundedCacheSweep, AccountingIdentityHoldsUnderRandomizedOps) {
  CacheConfig config;
  config.capacity_entries = 6;
  config.policy = GetParam();
  EcsCache cache(config);
  netsim::Rng rng(static_cast<std::uint64_t>(config.policy) + 100);
  const std::vector<Name> names = {Name::from_string("a.example.com"),
                                   Name::from_string("b.example.com")};
  netsim::SimTime now = 0;
  for (int op = 0; op < 2000; ++op) {
    now += static_cast<netsim::SimTime>(rng.uniform(2 * kSecond));
    const Name& qname = rng.pick(names);
    const auto addr = IpAddress::v4(10, 0, static_cast<std::uint8_t>(rng.uniform(4)),
                                    static_cast<std::uint8_t>(rng.uniform(8) * 32));
    const double roll = rng.uniform_double();
    if (roll < 0.5) {
      const int scope = rng.chance(0.2) ? 0 : 24;
      // TTL 0 now and then: those must be skipped, not churned.
      const auto ttl = static_cast<netsim::SimTime>(
          rng.uniform(20) * static_cast<std::uint64_t>(kSecond));
      cache.insert(qname, RRType::A, Prefix{addr, scope},
                   static_cast<std::uint8_t>(scope), {}, now, ttl);
    } else if (roll < 0.9) {
      (void)cache.lookup(qname, RRType::A, addr, now);
    } else if (roll < 0.97) {
      cache.purge_expired(now);
    } else {
      cache.clear();
    }
    ASSERT_LE(cache.size(), 6u) << "op " << op;
    ASSERT_EQ(cache.stats().insertions,
              cache.stats().accounted_insertions(cache.size()))
        << "op " << op;
  }
  EXPECT_GT(cache.stats().capacity_evictions, 0u);
  EXPECT_GT(cache.stats().ttl_zero_skips, 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, BoundedCacheSweep,
                         ::testing::ValuesIn(kAllEvictionPolicies),
                         [](const auto& info) { return to_string(info.param); });

TEST(BoundedEcsCache, LruEvictsTheColdestEntry) {
  CacheConfig config;
  config.capacity_entries = 2;
  config.policy = EvictionPolicy::kLru;
  EcsCache cache(config);
  cache.insert(kQname, RRType::A, Prefix::parse("10.1.1.0/24"), 24,
               answer("1.1.1.1"), 0, 600 * kSecond);
  cache.insert(kQname, RRType::A, Prefix::parse("10.1.2.0/24"), 24,
               answer("2.2.2.2"), 0, 600 * kSecond);
  // Touch the first entry; the second becomes the LRU victim.
  EXPECT_NE(cache.lookup(kQname, RRType::A, IpAddress::parse("10.1.1.5"), kSecond),
            nullptr);
  cache.insert(kQname, RRType::A, Prefix::parse("10.1.3.0/24"), 24,
               answer("3.3.3.3"), 2 * kSecond, 600 * kSecond);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().capacity_evictions, 1u);
  EXPECT_NE(cache.lookup(kQname, RRType::A, IpAddress::parse("10.1.1.5"),
                         3 * kSecond),
            nullptr);
  EXPECT_EQ(cache.lookup(kQname, RRType::A, IpAddress::parse("10.1.2.5"),
                         3 * kSecond),
            nullptr);  // evicted
  EXPECT_NE(cache.lookup(kQname, RRType::A, IpAddress::parse("10.1.3.5"),
                         3 * kSecond),
            nullptr);
}

TEST(BoundedEcsCache, ScopeAwareCollapseKeepsShortestCoveringPrefix) {
  CacheConfig config;
  config.capacity_entries = 2;
  config.policy = EvictionPolicy::kScopeAware;
  EcsCache cache(config);
  cache.insert(kQname, RRType::A, Prefix::parse("10.1.1.0/24"), 24,
               answer("1.1.1.1"), 0, 600 * kSecond);
  cache.insert(kQname, RRType::A, Prefix::parse("10.1.0.0/16"), 16,
               answer("2.2.2.2"), 0, 600 * kSecond);
  // The global answer arrives under pressure: the /24 — the most specific
  // overlapping entry — collapses, and the shortest covering entries stay.
  cache.insert(kQname, RRType::A, Prefix{}, 0, answer("3.3.3.3"), kSecond,
               600 * kSecond);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().capacity_evictions, 1u);
  const CacheEntry* hit =
      cache.lookup(kQname, RRType::A, IpAddress::parse("10.1.1.5"), 2 * kSecond);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->network.length(), 16);  // served by the covering /16, not /24
  const CacheEntry* elsewhere =
      cache.lookup(kQname, RRType::A, IpAddress::parse("99.0.0.1"), 2 * kSecond);
  ASSERT_NE(elsewhere, nullptr);
  EXPECT_EQ(elsewhere->network.length(), 0);  // the global entry
}

TEST(BoundedEcsCache, PerPolicyEvictionCounterAndAgeHistogramAdvance) {
  auto& registry = obs::MetricsRegistry::global();
  const auto evictions_before = registry.counter("cache.capacity_evictions.sieve").value();
  const auto ages_before = registry.histogram("cache.eviction_age_s").count();
  CacheConfig config;
  config.capacity_entries = 1;
  config.policy = EvictionPolicy::kSieve;
  EcsCache cache(config);
  cache.insert(kQname, RRType::A, block24(0, 1), 24, answer("1.1.1.1"), 0,
               600 * kSecond);
  // Evicted 8 seconds after insertion: one new age observation.
  cache.insert(kQname, RRType::A, block24(0, 2), 24, answer("2.2.2.2"),
               8 * kSecond, 600 * kSecond);
  EXPECT_EQ(registry.counter("cache.capacity_evictions.sieve").value(),
            evictions_before + 1);
  EXPECT_EQ(registry.histogram("cache.eviction_age_s").count(), ages_before + 1);
}

}  // namespace
}  // namespace ecsdns::resolver
