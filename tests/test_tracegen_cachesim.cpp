// Trace generation and the §7 trace-driven cache simulation.
#include <gtest/gtest.h>
#include <map>

#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "measurement/cache_sim.h"
#include "measurement/tracegen.h"
#include "obs/metrics.h"
#include "resolver/eviction.h"

namespace ecsdns::measurement {
namespace {

PublicResolverCdnConfig small_cdn_config() {
  PublicResolverCdnConfig config;
  config.resolvers = 8;
  config.min_clients_per_resolver = 20;
  config.max_clients_per_resolver = 200;
  config.min_qps = 5.0;
  config.max_qps = 40.0;
  config.hostnames = 100;
  config.duration = 5 * netsim::kMinute;
  return config;
}

TEST(TraceGen, DeterministicForSeed) {
  const Trace a = generate_public_resolver_cdn_trace(small_cdn_config());
  const Trace b = generate_public_resolver_cdn_trace(small_cdn_config());
  ASSERT_EQ(a.queries.size(), b.queries.size());
  for (std::size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].time, b.queries[i].time);
    EXPECT_EQ(a.queries[i].client, b.queries[i].client);
    EXPECT_EQ(a.queries[i].name, b.queries[i].name);
  }
  auto changed = small_cdn_config();
  changed.seed = 99;
  const Trace c = generate_public_resolver_cdn_trace(changed);
  EXPECT_NE(a.queries.size(), c.queries.size());
}

TEST(TraceGen, QueriesSortedAndInRange) {
  const Trace t = generate_public_resolver_cdn_trace(small_cdn_config());
  ASSERT_FALSE(t.queries.empty());
  for (std::size_t i = 1; i < t.queries.size(); ++i) {
    EXPECT_LE(t.queries[i - 1].time, t.queries[i].time);
  }
  for (const auto& q : t.queries) {
    EXPECT_LT(q.resolver, t.resolvers);
    EXPECT_LT(q.name, t.hostnames);
    EXPECT_GT(q.scope, 0);
    EXPECT_EQ(q.ttl_s, 20u);
  }
}

TEST(TraceGen, AllNamesAssignsScopePerSld) {
  AllNamesConfig config;
  config.clients = 200;
  config.client_subnets = 50;
  config.hostnames = 300;
  config.slds = 40;
  config.duration = 5 * netsim::kMinute;
  config.queries_per_second = 50;
  const Trace t = generate_all_names_trace(config);
  ASSERT_FALSE(t.queries.empty());
  // Scope and TTL must be consistent per (hostname, family) — zone
  // properties, with separate v4/v6 mapping granularities.
  std::map<std::pair<std::uint32_t, bool>, std::pair<int, std::uint32_t>> per_name;
  bool saw_v6 = false;
  for (const auto& q : t.queries) {
    if (q.client.is_v6()) {
      saw_v6 = true;
      EXPECT_GE(q.scope, 48);
    }
    const auto [it, inserted] = per_name.try_emplace(
        std::make_pair(q.name, q.client.is_v4()), q.scope, q.ttl_s);
    if (!inserted) {
      EXPECT_EQ(it->second.first, q.scope);
      EXPECT_EQ(it->second.second, q.ttl_s);
    }
  }
  EXPECT_TRUE(saw_v6);
}

TEST(TraceGen, SampleClientsFilters) {
  const Trace t = generate_public_resolver_cdn_trace(small_cdn_config());
  const Trace half = sample_clients(t, 0.5, 7);
  EXPECT_NEAR(static_cast<double>(half.clients.size()),
              0.5 * static_cast<double>(t.clients.size()), 1.0);
  EXPECT_LT(half.queries.size(), t.queries.size());
  EXPECT_GT(half.queries.size(), 0u);
  // Every surviving query's client is in the kept set.
  std::set<dnscore::IpAddress> kept(half.clients.begin(), half.clients.end());
  for (const auto& q : half.queries) {
    EXPECT_TRUE(kept.count(q.client) == 1);
  }
}

TEST(CacheSim, WithoutEcsOneEntryPerName) {
  Trace t;
  t.resolvers = 1;
  t.hostnames = 1;
  const auto client1 = dnscore::IpAddress::parse("100.0.1.5");
  const auto client2 = dnscore::IpAddress::parse("100.0.2.5");
  t.clients = {client1, client2};
  // Two clients, same name, within TTL.
  t.queries.push_back({0, 0, client1, 0, 24, 20});
  t.queries.push_back({1 * netsim::kSecond, 0, client2, 0, 24, 20});

  const auto without = simulate_cache(t, CacheSimOptions{false, std::nullopt, std::nullopt});
  EXPECT_EQ(without.per_resolver[0].max_cache_size, 1u);
  EXPECT_EQ(without.per_resolver[0].hits, 1u);

  const auto with = simulate_cache(t, CacheSimOptions{true, std::nullopt, std::nullopt});
  EXPECT_EQ(with.per_resolver[0].max_cache_size, 2u);
  EXPECT_EQ(with.per_resolver[0].hits, 0u);
}

TEST(CacheSim, ScopeZeroIsGlobalEvenWithEcs) {
  Trace t;
  t.resolvers = 1;
  t.hostnames = 1;
  const auto client1 = dnscore::IpAddress::parse("100.0.1.5");
  const auto client2 = dnscore::IpAddress::parse("200.0.2.5");
  t.clients = {client1, client2};
  t.queries.push_back({0, 0, client1, 0, 0, 20});
  t.queries.push_back({1 * netsim::kSecond, 0, client2, 0, 0, 20});
  const auto with = simulate_cache(t, CacheSimOptions{true, std::nullopt, std::nullopt});
  EXPECT_EQ(with.per_resolver[0].hits, 1u);
  EXPECT_EQ(with.per_resolver[0].max_cache_size, 1u);
}

TEST(CacheSim, TtlExpiryCausesRefetch) {
  Trace t;
  t.resolvers = 1;
  t.hostnames = 1;
  const auto client = dnscore::IpAddress::parse("100.0.1.5");
  t.clients = {client};
  t.queries.push_back({0, 0, client, 0, 24, 20});
  t.queries.push_back({30 * netsim::kSecond, 0, client, 0, 24, 20});
  const auto r = simulate_cache(t, CacheSimOptions{true, std::nullopt, std::nullopt});
  EXPECT_EQ(r.per_resolver[0].hits, 0u);
  EXPECT_EQ(r.per_resolver[0].misses, 2u);
  EXPECT_EQ(r.per_resolver[0].max_cache_size, 1u);  // never two live at once
  // TTL override of 60 turns the second query into a hit.
  const auto r60 = simulate_cache(t, CacheSimOptions{true, 60, std::nullopt});
  EXPECT_EQ(r60.per_resolver[0].hits, 1u);
}

TEST(CacheSim, SameSubnetSharesEntry) {
  Trace t;
  t.resolvers = 1;
  t.hostnames = 1;
  t.clients = {dnscore::IpAddress::parse("100.0.1.5"),
               dnscore::IpAddress::parse("100.0.1.99")};
  t.queries.push_back({0, 0, t.clients[0], 0, 24, 20});
  t.queries.push_back({1 * netsim::kSecond, 0, t.clients[1], 0, 24, 20});
  const auto r = simulate_cache(t, CacheSimOptions{true, std::nullopt, std::nullopt});
  EXPECT_EQ(r.per_resolver[0].hits, 1u);
}

TEST(CacheSim, PerResolverIsolation) {
  Trace t;
  t.resolvers = 2;
  t.hostnames = 1;
  const auto client = dnscore::IpAddress::parse("100.0.1.5");
  t.clients = {client};
  t.queries.push_back({0, 0, client, 0, 24, 20});
  t.queries.push_back({1 * netsim::kSecond, 1, client, 0, 24, 20});
  const auto r = simulate_cache(t, CacheSimOptions{true, std::nullopt, std::nullopt});
  // No cross-resolver sharing: both miss.
  EXPECT_EQ(r.total_hits(), 0u);
  EXPECT_EQ(r.per_resolver[0].max_cache_size, 1u);
  EXPECT_EQ(r.per_resolver[1].max_cache_size, 1u);
}

TEST(CacheSim, BlowupFactorsOnRealTrace) {
  const Trace t = generate_public_resolver_cdn_trace(small_cdn_config());
  const auto factors = blowup_factors(t, std::nullopt);
  ASSERT_FALSE(factors.empty());
  for (const double f : factors) {
    EXPECT_GE(f, 1.0);  // ECS can only increase peak cache size
  }
  // With many clients per resolver and /24 scopes, blow-up must be
  // substantial for at least some resolvers.
  EXPECT_GT(*std::max_element(factors.begin(), factors.end()), 2.0);
}

TEST(CacheSim, LongerTtlIncreasesBlowup) {
  auto config = small_cdn_config();
  config.duration = 10 * netsim::kMinute;
  const Trace t = generate_public_resolver_cdn_trace(config);
  const auto f20 = blowup_factors(t, 20);
  const auto f60 = blowup_factors(t, 60);
  const double mean20 =
      std::accumulate(f20.begin(), f20.end(), 0.0) / static_cast<double>(f20.size());
  const double mean60 =
      std::accumulate(f60.begin(), f60.end(), 0.0) / static_cast<double>(f60.size());
  EXPECT_GT(mean60, mean20);  // Figure 1's TTL effect
}

TEST(CacheSim, BoundedCacheEvictsLruPrematurely) {
  Trace t;
  t.resolvers = 1;
  t.hostnames = 3;
  const auto client = dnscore::IpAddress::parse("100.0.1.5");
  t.clients = {client};
  // Three names within one TTL window; capacity 2 forces an eviction of
  // the least recently used (name 0), so its repeat misses.
  t.queries.push_back({0, 0, client, 0, 24, 60});
  t.queries.push_back({1 * netsim::kSecond, 0, client, 1, 24, 60});
  t.queries.push_back({2 * netsim::kSecond, 0, client, 2, 24, 60});
  t.queries.push_back({3 * netsim::kSecond, 0, client, 0, 24, 60});  // evicted
  t.queries.push_back({4 * netsim::kSecond, 0, client, 2, 24, 60});  // still live

  CacheSimOptions options;
  options.with_ecs = true;
  options.max_entries_per_resolver = 2;
  const auto r = simulate_cache(t, options);
  EXPECT_EQ(r.per_resolver[0].premature_evictions, 2u);  // names 0 then 1
  EXPECT_EQ(r.per_resolver[0].hits, 1u);                 // only the name-2 repeat
  EXPECT_LE(r.per_resolver[0].max_cache_size, 2u);

  // Unbounded: everything hits.
  const auto free_run = simulate_cache(t, CacheSimOptions{true, {}, {}});
  EXPECT_EQ(free_run.per_resolver[0].hits, 2u);
  EXPECT_EQ(free_run.per_resolver[0].premature_evictions, 0u);
}

TEST(CacheSim, LruRefreshOnHitProtectsHotEntries) {
  Trace t;
  t.resolvers = 1;
  t.hostnames = 3;
  const auto client = dnscore::IpAddress::parse("100.0.1.5");
  t.clients = {client};
  // Name 0 is re-touched before name 2 arrives, so the LRU victim is 1.
  t.queries.push_back({0, 0, client, 0, 24, 60});
  t.queries.push_back({1 * netsim::kSecond, 0, client, 1, 24, 60});
  t.queries.push_back({2 * netsim::kSecond, 0, client, 0, 24, 60});  // hit: refresh
  t.queries.push_back({3 * netsim::kSecond, 0, client, 2, 24, 60});  // evicts 1
  t.queries.push_back({4 * netsim::kSecond, 0, client, 0, 24, 60});  // still a hit

  CacheSimOptions options;
  options.with_ecs = true;
  options.max_entries_per_resolver = 2;
  const auto r = simulate_cache(t, options);
  EXPECT_EQ(r.per_resolver[0].hits, 2u);  // both name-0 repeats survive
  EXPECT_EQ(r.per_resolver[0].premature_evictions, 1u);
}

TEST(CacheSim, EcsReducesHitRate) {
  AllNamesConfig config;
  config.clients = 400;
  config.client_subnets = 100;
  config.hostnames = 200;
  config.slds = 30;
  config.duration = 10 * netsim::kMinute;
  config.queries_per_second = 60;
  const Trace t = generate_all_names_trace(config);
  const auto with = simulate_cache(t, CacheSimOptions{true, std::nullopt, std::nullopt});
  const auto without = simulate_cache(t, CacheSimOptions{false, std::nullopt, std::nullopt});
  EXPECT_LT(with.overall_hit_rate(), without.overall_hit_rate());
}

// A fold keeps rows only for the resolvers it observes, yet its result has
// one row per resolver id: the unobserved ones all-zero with their id set,
// whether it comes from one standalone fold or from shards that each write
// their own rows into the merged result.
TEST(CacheSim, UnobservedResolversKeepZeroRows) {
  constexpr std::uint32_t kResolvers = 100000;
  Trace t;
  t.resolvers = kResolvers;
  t.hostnames = 1;
  const auto client = dnscore::IpAddress::parse("100.0.1.5");
  t.clients = {client};
  t.queries.push_back({0, 7, client, 0, 24, 20});
  t.queries.push_back({1 * netsim::kSecond, 5, client, 0, 24, 20});
  t.queries.push_back({2 * netsim::kSecond, 99999, client, 0, 24, 20});

  StreamingCacheSim sim(kResolvers, CacheSimOptions{});
  for (const TraceQuery& q : t.queries) sim.observe(q);
  const CacheSimResult serial = sim.finish();
  ASSERT_EQ(serial.per_resolver.size(), kResolvers);
  for (std::uint32_t r = 0; r < kResolvers; ++r) {
    const ResolverCacheResult& row = serial.per_resolver[r];
    ASSERT_EQ(row.resolver, r);
    const bool observed = r == 5 || r == 7 || r == 99999;
    ASSERT_EQ(row.misses, observed ? 1u : 0u) << r;
    ASSERT_EQ(row.max_cache_size, observed ? 1u : 0u) << r;
    ASSERT_EQ(row.hits, 0u) << r;
    ASSERT_EQ(row.premature_evictions, 0u) << r;
  }

  CacheSimOptions sharded;
  sharded.shards = 4;
  EXPECT_EQ(result_digest(simulate_cache(t, sharded)), result_digest(serial));
}

// The eviction metrics a bounded replay exports, pinned for one fixed
// trace under every policy, at one shard and at three: the eviction count
// and the whole entry-age histogram (count, sum, min, max and every
// non-empty bucket). Where the fold keeps its tallies before they reach
// the registry must not change any of these figures.
TEST(CacheSim, BoundedEvictionMetricsArePinned) {
  struct Exported {
    std::uint64_t evictions = 0;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::vector<std::pair<int, std::uint64_t>> buckets;  // non-empty only

    bool operator==(const Exported&) const = default;
  };
  const auto to_text = [](const Exported& e) {
    std::string out = "{" + std::to_string(e.evictions) + ", " +
                      std::to_string(e.count) + ", " + std::to_string(e.sum) +
                      ", " + std::to_string(e.min) + ", " + std::to_string(e.max) +
                      ", {";
    for (const auto& [b, n] : e.buckets) {
      out += "{" + std::to_string(b) + ", " + std::to_string(n) + "}, ";
    }
    return out + "}}";
  };
  const Trace trace = generate_public_resolver_cdn_trace(small_cdn_config());
  const auto replay = [&trace](resolver::EvictionPolicy policy, std::size_t shards) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    registry.reset();
    CacheSimOptions options;
    options.with_ecs = true;
    options.max_entries_per_resolver = 12;
    options.policy = policy;
    options.shards = shards;
    (void)simulate_cache(trace, options);
    Exported e;
    e.evictions = registry.counter("cache_sim.capacity_evictions").value();
    const obs::Histogram& ages = registry.histogram("cache_sim.eviction_age_s");
    e.count = ages.count();
    e.sum = ages.sum();
    e.min = ages.min();
    e.max = ages.max();
    for (int b = 0; b < obs::Histogram::kBuckets; ++b) {
      if (ages.bucket(b) != 0) e.buckets.emplace_back(b, ages.bucket(b));
    }
    return e;
  };
  const std::vector<std::pair<resolver::EvictionPolicy, Exported>> pinned = {
      {resolver::EvictionPolicy::kLru,
       {29479, 29479, 16330, 0, 9, {{0, 17192}, {1, 9247}, {2, 2839}, {3, 195}, {4, 6}}}},
      {resolver::EvictionPolicy::kLfu,
       {27086, 27086, 3854, 0, 16,
        {{0, 23640}, {1, 3104}, {2, 337}, {3, 1}, {4, 3}, {5, 1}}}},
      {resolver::EvictionPolicy::kSieve,
       {27129, 27129, 4162, 0, 19,
        {{0, 23550}, {1, 3206}, {2, 345}, {3, 11}, {4, 14}, {5, 3}}}},
      {resolver::EvictionPolicy::kScopeAware,
       {27040, 27040, 4301, 0, 19,
        {{0, 24243}, {1, 2294}, {2, 371}, {3, 60}, {4, 58}, {5, 14}}}},
  };
  for (const auto& [policy, want] : pinned) {
    for (const std::size_t shards : {1u, 3u}) {
      const Exported got = replay(policy, shards);
      EXPECT_EQ(got, want) << resolver::to_string(policy) << " at " << shards
                           << " shard(s): " << to_text(got);
    }
  }
}

}  // namespace
}  // namespace ecsdns::measurement
