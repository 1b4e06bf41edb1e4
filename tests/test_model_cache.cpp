// Model-based property testing of the ECS cache, plus cross-validation of
// the two independent cache implementations in this repository (the
// resolver's EcsCache and the measurement trace simulator).
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "measurement/cache_sim.h"
#include "measurement/tracegen.h"
#include "netsim/rng.h"
#include "resolver/cache.h"

namespace ecsdns::resolver {
namespace {

using dnscore::IpAddress;
using dnscore::Name;
using dnscore::Prefix;
using netsim::kSecond;

// A deliberately naive reference model of RFC 7871 §7.3 caching: a flat
// list searched linearly. The real cache must agree with it on every
// randomized operation sequence.
class ReferenceCache {
 public:
  struct Entry {
    Name qname;
    dnscore::RRType qtype;
    Prefix network;
    bool global;
    netsim::SimTime expiry;
    std::uint8_t scope;  // echo scope
    std::uint32_t tag;   // which insert stored it
  };

  void insert(const Name& qname, dnscore::RRType qtype, const Prefix& network,
              std::uint8_t scope, std::uint32_t tag, netsim::SimTime now,
              netsim::SimTime ttl) {
    // Replace same-network entry if present.
    for (auto& e : entries_) {
      if (e.qname == qname && e.qtype == qtype && e.network == network) {
        e.expiry = now + ttl;
        e.scope = scope;
        e.tag = tag;
        return;
      }
    }
    entries_.push_back(
        Entry{qname, qtype, network, network.length() == 0, now + ttl, scope, tag});
  }

  // Returns the covering entry with the longest prefix, or nullptr.
  const Entry* lookup(const Name& qname, dnscore::RRType qtype,
                      const IpAddress& client, netsim::SimTime now) const {
    const Entry* best = nullptr;
    for (const auto& e : entries_) {
      if (e.qname != qname || e.qtype != qtype || e.expiry <= now) continue;
      const bool covers = e.global || e.network.contains(client);
      if (!covers) continue;
      if (best == nullptr || e.network.length() > best->network.length()) best = &e;
    }
    return best;
  }

  std::size_t live_for(const Name& qname, dnscore::RRType qtype,
                       netsim::SimTime now) const {
    std::size_t live = 0;
    for (const auto& e : entries_) {
      live += e.qname == qname && e.qtype == qtype && e.expiry > now;
    }
    return live;
  }

 private:
  std::vector<Entry> entries_;
};

// The answer stored by insert number `tag`: distinct per insert, so a hit
// served from a recycled slot's stale records cannot pass for the model's.
dnscore::ResourceRecord tagged_answer(const Name& qname, std::uint32_t tag) {
  return dnscore::ResourceRecord::make_a(qname, 20, IpAddress::v4(tag));
}

class ModelBasedCache : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelBasedCache, AgreesWithReferenceModel) {
  netsim::Rng rng(GetParam());
  EcsCache cache;
  ReferenceCache model;

  const std::vector<Name> names = {Name::from_string("a.example.com"),
                                   Name::from_string("b.example.com"),
                                   Name::from_string("c.example.net")};
  const std::vector<int> v4_scopes = {0, 8, 16, 20, 22, 24, 28, 32};
  const std::vector<int> v6_scopes = {0, 32, 48, 56, 64, 128};

  netsim::SimTime now = 0;
  for (int op = 0; op < 4000; ++op) {
    now += static_cast<netsim::SimTime>(rng.uniform(3 * kSecond));
    const Name& qname = rng.pick(names);
    // A small address universe so collisions and coverage actually happen.
    const bool v6 = rng.chance(0.3);
    const auto addr =
        v6 ? IpAddress::parse("2001:db8:" + std::to_string(rng.uniform(4)) + "::" +
                              std::to_string(rng.uniform(8) * 32))
           : IpAddress::v4(10, 0, static_cast<std::uint8_t>(rng.uniform(4)),
                           static_cast<std::uint8_t>(rng.uniform(8) * 32));
    if (rng.chance(0.05)) {
      cache.purge_expired(now);
      continue;
    }
    if (rng.chance(0.4)) {
      const int scope = rng.pick(v6 ? v6_scopes : v4_scopes);
      // Global answers are filed under the zero prefix with echo scope 0,
      // as the resolver stores them; a scoped answer echoes its scope or
      // anything longer.
      const Prefix network = scope == 0 ? Prefix{} : Prefix{addr, scope};
      const auto echo = static_cast<std::uint8_t>(
          scope == 0 ? 0
                     : scope + static_cast<int>(rng.uniform(static_cast<std::uint64_t>(
                                   addr.bit_length() - scope + 1))));
      const auto ttl = static_cast<netsim::SimTime>(
          (5 + rng.uniform(40)) * static_cast<std::uint64_t>(kSecond));
      const auto tag = static_cast<std::uint32_t>(op);
      const dnscore::ResourceRecord answer[] = {tagged_answer(qname, tag)};
      cache.insert(qname, dnscore::RRType::A, network, echo, answer, now, ttl);
      model.insert(qname, dnscore::RRType::A, network, echo, tag, now, ttl);
    } else {
      const auto* got = cache.lookup(qname, dnscore::RRType::A, addr, now);
      const auto* want = model.lookup(qname, dnscore::RRType::A, addr, now);
      ASSERT_EQ(got != nullptr, want != nullptr)
          << "op " << op << " addr " << addr.to_string() << " t " << now;
      if (got != nullptr) {
        EXPECT_EQ(got->network, want->network) << "op " << op;
        EXPECT_EQ(got->expiry, want->expiry) << "op " << op;
        EXPECT_EQ(got->scope, want->scope) << "op " << op;
        ASSERT_EQ(got->records.size(), 1u) << "op " << op;
        EXPECT_EQ(got->records[0], tagged_answer(qname, want->tag)) << "op " << op;
      }
      EXPECT_EQ(cache.entries_for(qname, dnscore::RRType::A, now),
                model.live_for(qname, dnscore::RRType::A, now))
          << "op " << op;
    }
  }
  EXPECT_EQ(cache.stats().insertions,
            cache.stats().accounted_insertions(cache.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelBasedCache,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Cross-validation: replaying a trace through the resolver's EcsCache must
// produce exactly the hit/miss sequence the measurement simulator reports.
TEST(CacheCrossValidation, EcsCacheMatchesTraceSimulator) {
  measurement::PublicResolverCdnConfig config;
  config.resolvers = 1;
  config.min_clients_per_resolver = 50;
  config.max_clients_per_resolver = 51;
  config.min_qps = 30;
  config.max_qps = 31;
  config.hostnames = 40;
  config.duration = 3 * netsim::kMinute;
  const auto trace = measurement::generate_public_resolver_cdn_trace(config);
  ASSERT_FALSE(trace.queries.empty());

  const auto sim =
      measurement::simulate_cache(trace, measurement::CacheSimOptions{true, {}, {}});

  // Replay through the full cache. The simulator keys entries by the
  // scope-truncated client block; EcsCache does the same when we insert at
  // the scope the "authoritative" returned.
  EcsCache cache;
  const Name qname_base = Name::from_string("cdn.example");
  std::uint64_t hits = 0, misses = 0;
  for (const auto& q : trace.queries) {
    const Name qname =
        qname_base.prepend("h" + std::to_string(q.name));
    // EcsCache evicts lazily; the simulator retires expired entries before
    // every query. Purge eagerly so the peak-size accounting is comparable.
    cache.purge_expired(q.time);
    const auto* hit = cache.lookup(qname, dnscore::RRType::A, q.client, q.time);
    if (hit != nullptr) {
      ++hits;
      continue;
    }
    ++misses;
    cache.insert(qname, dnscore::RRType::A, Prefix{q.client, q.scope},
                 static_cast<std::uint8_t>(q.scope), {}, q.time,
                 static_cast<netsim::SimTime>(q.ttl_s) * kSecond);
  }
  EXPECT_EQ(hits, sim.per_resolver[0].hits);
  EXPECT_EQ(misses, sim.per_resolver[0].misses);
  // And peak size agrees with the simulator's accounting.
  EXPECT_EQ(cache.stats().max_entries, sim.per_resolver[0].max_cache_size);
}

// Bounded cross-validation: under a capacity bound, both implementations
// feed the same strategy the same event sequence, so they must agree on
// every victim — and therefore on hits, misses, peak size, and the
// capacity-eviction count — for every policy.
class BoundedCrossValidation : public ::testing::TestWithParam<EvictionPolicy> {};

TEST_P(BoundedCrossValidation, EcsCacheMatchesTraceSimulator) {
  measurement::PublicResolverCdnConfig trace_config;
  trace_config.resolvers = 1;
  trace_config.min_clients_per_resolver = 50;
  trace_config.max_clients_per_resolver = 51;
  trace_config.min_qps = 30;
  trace_config.max_qps = 31;
  trace_config.hostnames = 40;
  trace_config.duration = 3 * netsim::kMinute;
  const auto trace = measurement::generate_public_resolver_cdn_trace(trace_config);
  ASSERT_FALSE(trace.queries.empty());

  measurement::CacheSimOptions options;
  options.with_ecs = true;
  options.max_entries_per_resolver = 12;
  options.policy = GetParam();
  const auto sim = measurement::simulate_cache(trace, options);

  CacheConfig cache_config;
  cache_config.capacity_entries = 12;
  cache_config.policy = GetParam();
  EcsCache cache(cache_config);
  const Name qname_base = Name::from_string("cdn.example");
  std::uint64_t hits = 0, misses = 0;
  for (const auto& q : trace.queries) {
    const Name qname = qname_base.prepend("h" + std::to_string(q.name));
    // Eager purge, as above: the simulator retires expired entries before
    // every query, and victim choice must see the same live set.
    cache.purge_expired(q.time);
    const auto* hit = cache.lookup(qname, dnscore::RRType::A, q.client, q.time);
    if (hit != nullptr) {
      ++hits;
      continue;
    }
    ++misses;
    cache.insert(qname, dnscore::RRType::A, Prefix{q.client, q.scope},
                 static_cast<std::uint8_t>(q.scope), {}, q.time,
                 static_cast<netsim::SimTime>(q.ttl_s) * kSecond);
  }
  EXPECT_EQ(hits, sim.per_resolver[0].hits);
  EXPECT_EQ(misses, sim.per_resolver[0].misses);
  EXPECT_EQ(cache.stats().max_entries, sim.per_resolver[0].max_cache_size);
  EXPECT_EQ(cache.stats().capacity_evictions,
            sim.per_resolver[0].premature_evictions);
  EXPECT_LE(cache.stats().max_entries, 12u);
  EXPECT_EQ(cache.stats().insertions,
            cache.stats().accounted_insertions(cache.size()));
}

INSTANTIATE_TEST_SUITE_P(Policies, BoundedCrossValidation,
                         ::testing::ValuesIn(kAllEvictionPolicies),
                         [](const auto& info) { return to_string(info.param); });

}  // namespace
}  // namespace ecsdns::resolver
