// The streaming pipeline's equivalence contracts: a TraceStream consumed
// incrementally must produce byte-identical analysis results to the same
// queries materialized in a Trace — through the cache simulator, both
// censuses, and the sharded replay at every shard count.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "measurement/cache_sim.h"
#include "measurement/prefix_census.h"
#include "measurement/trace_stream.h"
#include "measurement/tracegen.h"

namespace ecsdns::measurement {
namespace {

PublicResolverCdnConfig small_cdn() {
  PublicResolverCdnConfig config;
  config.resolvers = 24;
  config.min_clients_per_resolver = 4;
  config.max_clients_per_resolver = 64;
  config.hostnames = 64;
  config.duration = 2 * netsim::kMinute;
  config.seed = 77;
  return config;
}

AllNamesConfig small_all_names() {
  AllNamesConfig config;
  config.clients = 200;
  config.client_subnets = 40;
  config.hostnames = 300;
  config.slds = 50;
  config.queries_per_second = 24.0;
  config.duration = 4 * netsim::kMinute;
  config.seed = 78;
  return config;
}

void expect_same_query(const TraceQuery& a, const TraceQuery& b) {
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.resolver, b.resolver);
  EXPECT_EQ(a.client, b.client);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.scope, b.scope);
  EXPECT_EQ(a.ttl_s, b.ttl_s);
}

TEST(TraceStream, CdnStreamIsTimeOrderedWithDeclaredBounds) {
  const auto config = small_cdn();
  PublicResolverCdnStream stream(config);
  const auto& info = stream.info();
  EXPECT_EQ(info.resolvers, config.resolvers);
  EXPECT_EQ(info.hostnames, config.hostnames);
  EXPECT_TRUE(info.time_ordered);

  TraceQuery q;
  SimTime prev = 0;
  std::uint64_t count = 0;
  while (stream.next(q)) {
    EXPECT_GE(q.time, prev);
    EXPECT_LT(q.time, config.duration);
    EXPECT_LT(q.resolver, config.resolvers);
    EXPECT_LT(q.name, config.hostnames);
    EXPECT_EQ(q.ttl_s, config.ttl_s);
    EXPECT_TRUE(q.scope == 8 || q.scope == 16 || q.scope == 24);
    prev = q.time;
    ++count;
  }
  EXPECT_GT(count, 1000u);
}

TEST(TraceStream, FactoryInstancesReplayIdentically) {
  // Sharded consumption builds one stream instance per shard; the whole
  // scheme rests on every instance replaying the same sequence.
  const auto factory = cdn_stream_factory(small_cdn());
  auto a = factory();
  auto b = factory();
  TraceQuery qa, qb;
  std::uint64_t count = 0;
  while (true) {
    const bool more_a = a->next(qa);
    const bool more_b = b->next(qb);
    ASSERT_EQ(more_a, more_b);
    if (!more_a) break;
    expect_same_query(qa, qb);
    ++count;
  }
  EXPECT_GT(count, 0u);
}

TEST(TraceStream, DrainMatchesRetiredGeneratorEntryPoints) {
  // The classic generate_* functions are now drain() shims; pin that the
  // materialized output matches a fresh stream pulled by hand.
  const auto config = small_all_names();
  const Trace trace = generate_all_names_trace(config);
  AllNamesStream stream(config);
  TraceQuery q;
  std::size_t i = 0;
  while (stream.next(q)) {
    ASSERT_LT(i, trace.queries.size());
    expect_same_query(q, trace.queries[i]);
    ++i;
  }
  EXPECT_EQ(i, trace.queries.size());
  std::vector<dnscore::IpAddress> clients;
  stream.append_clients(clients);
  EXPECT_EQ(clients, trace.clients);
}

TEST(TraceStream, MaterializedStreamScansInfo) {
  const Trace trace = generate_public_resolver_cdn_trace(small_cdn());
  MaterializedTraceStream stream(trace);
  EXPECT_EQ(stream.info().resolvers, trace.resolvers);
  EXPECT_EQ(stream.info().hostnames, trace.hostnames);
  EXPECT_TRUE(stream.info().time_ordered);
}

TEST(TraceStream, ClientOfIsPureAndMatchesEmittedClients) {
  const auto config = small_cdn();
  PublicResolverCdnStream a(config);
  PublicResolverCdnStream b(config);
  for (std::uint32_t r = 0; r < config.resolvers; ++r) {
    for (std::uint32_t k = 0; k < 4; ++k) {
      EXPECT_EQ(a.client_of(r, k), b.client_of(r, k));
    }
  }
}

// FNV-1a over fixed-width little-endian integers.
class Fnv1a {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= static_cast<std::uint8_t>(v >> (8 * i));
      h_ *= 0x100000001b3ull;
    }
  }
  void address(const dnscore::IpAddress& a) {
    u64(static_cast<std::uint64_t>(a.family()));
    for (const std::uint8_t b : a.bytes()) u64(b);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

TEST(TraceStream, CdnSequenceIsPinned) {
  // The sharded-vs-serial oracles compare a generator with itself, so they
  // cannot see a changed trace. This pins every field of every query, and
  // the client universe, of a fixed fleet.
  PublicResolverCdnConfig config;
  config.resolvers = 2000;
  config.min_clients_per_resolver = 4;
  config.max_clients_per_resolver = 64;
  config.min_qps = 0.5;
  config.max_qps = 5.0;
  config.hostnames = 500;
  config.duration = 20 * netsim::kSecond;
  config.seed = 4242;
  PublicResolverCdnStream stream(config);
  Fnv1a queries;
  std::uint64_t count = 0;
  TraceQuery q;
  while (stream.next(q)) {
    queries.u64(static_cast<std::uint64_t>(q.time));
    queries.u64(q.resolver);
    queries.address(q.client);
    queries.u64(q.name);
    queries.u64(static_cast<std::uint64_t>(q.scope));
    queries.u64(q.ttl_s);
    ++count;
  }
  std::vector<dnscore::IpAddress> clients;
  stream.append_clients(clients);
  Fnv1a universe;
  for (const auto& a : clients) universe.address(a);
  EXPECT_EQ(count, 73009u);
  EXPECT_EQ(queries.value(), 5613745284906148304ull);
  EXPECT_EQ(clients.size(), 43732u);
  EXPECT_EQ(universe.value(), 14597260820750179477ull);
}

std::vector<TraceQuery> pull_all(TraceStream& stream) {
  std::vector<TraceQuery> out;
  TraceQuery q;
  while (stream.next(q)) out.push_back(q);
  return out;
}

TEST(TraceStream, RestrictedShardsPartitionTheStream) {
  const auto config = small_cdn();
  PublicResolverCdnStream whole(config);
  const std::vector<TraceQuery> expect = pull_all(whole);
  constexpr std::size_t kShards = 4;
  std::vector<std::vector<TraceQuery>> parts;
  for (std::size_t s = 0; s < kShards; ++s) {
    PublicResolverCdnStream part(config);
    ASSERT_TRUE(part.restrict_to_members(s, kShards));
    parts.push_back(pull_all(part));
    EXPECT_FALSE(parts.back().empty()) << "shard " << s;
    for (const auto& q : parts.back()) {
      EXPECT_EQ(shard_of_id(q.resolver, kShards), s);
    }
  }
  // Merge the shards by (time, resolver): the unrestricted sequence.
  std::vector<std::size_t> cursor(kShards, 0);
  std::size_t i = 0;
  for (;; ++i) {
    std::size_t best = kShards;
    for (std::size_t s = 0; s < kShards; ++s) {
      if (cursor[s] == parts[s].size()) continue;
      const TraceQuery& q = parts[s][cursor[s]];
      if (best == kShards) {
        best = s;
        continue;
      }
      const TraceQuery& b = parts[best][cursor[best]];
      if (q.time < b.time || (q.time == b.time && q.resolver < b.resolver)) best = s;
    }
    if (best == kShards) break;
    ASSERT_LT(i, expect.size());
    expect_same_query(parts[best][cursor[best]++], expect[i]);
  }
  EXPECT_EQ(i, expect.size());
}

TEST(TraceStream, RestrictAfterFirstNextIsRefusedAndLeavesTheStreamWhole) {
  const auto config = small_cdn();
  PublicResolverCdnStream whole(config);
  const std::vector<TraceQuery> expect = pull_all(whole);
  PublicResolverCdnStream late(config);
  TraceQuery q;
  ASSERT_TRUE(late.next(q));
  EXPECT_FALSE(late.restrict_to_members(1, 4));
  std::vector<TraceQuery> got{q};
  while (late.next(q)) got.push_back(q);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i) expect_same_query(got[i], expect[i]);
}

TEST(TraceStream, AppendClientsReportsTheFullUniverseWhenRestricted) {
  const auto config = small_cdn();
  PublicResolverCdnStream whole(config);
  std::vector<dnscore::IpAddress> expect;
  whole.append_clients(expect);
  PublicResolverCdnStream part(config);
  ASSERT_TRUE(part.restrict_to_members(2, 4));
  TraceQuery q;
  ASSERT_TRUE(part.next(q));
  std::vector<dnscore::IpAddress> got;
  part.append_clients(got);
  EXPECT_EQ(got, expect);
  EXPECT_EQ(part.client_of(1, 3), whole.client_of(1, 3));
}

TEST(TraceStream, EqualClientBoundsGiveAFiniteOrderedStream) {
  PublicResolverCdnConfig config;
  config.resolvers = 4;
  config.min_clients_per_resolver = 50;
  config.max_clients_per_resolver = 50;
  config.duration = 2 * netsim::kSecond;
  // Four resolvers at most max_qps each for 2 s: far below the cap.
  constexpr std::uint64_t kCap = 100000;
  PublicResolverCdnStream stream(config);
  TraceQuery q;
  SimTime prev = 0;
  std::uint64_t count = 0;
  while (count < kCap && stream.next(q)) {
    ASSERT_GE(q.time, prev);
    ASSERT_LT(q.time, config.duration);
    prev = q.time;
    ++count;
  }
  EXPECT_LT(count, kCap);
  EXPECT_GT(count, 0u);
}

TEST(TraceStream, InvalidCdnConfigThrows) {
  const auto with = [](auto edit) {
    PublicResolverCdnConfig config = small_cdn();
    edit(config);
    return config;
  };
  using C = PublicResolverCdnConfig;
  EXPECT_THROW(PublicResolverCdnStream{with([](C& c) { c.min_clients_per_resolver = 0; })},
               std::invalid_argument);
  EXPECT_THROW(PublicResolverCdnStream{with([](C& c) {
                 c.min_clients_per_resolver = 10;
                 c.max_clients_per_resolver = 9;
               })},
               std::invalid_argument);
  EXPECT_THROW(PublicResolverCdnStream{with([](C& c) { c.min_qps = 0; })},
               std::invalid_argument);
  EXPECT_THROW(PublicResolverCdnStream{with([](C& c) { c.min_qps = -1; })},
               std::invalid_argument);
  EXPECT_THROW(PublicResolverCdnStream{with([](C& c) {
                 c.min_qps = 10;
                 c.max_qps = 5;
               })},
               std::invalid_argument);
  EXPECT_THROW(PublicResolverCdnStream{with([](C& c) { c.hostnames = 0; })},
               std::invalid_argument);
  EXPECT_NO_THROW(PublicResolverCdnStream{with([](C& c) {
    c.min_qps = c.max_qps = 7;
    c.min_clients_per_resolver = c.max_clients_per_resolver = 9;
  })});
}

// ---------------------------------------------------------------------------
// Byte-identity of analyses: streaming fold vs materialized replay.

void expect_same_result(const CacheSimResult& a, const CacheSimResult& b) {
  ASSERT_EQ(a.per_resolver.size(), b.per_resolver.size());
  for (std::size_t i = 0; i < a.per_resolver.size(); ++i) {
    const auto& x = a.per_resolver[i];
    const auto& y = b.per_resolver[i];
    EXPECT_EQ(x.resolver, y.resolver);
    EXPECT_EQ(x.max_cache_size, y.max_cache_size);
    EXPECT_EQ(x.hits, y.hits);
    EXPECT_EQ(x.misses, y.misses);
    EXPECT_EQ(x.premature_evictions, y.premature_evictions);
  }
}

TEST(TraceStreamCacheSim, StreamingFoldMatchesMaterializedSimulation) {
  const auto config = small_cdn();
  const Trace trace = generate_public_resolver_cdn_trace(config);
  for (const bool with_ecs : {true, false}) {
    CacheSimOptions options;
    options.with_ecs = with_ecs;
    const auto materialized = simulate_cache(trace, options);

    PublicResolverCdnStream stream(config);
    StreamingCacheSim sim(config.resolvers, options);
    TraceQuery q;
    while (stream.next(q)) sim.observe(q);
    expect_same_result(sim.finish(), materialized);
  }
}

TEST(TraceStreamCacheSim, GeneratorStreamShardsIdenticallyAtEveryCount) {
  const auto config = small_cdn();
  const auto factory = cdn_stream_factory(config);
  CacheSimOptions serial;
  const auto expect = simulate_cache_stream(factory, serial);
  // Also the full-byte-identity anchor against the materialized path.
  expect_same_result(expect,
                     simulate_cache(generate_public_resolver_cdn_trace(config),
                                    serial));
  for (const std::size_t shards : {2u, 4u, 8u}) {
    CacheSimOptions options;
    options.shards = shards;
    expect_same_result(simulate_cache_stream(factory, options), expect);
  }
}

TEST(TraceStreamCacheSim, BoundedReplayMatchesAcrossShardCounts) {
  const auto config = small_cdn();
  const auto factory = cdn_stream_factory(config);
  CacheSimOptions serial;
  serial.max_entries_per_resolver = 64;
  const auto expect = simulate_cache_stream(factory, serial);
  for (const std::size_t shards : {2u, 4u}) {
    CacheSimOptions options;
    options.max_entries_per_resolver = 64;
    options.shards = shards;
    expect_same_result(simulate_cache_stream(factory, options), expect);
  }
}

TEST(TraceStreamCacheSim, ResultDigestDetectsDifferencesAndMatchesAcrossShards) {
  const auto config = small_cdn();
  const auto factory = cdn_stream_factory(config);
  CacheSimOptions serial;
  const auto expect = simulate_cache_stream(factory, serial);
  const auto digest = result_digest(expect);
  // Same result -> same digest; sharded replay -> same digest.
  EXPECT_EQ(result_digest(expect), digest);
  for (const std::size_t shards : {2u, 4u, 8u}) {
    CacheSimOptions options;
    options.shards = shards;
    EXPECT_EQ(result_digest(simulate_cache_stream(factory, options)), digest);
  }
  // A perturbed result must change the digest (with overwhelming odds).
  auto tampered = expect;
  tampered.per_resolver.at(3).hits += 1;
  EXPECT_NE(result_digest(tampered), digest);
}

TEST(TraceStreamCacheSim, ResultDigestCoversEveryRow) {
  // Moving one hit between neighbouring rows leaves every total unchanged,
  // so only a digest that reads each row can see it — for every row.
  const auto expect = simulate_cache_stream(cdn_stream_factory(small_cdn()), {});
  const auto digest = result_digest(expect);
  ASSERT_EQ(expect.per_resolver.size(), 24u);
  for (std::size_t r = 0; r + 1 < expect.per_resolver.size(); ++r) {
    ASSERT_GT(expect.per_resolver[r].hits, 0u) << "row " << r;
    auto moved = expect;
    moved.per_resolver[r].hits -= 1;
    moved.per_resolver[r + 1].hits += 1;
    ASSERT_EQ(moved.total_hits(), expect.total_hits());
    EXPECT_NE(result_digest(moved), digest) << "row " << r;
  }
}

TEST(TraceStreamCensus, ClientPrefixCensusMatchesMaterializedBatch) {
  const auto config = small_cdn();
  const Trace trace = generate_public_resolver_cdn_trace(config);
  const auto batch = client_prefix_census(trace);

  PublicResolverCdnStream stream(config);
  ClientPrefixCensus census(config.resolvers);
  TraceQuery q;
  while (stream.next(q)) census.observe(q);
  const auto streamed = census.rows();

  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].distinct_blocks, batch[i].distinct_blocks);
    EXPECT_EQ(streamed[i].resolver_count, batch[i].resolver_count);
  }
  // The digest is a pure function of the rows.
  ClientPrefixCensus again(config.resolvers);
  MaterializedTraceStream replay(trace);
  while (replay.next(q)) again.observe(q);
  EXPECT_EQ(again.digest(), census.digest());
  EXPECT_EQ(again.distinct_pairs(), census.distinct_pairs());
}

TEST(TraceStreamCensus, AllNamesStreamCensusMatchesBatch) {
  const auto config = small_all_names();
  const Trace trace = generate_all_names_trace(config);
  const auto batch = client_prefix_census(trace);

  AllNamesStream stream(config);
  ClientPrefixCensus census(trace.resolvers);
  TraceQuery q;
  while (stream.next(q)) census.observe(q);
  const auto streamed = census.rows();
  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].distinct_blocks, batch[i].distinct_blocks);
    EXPECT_EQ(streamed[i].resolver_count, batch[i].resolver_count);
  }
}

}  // namespace
}  // namespace ecsdns::measurement
