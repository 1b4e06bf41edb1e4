// The streaming pipeline's equivalence contracts: a TraceStream consumed
// incrementally must produce byte-identical analysis results to the same
// queries materialized in a Trace — through the cache simulator, both
// censuses, and the sharded replay at every shard count.
#include <gtest/gtest.h>

#include <memory>
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
