// Runtime half of the ECSDNS_NOALLOC contracts that scripts/ecstidy checks
// statically. This binary links bench/alloc_hooks.cpp (counting operator
// new/delete), so obs::allocation_count() advances on every heap
// allocation — the tests below pin the hot paths that must stay flat.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "authoritative/ecs_policy.h"
#include "authoritative/server.h"
#include "dnscore/ecs.h"
#include "dnscore/message.h"
#include "dnscore/message_view.h"
#include "dnscore/wire.h"
#include "live/client.h"
#include "live/udp_server.h"
#include "measurement/cache_sim.h"
#include "measurement/testbed.h"
#include "netsim/buffer_pool.h"
#include "netsim/socket.h"
#include "obs/alloc_counter.h"
#include "resolver/cache.h"
#include "resolver/eviction.h"

namespace ecsdns {
namespace {

using dnscore::Message;
using dnscore::MessageView;
using dnscore::Name;
using dnscore::RRType;
using dnscore::WireWriter;
using netsim::BufferPool;

std::uint64_t allocs() { return obs::allocation_count(); }

TEST(AllocHooks, AreLinkedIntoThisBinary) {
  const auto before = allocs();
  auto* p = new std::uint64_t(42);
  EXPECT_GT(allocs(), before) << "alloc_hooks.cpp is not linked; every "
                                 "other test in this file is vacuous";
  delete p;
}

// Regression: BufferPool::release() used to grow the freelist vector on the
// packet path (the first kMaxPooled releases each risked a reallocation).
// The constructor now reserves the full bound, so a release/acquire cycle
// of an already-allocated buffer performs zero heap allocations.
TEST(BufferPoolNoalloc, ReleaseAcquireCycleIsAllocationFree) {
  BufferPool pool;
  std::vector<std::vector<std::uint8_t>> bufs;
  for (int i = 0; i < 8; ++i) {
    auto b = pool.acquire();
    b.resize(512);  // converge capacity before the measured window
    bufs.push_back(std::move(b));
  }
  const auto before = allocs();
  for (int round = 0; round < 100; ++round) {
    for (auto& b : bufs) pool.release(std::move(b));
    for (auto& b : bufs) b = pool.acquire();
  }
  EXPECT_EQ(allocs(), before)
      << "BufferPool release/acquire allocated on the hot path";
}

TEST(BufferPoolNoalloc, FreelistNeverReallocatesEvenAtCapacity) {
  BufferPool pool;
  // Donate more buffers than kMaxPooled; the pool must cap, not grow.
  std::vector<std::vector<std::uint8_t>> bufs(BufferPool::kMaxPooled + 8);
  for (auto& b : bufs) b.resize(64);
  const auto before = allocs();
  for (auto& b : bufs) pool.release(std::move(b));
  // The overflow releases free their buffers (deallocation is fine); the
  // freelist itself must not have allocated.
  EXPECT_EQ(allocs(), before);
  EXPECT_EQ(pool.pooled(), BufferPool::kMaxPooled);
}

// The steady-state serialize path: once a pooled buffer's capacity has
// converged on the message size, re-serializing into it allocates nothing.
TEST(SerializeNoalloc, PooledSerializeSteadyStateIsAllocationFree) {
  Message q = Message::make_query(
      0x1234, Name::from_string("www.example.com"), RRType::A);
  BufferPool pool;
  auto buf = pool.acquire();
  {
    WireWriter w(buf);
    q.serialize_into(w);  // warm-up: grows buf to the message size
  }
  const auto before = allocs();
  for (int i = 0; i < 50; ++i) {
    pool.release(std::move(buf));
    buf = pool.acquire();
    WireWriter w(buf);
    q.serialize_into(w, /*compress=*/false);
  }
  EXPECT_EQ(allocs(), before)
      << "steady-state pooled serialization allocated";
}

// MessageView's validating walk records offsets only — constructing a view
// over existing wire bytes must not allocate.
TEST(MessageViewNoalloc, ConstructionIsAllocationFree) {
  Message q = Message::make_query(
      7, Name::from_string("cachetest.example.org"), RRType::AAAA);
  const std::vector<std::uint8_t> wire = q.serialize();
  const auto before = allocs();
  for (int i = 0; i < 50; ++i) {
    MessageView view(wire);
    ASSERT_EQ(view.id(), 7);
    ASSERT_FALSE(view.has_ecs());
    ASSERT_EQ(view.ecs_payload().size(), 0u);
  }
  EXPECT_EQ(allocs(), before) << "MessageView construction allocated";
}

// The live-wire steady state: a ServerShard driving recv -> serve_wire ->
// send over a MockUdpSocket. After a warm-up that converges every retained
// buffer (the mock's rx ring, the shard's tx vectors, DispatchScratch), a
// uniform query stream is served with zero heap allocations.
TEST(LiveWireNoalloc, ShardRecvDispatchSendSteadyStateIsAllocationFree) {
  authoritative::AuthConfig config;
  config.log_queries = false;  // log appends allocate by design
  authoritative::AuthServer auth(
      config, std::make_unique<authoritative::ScopeDeltaPolicy>(4));
  const auto zone = Name::from_string("noalloc.example");
  auth.add_zone(zone).add(dnscore::ResourceRecord::make_a(
      zone.prepend("www"), 300, dnscore::IpAddress::v4(203, 0, 113, 10)));

  netsim::MockUdpSocket socket;
  socket.set_record_sends(false);  // recording copies each response
  live::FakeClock clock;
  live::LiveServerConfig server_config;
  server_config.batch = 4;
  server_config.recv_buffer_bytes = 512;
  live::ServerShard shard(socket, auth, clock, server_config);

  Message q = Message::make_query(0x4242, zone.prepend("www"), RRType::A);
  q.set_ecs(dnscore::EcsOption::for_query(
      dnscore::Prefix::parse("198.51.100.0/24")));
  const std::vector<std::uint8_t> wire = q.serialize();
  const netsim::SocketAddress peer{dnscore::IpAddress::v4(127, 0, 0, 1), 40000};

  // Warm-up: grow the mock's rx ring and converge every scratch capacity.
  for (int i = 0; i < 32; ++i) {
    socket.push_rx(wire, peer);
    shard.process_once();
    clock.advance_us(10);
  }

  const auto before = allocs();
  for (int i = 0; i < 200; ++i) {
    socket.push_rx(wire, peer);
    ASSERT_EQ(shard.process_once(), 1u);
    clock.advance_us(10);
  }
  EXPECT_EQ(allocs(), before)
      << "steady-state recv->dispatch->send allocated";
}

// Same contract on the client side: submit -> respond -> poll with pooled
// response buffers stays flat once capacities converge.
TEST(LiveWireNoalloc, ClientSubmitPollSteadyStateIsAllocationFree) {
  netsim::MockUdpSocket socket;
  socket.set_record_sends(false);
  live::FakeClock clock;
  live::LiveClientConfig config;
  config.server = {dnscore::IpAddress::v4(127, 0, 0, 1), 53};
  config.batch = 4;
  live::LiveClient client(config, socket, clock);

  const std::vector<std::uint8_t> wire =
      Message::make_query(0x0101, Name::from_string("www.noalloc.example"),
                          RRType::A)
          .serialize();
  std::vector<std::uint8_t> response = wire;
  response[2] |= 0x80;  // QR

  std::vector<live::Completion> done;
  done.reserve(4);
  const netsim::SocketAddress peer = config.server;
  const auto round = [&] {
    ASSERT_TRUE(client.submit(wire, 1));
    socket.push_rx(response, peer);
    done.clear();
    ASSERT_EQ(client.poll(done), 1u);
    ASSERT_TRUE(done[0].ok);
    client.pool().release(std::move(done[0].response));
    clock.advance_us(10);
  };
  for (int i = 0; i < 32; ++i) round();  // warm-up
  const auto before = allocs();
  for (int i = 0; i < 200; ++i) round();
  EXPECT_EQ(allocs(), before) << "steady-state client loop allocated";
}

// Both query shapes an authoritative sees most, interleaved: an ECS query
// and an OPT record without ECS. The reply to the first carries an ECS echo
// and the reply to the second does not, so the scratch messages' OPT
// option buffers change shape on every packet and must still not allocate.
TEST(LiveWireNoalloc, ShardMixedEcsAndPlainQueriesAreAllocationFree) {
  authoritative::AuthConfig config;
  config.log_queries = false;  // log appends allocate by design
  authoritative::AuthServer auth(
      config, std::make_unique<authoritative::ScopeDeltaPolicy>(4));
  const auto zone = Name::from_string("noalloc.example");
  auth.add_zone(zone).add(dnscore::ResourceRecord::make_a(
      zone.prepend("www"), 300, dnscore::IpAddress::v4(203, 0, 113, 10)));

  netsim::MockUdpSocket socket;
  socket.set_record_sends(false);
  live::FakeClock clock;
  live::LiveServerConfig server_config;
  server_config.batch = 4;
  server_config.recv_buffer_bytes = 512;
  live::ServerShard shard(socket, auth, clock, server_config);

  Message ecs_query = Message::make_query(0x4242, zone.prepend("www"), RRType::A);
  ecs_query.set_ecs(dnscore::EcsOption::for_query(
      dnscore::Prefix::parse("198.51.100.0/24")));
  Message plain_query = Message::make_query(0x4243, zone.prepend("www"), RRType::A);
  plain_query.opt.emplace();
  const std::vector<std::uint8_t> wires[] = {ecs_query.serialize(),
                                             plain_query.serialize()};
  const netsim::SocketAddress peer{dnscore::IpAddress::v4(127, 0, 0, 1), 40000};

  for (int i = 0; i < 32; ++i) {
    socket.push_rx(wires[i % 2], peer);
    shard.process_once();
    clock.advance_us(10);
  }

  const auto before = allocs();
  for (int i = 0; i < 200; ++i) {
    socket.push_rx(wires[i % 2], peer);
    ASSERT_EQ(shard.process_once(), 1u);
    clock.advance_us(10);
  }
  EXPECT_EQ(allocs(), before)
      << "alternating ECS and plain EDNS queries allocated";
}

// The client's response pool must cover a burst that completes every
// in-flight query in one poll, even when warm-up only ever completed one
// query per poll.
TEST(LiveWireNoalloc, ClientBurstAfterTrickleWarmupIsAllocationFree) {
  constexpr int kSlots = 16;
  netsim::MockUdpSocket socket;
  socket.set_record_sends(false);
  live::FakeClock clock;
  live::LiveClientConfig config;
  config.server = {dnscore::IpAddress::v4(127, 0, 0, 1), 53};
  config.max_in_flight = kSlots;
  config.batch = kSlots;
  live::LiveClient client(config, socket, clock);

  std::vector<std::vector<std::uint8_t>> queries;
  std::vector<std::vector<std::uint8_t>> responses;
  for (int i = 0; i < kSlots; ++i) {
    queries.push_back(Message::make_query(static_cast<std::uint16_t>(0x0100 + i),
                                          Name::from_string("www.noalloc.example"),
                                          RRType::A)
                          .serialize());
    responses.push_back(queries.back());
    responses.back()[2] |= 0x80;  // QR
  }
  std::vector<live::Completion> done;
  done.reserve(kSlots);
  const netsim::SocketAddress peer = config.server;
  const auto submit_all = [&] {
    for (int i = 0; i < kSlots; ++i) {
      ASSERT_TRUE(client.submit(queries[static_cast<std::size_t>(i)],
                                static_cast<std::uint64_t>(i)));
    }
  };
  const auto drain = [&](std::size_t expected) {
    done.clear();
    ASSERT_EQ(client.poll(done), expected);
    for (auto& c : done) {
      ASSERT_TRUE(c.ok);
      client.pool().release(std::move(c.response));
    }
    clock.advance_us(10);
  };

  // Warm-up: every slot holds a query, and the responses trickle in one
  // per poll.
  submit_all();
  for (const auto& response : responses) {
    socket.push_rx(response, peer);
    drain(1);
  }

  const auto before = allocs();
  submit_all();
  for (const auto& response : responses) socket.push_rx(response, peer);
  drain(kSlots);
  EXPECT_EQ(allocs(), before) << "a completion burst allocated response buffers";
}

// Bounded caches: once a cache has filled to its bound, every further event
// — hit, capacity eviction, expiry, insert into a recycled slot — runs on
// the slot-indexed structures it already owns.
class BoundedNoalloc : public ::testing::TestWithParam<resolver::EvictionPolicy> {};

TEST_P(BoundedNoalloc, SlotEvictionChurnIsAllocationFree) {
  constexpr resolver::SlotEviction::Slot kSlots = 64;
  resolver::SlotEviction order(GetParam());
  for (resolver::SlotEviction::Slot s = 0; s < kSlots; ++s) {
    ASSERT_EQ(order.on_insert(static_cast<int>(s % 33)), s);
  }
  const auto churn = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      const auto hot = static_cast<resolver::SlotEviction::Slot>(i * 7) % kSlots;
      order.on_hit(hot);
      order.on_hit(hot);
      const resolver::SlotEviction::Slot victim = order.pick_victim();
      order.on_erase(victim);
      ASSERT_EQ(order.on_insert(i % 33), victim) << "freed slot not recycled";
    }
  };
  churn(256);  // warm-up: LFU frequencies spread over their buckets
  const auto before = allocs();
  churn(4096);
  EXPECT_EQ(allocs(), before) << resolver::to_string(GetParam());
  EXPECT_EQ(order.tracked(), kSlots);
}

TEST_P(BoundedNoalloc, EcsCacheInsertAndLookupSteadyStateIsAllocationFree) {
  constexpr int kWarmup = 256;
  constexpr int kMeasured = 1024;
  resolver::CacheConfig config;
  config.capacity_entries = 64;
  config.policy = GetParam();
  resolver::EcsCache cache(config);
  const Name qname = Name::from_string("www.noalloc.example");
  // Record sets are built up front: the caller's vector moves into the
  // cache, so the measured window holds only the cache's own work.
  std::vector<std::vector<dnscore::ResourceRecord>> answers(kWarmup + kMeasured);
  for (auto& a : answers) {
    a.push_back(dnscore::ResourceRecord::make_a(
        qname, 20, dnscore::IpAddress::v4(203, 0, 113, 1)));
  }
  const auto step = [&](int i) {
    const auto block = dnscore::IpAddress::v4(static_cast<std::uint32_t>(i) << 8);
    const netsim::SimTime now = i * netsim::kMillisecond;
    cache.insert(qname, RRType::A, dnscore::Prefix{block, 24}, 24,
                 std::move(answers[static_cast<std::size_t>(i)]), now,
                 60 * netsim::kSecond);
    const auto recent =
        dnscore::IpAddress::v4(static_cast<std::uint32_t>(i - i % 16) << 8 | 7);
    (void)cache.lookup(qname, RRType::A, recent, now);
  };
  for (int i = 0; i < kWarmup; ++i) step(i);
  const auto before = allocs();
  for (int i = kWarmup; i < kWarmup + kMeasured; ++i) step(i);
  EXPECT_EQ(allocs(), before) << resolver::to_string(GetParam());
  EXPECT_EQ(cache.size(), 64u);
  EXPECT_GE(cache.stats().capacity_evictions, static_cast<std::uint64_t>(kMeasured));
}

// Unbounded caches recycle too: an entry that expires is swept by the
// lookup that finds it (or by purge_expired) and its slot, record storage
// and question go back to freelists, so the expire/sweep/reinsert churn of
// short-TTL ECS answers runs on storage the cache already owns.
TEST(EcsCacheNoalloc, UnboundedExpireSweepReinsertIsAllocationFree) {
  resolver::EcsCache cache;
  const std::vector<Name> names = {Name::from_string("a.noalloc.example"),
                                   Name::from_string("b.noalloc.example"),
                                   Name::from_string("c.noalloc.example")};
  // Copied into the cache by every insert; never moved.
  const std::vector<dnscore::ResourceRecord> answer = {
      dnscore::ResourceRecord::make_a(names[0], 20,
                                      dnscore::IpAddress::v4(203, 0, 113, 1))};
  constexpr int kScopes[] = {16, 24, 32};
  const auto step = [&](int i) {
    const netsim::SimTime now = i * netsim::kSecond;
    const Name& qname = names[static_cast<std::size_t>(i % 3)];
    const auto client =
        dnscore::IpAddress::v4(10, 0, static_cast<std::uint8_t>(i % 8), 1);
    if (cache.lookup(qname, RRType::A, client, now) == nullptr) {
      const int scope = kScopes[(i / 3) % 3];
      cache.insert(qname, RRType::A, dnscore::Prefix{client, scope},
                   static_cast<std::uint8_t>(scope), answer, now,
                   20 * netsim::kSecond);
    }
    if (i % 16 == 0) cache.purge_expired(now);
  };
  int i = 0;
  for (; i < 512; ++i) step(i);  // warm-up: slabs and tables at their peak
  const auto before = allocs();
  const auto expired_before = cache.stats().expired_evictions;
  for (; i < 512 + 4096; ++i) step(i);
  EXPECT_EQ(allocs(), before) << "expire/sweep/reinsert churn allocated";
  EXPECT_GT(cache.stats().expired_evictions - expired_before, 1000u);
  EXPECT_EQ(cache.stats().insertions,
            cache.stats().accounted_insertions(cache.size()));
}

TEST_P(BoundedNoalloc, BoundedReplaySteadyStateIsAllocationFree) {
  measurement::CacheSimOptions options;
  options.with_ecs = true;
  options.max_entries_per_resolver = 48;
  options.policy = GetParam();
  obs::MetricsRegistry registry;
  measurement::StreamingCacheSim sim(2, options, registry);
  // Two resolvers at a steady rate with a fixed TTL, half their queries on
  // a few hot /24 blocks and half spread over more blocks than the bound:
  // every cache stays full, and the pending-expiry heap settles at one TTL
  // window of inserts.
  const auto query = [](std::uint64_t i) {
    const bool hot = i % 4 < 2;
    const std::uint64_t block = hot ? i / 4 % 8 : i * 2654435761u % 97;
    measurement::TraceQuery q;
    q.time = static_cast<netsim::SimTime>(i) * 10 * netsim::kMillisecond;
    q.resolver = static_cast<std::uint32_t>(i % 2);
    q.name = hot ? 0 : static_cast<std::uint32_t>(1 + i % 3);
    q.client = dnscore::IpAddress::v4(static_cast<std::uint32_t>(block << 8));
    q.scope = 24;
    q.ttl_s = 5;
    return q;
  };
  std::uint64_t i = 0;
  for (; i < 20000; ++i) sim.observe(query(i));  // warm-up
  const auto before = allocs();
  for (; i < 60000; ++i) sim.observe(query(i));
  EXPECT_EQ(allocs(), before) << resolver::to_string(GetParam());
  const auto result = sim.finish();
  EXPECT_GT(result.per_resolver[0].premature_evictions, 0u);
  EXPECT_GT(result.per_resolver[0].hits, 0u);
  EXPECT_EQ(result.per_resolver[0].max_cache_size, 48u);
}

// Message::parse_into re-decodes into a retained message: once the section
// vectors and the OPT option slots have held a message of this shape,
// parsing another one (different values, same shape) allocates nothing.
TEST(Message, ParseIntoReusesCapacity) {
  const Name zone = Name::from_string("cdn.example");
  const auto wire_for = [&zone](std::uint8_t i) {
    Message m = Message::make_query(i, zone.prepend("www"), RRType::A);
    m.header.qr = true;
    m.answers.push_back(dnscore::ResourceRecord::make_a(
        zone.prepend("www"), 20, dnscore::IpAddress::v4(203, 0, 113, i)));
    m.authorities.push_back(dnscore::ResourceRecord::make_ns(
        zone, 86400, zone.prepend("ns1")));
    m.additional.push_back(dnscore::ResourceRecord::make_a(
        zone.prepend("ns1"), 86400, dnscore::IpAddress::v4(90, 0, 0, i)));
    m.set_ecs(dnscore::EcsOption::for_response(
        dnscore::Prefix(dnscore::IpAddress::v4(100, 64, i, 0), 24), 24));
    return m.serialize();
  };
  std::vector<std::vector<std::uint8_t>> wires;
  for (std::uint8_t i = 1; i <= 8; ++i) wires.push_back(wire_for(i));
  Message retained;
  Message::parse_into(wires[0], retained);  // warm-up: sizes every slot
  const auto before = allocs();
  for (int round = 0; round < 50; ++round) {
    for (const auto& wire : wires) Message::parse_into(wire, retained);
  }
  EXPECT_EQ(allocs(), before) << "re-parsing a same-shaped message allocated";
  EXPECT_EQ(retained.answers.size(), 1u);
  EXPECT_EQ(retained.ecs()->source_prefix_length(), 24);
}

// The recursive resolver end to end over netsim: a client query answered
// into a retained response, through the leased upstream exchange (query
// built in place, reply decoded by parse_into) and the authoritative's
// dispatch scratch. Query logging is off: log entries are kept storage.
class ResolverNoalloc : public ::testing::Test {
 protected:
  ResolverNoalloc() {
    authoritative::AuthConfig config;
    config.log_queries = false;
    auto& auth = bed_.add_auth("cdn", zone_, "Ashburn",
                               std::make_unique<authoritative::FixedScopePolicy>(24),
                               config);
    auth.find_zone(zone_)->add(dnscore::ResourceRecord::make_a(
        host_, 20, dnscore::IpAddress::v4(203, 0, 113, 1)));
  }

  // Warms every retained buffer with a few queries, then counts the
  // allocations of `rounds` more.
  std::uint64_t steady_state_allocs(resolver::RecursiveResolver& resolver,
                                    int rounds) {
    const Message query = Message::make_query(1, host_, RRType::A);
    Message response;
    const auto ask = [&] {
      ASSERT_TRUE(resolver.handle_client_query_into(query, client_, response));
      ASSERT_EQ(response.header.rcode, dnscore::RCode::NOERROR);
      ASSERT_EQ(response.answers.size(), 1u);
    };
    for (int i = 0; i < 4; ++i) ask();
    const auto before = allocs();
    for (int i = 0; i < rounds; ++i) ask();
    return allocs() - before;
  }

  measurement::Testbed bed_;
  const Name zone_ = Name::from_string("cdn.example");
  const Name host_ = zone_.prepend("www");
  const dnscore::IpAddress client_ = dnscore::IpAddress::v4(100, 64, 1, 5);
};

TEST_F(ResolverNoalloc, UpstreamExchangeSteadyStateIsAllocationFree) {
  // A per-hostname prober with caching disabled for its probe name: every
  // client query goes upstream with ECS.
  auto config = resolver::ResolverConfig::hostname_prober_nocache();
  config.probe_hostnames = {host_};
  auto& resolver = bed_.add_resolver(config, "Chicago");
  const auto upstream_before = resolver.counters().upstream_ecs_queries;
  EXPECT_EQ(steady_state_allocs(resolver, 100), 0u)
      << "the upstream exchange allocated in steady state";
  // Every query reached the leaf with ECS (the root and TLD hops of the
  // first one carry none).
  EXPECT_EQ(resolver.counters().upstream_ecs_queries - upstream_before, 104u);
}

TEST_F(ResolverNoalloc, CacheHitIsAllocationFree) {
  auto& resolver = bed_.add_resolver(resolver::ResolverConfig::correct(), "Chicago");
  EXPECT_EQ(steady_state_allocs(resolver, 100), 0u)
      << "answering from the cache allocated";
  EXPECT_EQ(resolver.counters().cache_hits, 103u);
}

// Every query past the answer's 20 s TTL: the lookup finds the expired
// entry (or, after a purge, no question at all), the resolver refetches
// upstream, and the answer is inserted again — the resolver_fleet pattern.
TEST_F(ResolverNoalloc, ExpiredAnswerRefetchIsAllocationFree) {
  auto& resolver = bed_.add_resolver(resolver::ResolverConfig::correct(), "Chicago");
  auto& loop = bed_.network().loop();
  const Message query = Message::make_query(1, host_, RRType::A);
  Message response;
  int round = 0;
  const auto ask = [&] {
    loop.advance(21 * netsim::kSecond);
    if (++round % 4 == 0) resolver.cache().purge_expired(loop.now());
    ASSERT_TRUE(resolver.handle_client_query_into(query, client_, response));
    ASSERT_EQ(response.header.rcode, dnscore::RCode::NOERROR);
    ASSERT_EQ(response.answers.size(), 1u);
  };
  for (int i = 0; i < 8; ++i) ask();
  const auto insertions_before = resolver.cache().stats().insertions;
  const auto before = allocs();
  for (int i = 0; i < 100; ++i) ask();
  EXPECT_EQ(allocs() - before, 0u) << "refetching an expired answer allocated";
  EXPECT_EQ(resolver.cache().stats().insertions - insertions_before, 100u);
  EXPECT_EQ(resolver.counters().cache_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, BoundedNoalloc,
                         ::testing::ValuesIn(resolver::kAllEvictionPolicies),
                         [](const auto& info) {
                           return resolver::to_string(info.param);
                         });

}  // namespace
}  // namespace ecsdns
