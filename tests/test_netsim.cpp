// Simulator substrate tests: RNG determinism, Zipf, event loop, geography,
// latency model, transport, and the geolocation database.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "netsim/asndb.h"
#include "netsim/event_loop.h"
#include "netsim/geo.h"
#include "netsim/geodb.h"
#include "netsim/network.h"
#include "netsim/rng.h"
#include "netsim/world.h"

namespace ecsdns::netsim {
namespace {

using dnscore::IpAddress;
using dnscore::Prefix;

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(10), 10u);
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.uniform_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  EXPECT_EQ(rng.uniform(0), 0u);
  EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(Rng, ExponentialMean) {
  Rng rng(2);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(100.0);
  EXPECT_NEAR(sum / n, 100.0, 5.0);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Zipf, Rank0IsMostPopular) {
  Rng rng(4);
  ZipfSampler zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[99]);
  // Harmonic expectation: rank 0 gets ~1/H(100) of the mass (~19%).
  EXPECT_NEAR(static_cast<double>(counts[0]) / 20000.0, 0.19, 0.04);
}

TEST(Zipf, RejectsEmpty) { EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument); }

// The guide-table search must return exactly what a binary search over the
// same CDF returns: the first rank whose CDF reaches the uniform draw (the
// last rank if none does). The reference rebuilds the CDF with the
// sampler's arithmetic and draws from a twin generator.
TEST(Zipf, GuideTableMatchesLowerBound) {
  for (const std::size_t n : {1u, 2u, 64u, 1000u, 100000u}) {
    for (const double s : {0.6, 0.8, 1.0}) {
      const ZipfSampler zipf(n, s);
      std::vector<double> cdf(n);
      double total = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        total += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cdf[i] = total;
      }
      for (auto& v : cdf) v /= total;

      const std::uint64_t seed = n * 31 + static_cast<std::uint64_t>(s * 10);
      Rng sampled(seed);
      Rng reference(seed);
      std::size_t mismatches = 0;
      for (int i = 0; i < 1'000'000; ++i) {
        const double u = reference.uniform_double();
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        const std::size_t want =
            it == cdf.end() ? n - 1 : static_cast<std::size_t>(it - cdf.begin());
        if (zipf.sample(sampled) != want) ++mismatches;
      }
      EXPECT_EQ(mismatches, 0u) << "n=" << n << " s=" << s;
    }
  }
}

TEST(EventLoop, OrdersByTimeThenSeq) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(100, [&] { order.push_back(2); });
  loop.schedule_at(50, [&] { order.push_back(1); });
  loop.schedule_at(100, [&] { order.push_back(3); });  // same time, later seq
  EXPECT_EQ(loop.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 100);
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(10, [&] { ++fired; });
  loop.schedule_at(20, [&] { ++fired; });
  loop.schedule_at(30, [&] { ++fired; });
  EXPECT_EQ(loop.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.now(), 20);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, SelfRescheduling) {
  EventLoop loop;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) loop.schedule_in(10, tick);
  };
  loop.schedule_in(10, tick);
  loop.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(loop.now(), 50);
}

TEST(EventLoop, RejectsPastScheduling) {
  EventLoop loop;
  loop.advance(100);
  EXPECT_THROW(loop.schedule_at(50, [] {}), std::invalid_argument);
  EXPECT_THROW(loop.schedule_in(-1, [] {}), std::invalid_argument);
}

TEST(EventLoop, EqualTimeEventsFireInSchedulingOrderAcrossApis) {
  // The sharded engine's determinism leans on this: equal-time events fire
  // in the order they were scheduled no matter which API scheduled them.
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_in(40, [&] { order.push_back(1); });   // absolute 40
  loop.schedule_at(40, [&] { order.push_back(2); });
  loop.schedule_in(40, [&] { order.push_back(3); });
  loop.schedule_at(40, [&] { order.push_back(4); });
  // An event that schedules more work at its own timestamp: the new events
  // run after everything already queued for that time.
  loop.schedule_at(40, [&] {
    order.push_back(5);
    loop.schedule_at(40, [&] { order.push_back(7); });
    loop.schedule_in(0, [&] { order.push_back(8); });
  });
  loop.schedule_at(40, [&] { order.push_back(6); });
  EXPECT_EQ(loop.run(), 8u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(EventLoop, RunUntilLandsOnDeadline) {
  EventLoop loop;
  // Empty queue: run_until still advances the clock to the deadline.
  EXPECT_EQ(loop.run_until(70), 0u);
  EXPECT_EQ(loop.now(), 70);
  // An event exactly at the deadline fires; the clock stays there.
  int fired = 0;
  loop.schedule_at(90, [&] { ++fired; });
  loop.schedule_at(120, [&] { ++fired; });
  EXPECT_EQ(loop.run_until(90), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), 90);
  // Draining the queue before the deadline still parks at the deadline.
  EXPECT_EQ(loop.run_until(500), 1u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.now(), 500);
}

TEST(EventLoop, NextEventTimeReportsHeadOrNever) {
  EventLoop loop;
  EXPECT_EQ(loop.next_event_time(), EventLoop::kNever);
  loop.schedule_at(30, [] {});
  loop.schedule_at(10, [] {});
  EXPECT_EQ(loop.next_event_time(), 10);
  loop.run_until(10);
  EXPECT_EQ(loop.next_event_time(), 30);
  loop.run();
  EXPECT_EQ(loop.next_event_time(), EventLoop::kNever);
}

TEST(Rng, StreamSplittingIsDeterministicAndDecorrelated) {
  // Same (seed, stream) -> same sequence.
  Rng a = Rng::stream(42, 3);
  Rng b = Rng::stream(42, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  // Different streams (and the unsplit base RNG) disagree immediately.
  EXPECT_NE(Rng::stream(42, 0).next_u64(), Rng::stream(42, 1).next_u64());
  EXPECT_NE(Rng::stream(42, 0).next_u64(), Rng(42).next_u64());
  // Stream seeds are pure functions of (seed, id): no hidden state, so a
  // shard can derive its stream without coordinating with the others.
  EXPECT_EQ(stream_seed(7, 11), stream_seed(7, 11));
  EXPECT_NE(stream_seed(7, 11), stream_seed(7, 12));
  EXPECT_NE(stream_seed(7, 11), stream_seed(8, 11));
}

TEST(Geo, KnownDistances) {
  const World world;
  // Cleveland-Chicago ~ 500 km, Cleveland-Johannesburg ~ 13,400 km.
  const double cle_chi = distance_km(world.city("Cleveland").location,
                                     world.city("Chicago").location);
  EXPECT_NEAR(cle_chi, 500, 60);
  const double cle_jnb = distance_km(world.city("Cleveland").location,
                                     world.city("Johannesburg").location);
  EXPECT_NEAR(cle_jnb, 13400, 500);
  EXPECT_DOUBLE_EQ(
      distance_km(world.city("Tokyo").location, world.city("Tokyo").location), 0.0);
}

TEST(Geo, LatencyModelMagnitudes) {
  const LatencyModel model;
  // Nearby (~500 km): RTT around 10-15 ms.
  const SimTime near = model.round_trip(500);
  EXPECT_GT(near, 8 * kMillisecond);
  EXPECT_LT(near, 20 * kMillisecond);
  // Cross-globe (~13,400 km): RTT in the 200-300 ms band.
  const SimTime far = model.round_trip(13400);
  EXPECT_GT(far, 200 * kMillisecond);
  EXPECT_LT(far, 300 * kMillisecond);
}

TEST(World, CityLookup) {
  const World world;
  EXPECT_TRUE(world.has_city("Santiago"));
  EXPECT_FALSE(world.has_city("Atlantis"));
  EXPECT_THROW(world.city("Atlantis"), std::out_of_range);
  EXPECT_EQ(world.city("Milan").country, "IT");
  EXPECT_GE(world.cities_in("EU").size(), 15u);
  EXPECT_EQ(world.nearest(world.city("Beijing").location).name, "Beijing");
}

TEST(Network, RoundTripDeliversAndTimes) {
  Network net;
  const World world;
  const auto a = IpAddress::parse("10.0.0.1");
  const auto b = IpAddress::parse("10.0.0.2");
  net.attach(a, world.city("Cleveland").location, [](const Datagram&) {
    return std::nullopt;  // client never answers
  });
  net.attach(b, world.city("Chicago").location,
             [](const Datagram& d) -> std::optional<std::vector<std::uint8_t>> {
               std::vector<std::uint8_t> out(d.payload.begin(), d.payload.end());
               out.push_back(0x99);
               return out;
             });
  const SimTime before = net.now();
  const auto reply = net.round_trip(a, b, {1, 2, 3});
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->size(), 4u);
  EXPECT_EQ(reply->back(), 0x99);
  const SimTime elapsed = net.now() - before;
  EXPECT_EQ(elapsed, net.rtt_between(a, b));
  EXPECT_EQ(net.datagrams_delivered(), 2u);
}

TEST(Network, RoundTripAcceptsSpanPayload) {
  Network net;
  const World world;
  const auto a = IpAddress::parse("10.0.0.1");
  const auto b = IpAddress::parse("10.0.0.2");
  net.attach(a, world.city("Cleveland").location,
             [](const Datagram&) { return std::nullopt; });
  net.attach(b, world.city("Chicago").location,
             [](const Datagram& d) -> std::optional<std::vector<std::uint8_t>> {
               // The span aliases the sender's buffer for the duration of
               // this synchronous call — echo it back.
               return std::vector<std::uint8_t>(d.payload.begin(),
                                                d.payload.end());
             });
  std::vector<std::uint8_t> payload = {7, 8, 9};
  const auto reply =
      net.round_trip(a, b, std::span<const std::uint8_t>{payload.data(), 3});
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, payload);
}

TEST(BufferPool, RecyclesCapacity) {
  BufferPool pool;
  auto buf = pool.acquire();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(pool.reuses(), 0u);
  buf.assign(512, 0xab);
  const auto* storage = buf.data();
  const auto cap = buf.capacity();
  pool.release(std::move(buf));
  EXPECT_EQ(pool.pooled(), 1u);
  auto again = pool.acquire();
  EXPECT_TRUE(again.empty());          // cleared on reuse
  EXPECT_GE(again.capacity(), cap);    // but capacity survives
  EXPECT_EQ(again.data(), storage);    // same storage, no allocation
  EXPECT_EQ(pool.acquires(), 2u);
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(pool.pooled(), 0u);
}

TEST(BufferPool, IgnoresWorthlessAndOverflowReleases) {
  BufferPool pool;
  pool.release({});  // capacity-0 vector: not worth pooling
  EXPECT_EQ(pool.pooled(), 0u);
  for (std::size_t i = 0; i < BufferPool::kMaxPooled + 5; ++i) {
    std::vector<std::uint8_t> buf;
    buf.reserve(16);
    pool.release(std::move(buf));
  }
  EXPECT_EQ(pool.pooled(), BufferPool::kMaxPooled);
}

TEST(Network, ExposesSharedBufferPool) {
  Network net;
  auto buf = net.buffer_pool().acquire();
  buf.reserve(64);
  net.buffer_pool().release(std::move(buf));
  EXPECT_EQ(net.buffer_pool().pooled(), 1u);
}

TEST(Network, UnknownDestinationTimesOut) {
  Network net;
  const World world;
  const auto a = IpAddress::parse("10.0.0.1");
  net.attach(a, world.city("Cleveland").location,
             [](const Datagram&) { return std::nullopt; });
  net.set_timeout(5 * kSecond);
  const SimTime before = net.now();
  EXPECT_FALSE(net.round_trip(a, IpAddress::parse("10.9.9.9"), {1}).has_value());
  EXPECT_EQ(net.now() - before, 5 * kSecond);
  EXPECT_EQ(net.datagrams_dropped(), 1u);
}

TEST(Network, DroppedResponseBurnsTimeout) {
  Network net;
  const World world;
  const auto a = IpAddress::parse("10.0.0.1");
  const auto b = IpAddress::parse("10.0.0.2");
  net.attach(a, world.city("Cleveland").location,
             [](const Datagram&) { return std::nullopt; });
  net.attach(b, world.city("Chicago").location,
             [](const Datagram&) { return std::nullopt; });  // drops queries
  net.set_timeout(2 * kSecond);
  const SimTime before = net.now();
  EXPECT_FALSE(net.round_trip(a, b, {1}).has_value());
  EXPECT_EQ(net.now() - before, 2 * kSecond);
}

TEST(Network, PingAndHandshake) {
  Network net;
  const World world;
  const auto a = IpAddress::parse("10.0.0.1");
  const auto b = IpAddress::parse("10.0.0.2");
  net.attach(a, world.city("Santiago").location,
             [](const Datagram&) { return std::nullopt; });
  net.attach(b, world.city("Milan").location,
             [](const Datagram&) { return std::nullopt; });
  const auto rtt = net.ping(a, b);
  ASSERT_TRUE(rtt.has_value());
  EXPECT_EQ(net.tcp_handshake_time(a, b), rtt);
  // Santiago-Milan is transatlantic: expect > 100 ms.
  EXPECT_GT(*rtt, 100 * kMillisecond);
  EXPECT_FALSE(net.ping(a, IpAddress::parse("1.1.1.1")).has_value());
}

TEST(GeoDb, LongestPrefixMatch) {
  IpGeoDb db;
  const World world;
  db.add(Prefix::parse("100.0.0.0/8"), world.city("London").location);
  db.add(Prefix::parse("100.5.0.0/16"), world.city("Paris").location);
  db.add(Prefix::parse("100.5.5.0/24"), world.city("Zurich").location);
  EXPECT_EQ(db.locate(IpAddress::parse("100.5.5.9")), world.city("Zurich").location);
  EXPECT_EQ(db.locate(IpAddress::parse("100.5.9.9")), world.city("Paris").location);
  EXPECT_EQ(db.locate(IpAddress::parse("100.9.9.9")), world.city("London").location);
  EXPECT_FALSE(db.locate(IpAddress::parse("99.0.0.1")).has_value());
  EXPECT_EQ(db.size(), 3u);
}

TEST(AsnDb, LongestPrefixAttribution) {
  AsnDb db;
  db.add(Prefix::parse("80.0.0.0/8"), AsInfo{64512, "Transit-Co", "US"});
  db.add(Prefix::parse("80.1.2.0/24"), AsInfo{64513, "Resolver-Org", "CN"});
  db.add(Prefix::parse("80.1.2.3/32"), AsInfo{64514, "One-Host", "DE"});
  const auto exact = db.lookup(IpAddress::parse("80.1.2.3"));
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(exact->asn, 64514u);
  EXPECT_EQ(exact->country, "DE");
  EXPECT_EQ(db.lookup(IpAddress::parse("80.1.2.9"))->organization, "Resolver-Org");
  EXPECT_EQ(db.lookup(IpAddress::parse("80.9.9.9"))->asn, 64512u);
  EXPECT_FALSE(db.lookup(IpAddress::parse("81.0.0.1")).has_value());
  EXPECT_EQ(db.size(), 3u);
  // Re-adding the same prefix replaces rather than duplicates.
  db.add(Prefix::parse("80.1.2.0/24"), AsInfo{64599, "Renamed", "CN"});
  EXPECT_EQ(db.size(), 3u);
  EXPECT_EQ(db.lookup(IpAddress::parse("80.1.2.9"))->asn, 64599u);
}

TEST(GeoDb, PrefixLookupUsesCoarserEntries) {
  IpGeoDb db;
  const World world;
  db.add(Prefix::parse("100.5.0.0/16"), world.city("Paris").location);
  // A /24 query should match the /16 entry.
  EXPECT_EQ(db.locate(Prefix::parse("100.5.5.0/24")), world.city("Paris").location);
  // A coarse query over finer ground truth answers from a contained entry
  // (how an ECS /21 geolocates when truth is registered per /24).
  EXPECT_EQ(db.locate(Prefix::parse("100.0.0.0/8")), world.city("Paris").location);
  EXPECT_FALSE(db.locate(Prefix::parse("99.0.0.0/8")).has_value());
}

}  // namespace
}  // namespace ecsdns::netsim
