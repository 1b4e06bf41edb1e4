// The concurrent workload driver: event pacing, burst semantics, clock
// policy, and the adapt-to-scope extension end to end.
#include <gtest/gtest.h>

#include <cstdint>

#include "authoritative/ecs_policy.h"
#include "measurement/fleet.h"
#include "measurement/workload.h"

namespace ecsdns::measurement {
namespace {

using dnscore::Name;

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest() {
    zone_ = Name::from_string("cdn.example");
    auth_ = &bed_.add_auth("cdn", zone_, "Ashburn",
                           std::make_unique<authoritative::FixedScopePolicy>(24));
    for (int i = 0; i < 4; ++i) {
      const auto host = zone_.prepend("h" + std::to_string(i));
      auth_->find_zone(zone_)->add(dnscore::ResourceRecord::make_a(
          host, 20, dnscore::IpAddress::v4(203, 0, 113, static_cast<std::uint8_t>(i))));
      hostnames_.push_back(host);
    }
  }

  Fleet single(resolver::ResolverConfig config) {
    Fleet fleet;
    FleetMember m;
    auto& r = bed_.add_resolver(std::move(config), "Chicago");
    m.resolver = &r;
    m.address = r.address();
    fleet.members.push_back(std::move(m));
    return fleet;
  }

  Testbed bed_;
  Name zone_;
  authoritative::AuthServer* auth_;
  std::vector<Name> hostnames_;
};

TEST_F(WorkloadTest, DrivesApproximatelyPoissonVolume) {
  Fleet fleet = single(resolver::ResolverConfig::correct());
  WorkloadOptions wl;
  wl.hostnames = hostnames_;
  wl.duration = 100 * netsim::kMinute;
  wl.mean_query_gap = 1 * netsim::kMinute;
  wl.burst_probability = 0.0;
  const auto stats = drive_fleet(bed_, fleet, wl);
  // ~100 expected; Poisson 3-sigma is ~±30.
  EXPECT_GT(stats.client_queries, 60u);
  EXPECT_LT(stats.client_queries, 140u);
  EXPECT_EQ(stats.answered, stats.client_queries);
}

TEST_F(WorkloadTest, ClockStaysAtEventTime) {
  Fleet fleet = single(resolver::ResolverConfig::correct());
  WorkloadOptions wl;
  wl.hostnames = hostnames_;
  wl.duration = 10 * netsim::kMinute;
  wl.mean_query_gap = 30 * netsim::kSecond;
  drive_fleet(bed_, fleet, wl);
  // The clock must land exactly on the workload horizon: round trips of
  // concurrent actors must not serially inflate it.
  EXPECT_EQ(bed_.network().now(), 10 * netsim::kMinute);
  // And the serial-timing mode is restored afterwards.
  EXPECT_TRUE(bed_.network().advance_clock());
}

TEST_F(WorkloadTest, BurstsProduceWithinTtlUpstreamRepeats) {
  resolver::ResolverConfig config = resolver::ResolverConfig::hostname_prober_nocache();
  config.probe_hostnames = {hostnames_[0]};
  Fleet fleet = single(config);
  WorkloadOptions wl;
  wl.hostnames = {hostnames_[0]};
  wl.duration = 60 * netsim::kMinute;
  wl.mean_query_gap = 2 * netsim::kMinute;
  wl.burst_probability = 1.0;
  drive_fleet(bed_, fleet, wl);
  // Every burst re-queries the same name 5 s later; with caching disabled
  // for the probe name, pairs must reach the authoritative within the TTL.
  netsim::SimTime min_gap = netsim::kHour;
  netsim::SimTime last = -1;
  for (const auto& e : auth_->log()) {
    if (e.qname != hostnames_[0]) continue;
    if (last >= 0) min_gap = std::min(min_gap, e.time - last);
    last = e.time;
  }
  EXPECT_LE(min_gap, 6 * netsim::kSecond);
}

TEST_F(WorkloadTest, V6MembersQueryWithV6Ecs) {
  resolver::ResolverConfig config = resolver::ResolverConfig::correct();
  config.v6_source_bits = 56;
  Fleet fleet = single(config);
  fleet.members[0].v6_clients = true;
  WorkloadOptions wl;
  wl.hostnames = hostnames_;
  wl.duration = 30 * netsim::kMinute;
  wl.mean_query_gap = 2 * netsim::kMinute;
  drive_fleet(bed_, fleet, wl);
  std::size_t v6 = 0, v4 = 0;
  for (const auto& e : auth_->log()) {
    if (!e.query_ecs) continue;
    if (e.query_ecs->family() == static_cast<std::uint16_t>(dnscore::EcsFamily::IPv6)) {
      ++v6;
    } else {
      ++v4;
    }
  }
  EXPECT_GT(v6, 0u);
  EXPECT_EQ(v4, 0u);
}

TEST_F(WorkloadTest, RequiresHostnames) {
  Fleet fleet = single(resolver::ResolverConfig::correct());
  WorkloadOptions wl;
  EXPECT_THROW(drive_fleet(bed_, fleet, wl), std::invalid_argument);
}

// FNV-1a over every field the pin below covers, fed as fixed-width
// little-endian integers and length-prefixed byte strings.
class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void bytes(const std::uint8_t* data, std::size_t size) {
    u64(size);
    for (std::size_t i = 0; i < size; ++i) byte(data[i]);
  }
  void text(const std::string& s) {
    bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
  void ecs(const std::optional<dnscore::EcsOption>& option) {
    u64(option.has_value());
    if (!option) return;
    u64(option->family());
    u64(option->source_prefix_length());
    u64(option->scope_prefix_length());
    bytes(option->address_bytes().data(), option->address_bytes().size());
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void digest_log(Digest& d, const authoritative::AuthServer& server) {
  d.u64(server.log().size());
  for (const auto& e : server.log()) {
    d.u64(static_cast<std::uint64_t>(e.time));
    d.u64(static_cast<std::uint64_t>(e.sender.family()));
    d.bytes(e.sender.bytes().data(), e.sender.bytes().size());
    d.text(e.qname.to_string());
    d.u64(static_cast<std::uint64_t>(e.qtype));
    d.ecs(e.query_ecs);
    d.ecs(e.response_ecs);
    d.u64(static_cast<std::uint64_t>(e.rcode));
  }
}

// Behaviour pin for the whole resolution path: a small CDN-dataset fleet
// (every §6 probing class, jammed and v6 sources) driven through
// drive_fleet. The digest covers every authoritative's full query log plus
// each resolver's counters and cache statistics, so any change to a wire
// byte, an RNG draw or the event order moves it. The constant was captured
// before the resolution path was made allocation-free; it must never be
// edited to make a refactor pass.
TEST(Workload, QueryLogDigestIsPinned) {
  Testbed bed;
  const Name zone = Name::from_string("cdn.example");
  auto& cdn = bed.add_auth("cdn", zone, "Ashburn",
                           std::make_unique<authoritative::FixedScopePolicy>(24));
  std::vector<Name> hostnames;
  for (int i = 0; i < 16; ++i) {
    const Name host = zone.prepend("h" + std::to_string(i));
    cdn.find_zone(zone)->add(dnscore::ResourceRecord::make_a(
        host, 20, dnscore::IpAddress::v4(203, 0, 113, static_cast<std::uint8_t>(i + 1))));
    hostnames.push_back(host);
  }
  CdnFleetOptions fleet_options;
  fleet_options.scale = 25;
  fleet_options.probe_names = {hostnames[0], hostnames[1]};
  Fleet fleet = build_cdn_dataset_fleet(bed, fleet_options);

  WorkloadOptions wl;
  wl.hostnames = hostnames;
  wl.duration = 20 * netsim::kMinute;
  wl.mean_query_gap = 1 * netsim::kMinute;
  wl.seed = 5;
  const WorkloadStats stats = drive_fleet(bed, fleet, wl);
  ASSERT_GT(stats.client_queries, 1000u);
  EXPECT_EQ(stats.answered, stats.client_queries);

  Digest d;
  d.u64(stats.client_queries);
  d.u64(stats.answered);
  digest_log(d, bed.root_server());
  for (const auto& server : bed.auth_servers()) digest_log(d, *server);
  for (const auto& member : fleet.members) {
    const auto& c = member.resolver->counters();
    for (const std::uint64_t v :
         {c.client_queries, c.upstream_queries, c.upstream_ecs_queries, c.cache_hits,
          c.negative_cache_hits, c.edns_fallbacks, c.servfails, c.referrals_followed,
          c.cname_restarts}) {
      d.u64(v);
    }
    auto& cache = member.resolver->cache();
    const auto& s = cache.stats();
    for (const std::uint64_t v :
         {s.hits, s.misses, s.insertions, s.expired_evictions, s.capacity_evictions,
          s.cleared_entries, s.replacements, s.ttl_zero_skips,
          static_cast<std::uint64_t>(s.max_entries),
          static_cast<std::uint64_t>(cache.size())}) {
      d.u64(v);
    }
  }
  EXPECT_EQ(d.value(), 0xa748b88ff1c011e2ull) << std::hex << "digest 0x" << d.value();
}

TEST(AdaptToScope, LearnsZoneGranularityAndRatchets) {
  Testbed bed;
  const Name zone = Name::from_string("adaptive.example");
  auto scope_knob = std::make_shared<int>(16);
  // FixedScope would violate scope<=source after adaptation; a mutable
  // min(scope, source) policy mirrors a compliant authoritative.
  class Policy : public authoritative::EcsPolicy {
   public:
    explicit Policy(std::shared_ptr<int> s) : s_(std::move(s)) {}
    authoritative::EcsDecision decide(
        const dnscore::Question&, const dnscore::EcsOption* ecs,
        const dnscore::IpAddress&) const override {
      authoritative::EcsDecision d;
      if (!ecs) return d;
      d.include_option = true;
      d.scope = std::min<int>(*s_, ecs->source_prefix_length());
      return d;
    }
   private:
    std::shared_ptr<int> s_;
  };
  auto& auth = bed.add_auth("adaptive", zone, "Ashburn",
                            std::make_unique<Policy>(scope_knob));
  for (int i = 0; i < 3; ++i) {
    auth.find_zone(zone)->add(dnscore::ResourceRecord::make_a(
        zone.prepend("h" + std::to_string(i)), 20,
        dnscore::IpAddress::parse("203.0.113.1")));
  }
  resolver::ResolverConfig config = resolver::ResolverConfig::correct();
  config.adapt_source_to_scope = true;
  auto& resolver = bed.add_resolver(config, "Chicago");

  const auto ask = [&](int i) {
    dnscore::Message q = dnscore::Message::make_query(
        1, zone.prepend("h" + std::to_string(i)), dnscore::RRType::A);
    q.opt = dnscore::OptRecord{};
    resolver.handle_client_query(q, dnscore::IpAddress::parse("100.64.9.7"));
  };
  ask(0);  // learns scope 16
  *scope_knob = 24;
  ask(1);  // must now send /16 (ratcheted), and the scope stays <= 16
  ask(2);

  std::vector<int> lengths;
  for (const auto& e : auth.log()) {
    if (e.query_ecs) lengths.push_back(e.query_ecs->source_prefix_length());
  }
  ASSERT_EQ(lengths.size(), 3u);
  EXPECT_EQ(lengths[0], 24);  // first contact: policy default
  EXPECT_EQ(lengths[1], 16);  // adapted to the zone's demonstrated scope
  EXPECT_EQ(lengths[2], 16);  // and it never widens again (the ratchet)
}

}  // namespace
}  // namespace ecsdns::measurement
