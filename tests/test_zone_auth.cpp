// Zone lookup and authoritative-server behavior: answers, CNAME chasing,
// referrals, EDNS/ECS handling including the FORMERR and whitelist paths.
#include <gtest/gtest.h>

#include "authoritative/server.h"
#include "cdn/mapping.h"
#include "netsim/world.h"

namespace ecsdns::authoritative {
namespace {

using dnscore::EcsOption;
using dnscore::IpAddress;
using dnscore::Message;
using dnscore::Name;
using dnscore::Prefix;
using dnscore::RCode;
using dnscore::ResourceRecord;
using dnscore::RRType;

Name n(const char* s) { return Name::from_string(s); }

TEST(Zone, AnswerAndNxDomain) {
  Zone zone(n("example.com"));
  zone.add(ResourceRecord::make_a(n("www.example.com"), 60, IpAddress::parse("1.1.1.1")));
  auto r = zone.lookup_ref(n("www.example.com"), RRType::A);
  EXPECT_EQ(r.kind, ZoneLookup::Kind::kAnswer);
  ASSERT_EQ(r.records->size(), 1u);
  EXPECT_EQ(zone.lookup_ref(n("nope.example.com"), RRType::A).kind,
            ZoneLookup::Kind::kNxDomain);
  EXPECT_EQ(zone.lookup_ref(n("www.example.com"), RRType::AAAA).kind,
            ZoneLookup::Kind::kNoData);
  EXPECT_EQ(zone.lookup_ref(n("other.org"), RRType::A).kind,
            ZoneLookup::Kind::kNotInZone);
}

TEST(Zone, CnamePrecedence) {
  Zone zone(n("example.com"));
  zone.add(ResourceRecord::make_cname(n("www.example.com"), 60, n("cdn.example.net")));
  EXPECT_EQ(zone.lookup_ref(n("www.example.com"), RRType::A).kind,
            ZoneLookup::Kind::kCname);
  EXPECT_EQ(zone.lookup_ref(n("www.example.com"), RRType::CNAME).kind,
            ZoneLookup::Kind::kAnswer);
}

TEST(Zone, DelegationCutShadowsNames) {
  Zone zone(n("com"));
  zone.delegate(n("example.com"),
                {ResourceRecord::make_ns(n("example.com"), 3600, n("ns1.example.com"))},
                {ResourceRecord::make_a(n("ns1.example.com"), 3600,
                                        IpAddress::parse("9.9.9.9"))});
  const auto r = zone.lookup_ref(n("deep.www.example.com"), RRType::A);
  EXPECT_EQ(r.kind, ZoneLookup::Kind::kDelegation);
  ASSERT_EQ(r.records->size(), 1u);
  EXPECT_EQ(r.glue->size(), 1u);
}

TEST(Zone, RejectsOutOfZoneRecords) {
  Zone zone(n("example.com"));
  EXPECT_THROW(zone.add(ResourceRecord::make_a(n("www.other.org"), 60,
                                               IpAddress::parse("1.1.1.1"))),
               std::invalid_argument);
  EXPECT_THROW(zone.delegate(n("example.com"), {}, {}), std::invalid_argument);
}

class AuthServerTest : public ::testing::Test {
 protected:
  AuthServerTest() : server_(AuthConfig{}, nullptr) {
    auto& zone = server_.add_zone(n("example.com"));
    zone.add(ResourceRecord::make_a(n("www.example.com"), 60,
                                    IpAddress::parse("1.1.1.1")));
    zone.add(ResourceRecord::make_cname(n("alias.example.com"), 60,
                                        n("www.example.com")));
    zone.add(ResourceRecord::make_cname(n("ext.example.com"), 60, n("www.other.net")));
  }

  Message ask(const Name& qname, RRType t = RRType::A, bool edns = true,
              std::optional<EcsOption> ecs = std::nullopt) {
    Message q = Message::make_query(1, qname, t);
    if (edns) q.opt = dnscore::OptRecord{};
    if (ecs) q.set_ecs(*ecs);
    auto r = server_.handle(q, IpAddress::parse("8.8.8.8"), 0);
    EXPECT_TRUE(r.has_value());
    return *r;
  }

  AuthServer server_;
};

TEST_F(AuthServerTest, AnswersInZone) {
  const Message r = ask(n("www.example.com"));
  EXPECT_EQ(r.header.rcode, RCode::NOERROR);
  EXPECT_TRUE(r.header.aa);
  EXPECT_FALSE(r.header.ra);
  EXPECT_EQ(r.first_address(), IpAddress::parse("1.1.1.1"));
}

TEST_F(AuthServerTest, ChasesInZoneCname) {
  const Message r = ask(n("alias.example.com"));
  EXPECT_EQ(r.answers.size(), 2u);
  EXPECT_EQ(r.answers[0].type, RRType::CNAME);
  EXPECT_EQ(r.first_address(), IpAddress::parse("1.1.1.1"));
}

TEST_F(AuthServerTest, LeavesOutOfZoneCnameDangling) {
  const Message r = ask(n("ext.example.com"));
  EXPECT_EQ(r.answers.size(), 1u);
  EXPECT_EQ(r.answers[0].type, RRType::CNAME);
}

TEST_F(AuthServerTest, RefusesOutOfZone) {
  EXPECT_EQ(ask(n("www.google.com")).header.rcode, RCode::REFUSED);
}

TEST_F(AuthServerTest, NxDomain) {
  EXPECT_EQ(ask(n("missing.example.com")).header.rcode, RCode::NXDOMAIN);
}

TEST_F(AuthServerTest, NoEcsPolicyIgnoresOption) {
  const Message r = ask(n("www.example.com"), RRType::A, true,
                        EcsOption::for_query(Prefix::parse("1.2.3.0/24")));
  EXPECT_EQ(r.header.rcode, RCode::NOERROR);
  EXPECT_FALSE(r.has_ecs());  // a non-adopter stays silent about ECS
  ASSERT_EQ(server_.log().size(), 1u);
  EXPECT_TRUE(server_.log()[0].query_ecs.has_value());
  EXPECT_FALSE(server_.log()[0].response_ecs.has_value());
}

TEST_F(AuthServerTest, MalformedEcsGetsFormErr) {
  auto bad = EcsOption::for_query(Prefix::parse("1.2.3.0/24"));
  bad.set_address_bytes({1, 2, 3, 4, 5});  // wrong length for /24
  const Message r = ask(n("www.example.com"), RRType::A, true, bad);
  EXPECT_EQ(r.header.rcode, RCode::FORMERR);
}

TEST_F(AuthServerTest, BadEdnsVersionGetsBadVers) {
  Message q = Message::make_query(1, n("www.example.com"), RRType::A);
  q.opt = dnscore::OptRecord{};
  q.opt->version = 1;
  const auto r = server_.handle(q, IpAddress::parse("8.8.8.8"), 0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.rcode, RCode::BADVERS);
}

TEST_F(AuthServerTest, EmptyQuestionGetsFormErr) {
  Message q;
  const auto r = server_.handle(q, IpAddress::parse("8.8.8.8"), 0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.rcode, RCode::FORMERR);
}

TEST(AuthServerConfig, PreEdnsServerFormErrsOptQueries) {
  AuthConfig config;
  config.edns_supported = false;
  AuthServer server(config, nullptr);
  server.add_zone(n("example.com"));
  Message q = Message::make_query(1, n("www.example.com"), RRType::A);
  q.opt = dnscore::OptRecord{};
  const auto r = server.handle(q, IpAddress::parse("8.8.8.8"), 0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.rcode, RCode::FORMERR);
  EXPECT_FALSE(r->opt.has_value());
}

TEST(AuthServerConfig, DropsEcsQueriesWhenConfigured) {
  AuthConfig config;
  config.drop_ecs_queries = true;
  AuthServer server(config, nullptr);
  server.add_zone(n("example.com"));
  Message q = Message::make_query(1, n("www.example.com"), RRType::A);
  q.set_ecs(EcsOption::for_query(Prefix::parse("1.2.3.0/24")));
  EXPECT_FALSE(server.handle(q, IpAddress::parse("8.8.8.8"), 0).has_value());
  // The same query without ECS is answered.
  Message q2 = Message::make_query(2, n("missing.example.com"), RRType::A);
  EXPECT_TRUE(server.handle(q2, IpAddress::parse("8.8.8.8"), 0).has_value());
}

TEST(ScopeDeltaPolicy, ScopeIsSourceMinusDelta) {
  AuthServer server(AuthConfig{}, std::make_unique<ScopeDeltaPolicy>(4));
  auto& zone = server.add_zone(n("scan.net"));
  zone.add(ResourceRecord::make_a(n("probe.scan.net"), 60, IpAddress::parse("1.1.1.1")));

  Message q = Message::make_query(1, n("probe.scan.net"), RRType::A);
  q.set_ecs(EcsOption::for_query(Prefix::parse("100.64.7.0/24")));
  const auto r = server.handle(q, IpAddress::parse("8.8.8.8"), 0);
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(r->has_ecs());
  EXPECT_EQ(r->ecs()->scope_prefix_length(), 20);  // 24 - 4
  EXPECT_EQ(r->ecs()->source_prefix_length(), 24);

  // No ECS in -> no ECS out.
  Message q2 = Message::make_query(2, n("probe.scan.net"), RRType::A);
  q2.opt = dnscore::OptRecord{};
  const auto r2 = server.handle(q2, IpAddress::parse("8.8.8.8"), 0);
  EXPECT_FALSE(r2->has_ecs());
}

TEST(ScopeDeltaPolicy, NsQueriesGetZeroScope) {
  AuthServer server(AuthConfig{}, std::make_unique<ScopeDeltaPolicy>(4));
  auto& zone = server.add_zone(n("scan.net"));
  zone.add(ResourceRecord::make_ns(n("scan.net"), 3600, n("ns1.scan.net")));
  Message q = Message::make_query(1, n("scan.net"), RRType::NS);
  q.set_ecs(EcsOption::for_query(Prefix::parse("100.64.7.0/24")));
  const auto r = server.handle(q, IpAddress::parse("8.8.8.8"), 0);
  ASSERT_TRUE(r->has_ecs());
  EXPECT_EQ(r->ecs()->scope_prefix_length(), 0);
}

TEST(WhitelistPolicy, NonWhitelistedSeeNoEcs) {
  auto inner = std::make_unique<FixedScopePolicy>(24);
  auto policy = std::make_unique<WhitelistPolicy>(
      std::move(inner), std::vector<IpAddress>{IpAddress::parse("5.5.5.5")});
  AuthServer server(AuthConfig{}, std::move(policy));
  auto& zone = server.add_zone(n("cdn.net"));
  zone.add(ResourceRecord::make_a(n("x.cdn.net"), 20, IpAddress::parse("1.1.1.1")));

  Message q = Message::make_query(1, n("x.cdn.net"), RRType::A);
  q.set_ecs(EcsOption::for_query(Prefix::parse("100.64.7.0/24")));

  const auto blocked = server.handle(q, IpAddress::parse("6.6.6.6"), 0);
  EXPECT_FALSE(blocked->has_ecs());
  const auto allowed = server.handle(q, IpAddress::parse("5.5.5.5"), 0);
  ASSERT_TRUE(allowed->has_ecs());
  EXPECT_EQ(allowed->ecs()->scope_prefix_length(), 24);
}

TEST(CdnMappingPolicyTest, TailorsAnswersByEcs) {
  netsim::World world;
  netsim::IpGeoDb geo;
  geo.add(Prefix::parse("100.64.7.0/24"), world.city("Tokyo").location);
  auto fleet = cdn::EdgeFleet::global(world, IpAddress::parse("95.0.0.1"));
  cdn::ProximityMapping mapping(cdn::ProximityMapping::cdn2_config(), fleet, geo);

  AuthServer server(AuthConfig{}, std::make_unique<CdnMappingPolicy>(mapping));
  auto& zone = server.add_zone(n("cdn.net"));
  zone.add(ResourceRecord::make_a(n("x.cdn.net"), 20, IpAddress::parse("203.0.113.1")));

  Message q = Message::make_query(1, n("x.cdn.net"), RRType::A);
  q.set_ecs(EcsOption::for_query(Prefix::parse("100.64.7.0/24")));
  const auto r = server.handle(q, IpAddress::parse("8.8.8.8"), 0);
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(r->has_ecs());
  EXPECT_EQ(r->ecs()->scope_prefix_length(), 21);  // CDN-2 granularity
  // The tailored answer is the Tokyo edge, not the static record.
  const auto tokyo_edge = fleet.nearest(world.city("Tokyo").location).address;
  EXPECT_EQ(r->first_address(), tokyo_edge);
  // The tailored TTL applies.
  EXPECT_EQ(r->answers.front().ttl, server.config().tailored_ttl);
}

// serve_wire's bytes: a truncated reply and every reply built in a
// retained DispatchScratch equal their from-scratch reference encodings.
class ServeWireTest : public ::testing::Test {
 protected:
  ServeWireTest() : server_(AuthConfig{}, std::make_unique<ScopeDeltaPolicy>(4)) {
    auto& zone = server_.add_zone(n("example.com"));
    zone.add(ResourceRecord::make_a(n("www.example.com"), 60,
                                    IpAddress::parse("1.1.1.1")));
    // ~80 x 16-octet records: far past the 512-octet plain-DNS limit.
    for (std::uint8_t i = 0; i < 80; ++i) {
      zone.add(ResourceRecord::make_a(n("fat.example.com"), 60,
                                      IpAddress::v4(10, 9, 0, i)));
    }
  }

  // The UDP reply to `query` through `scratch`; nullopt when dropped.
  std::optional<std::vector<std::uint8_t>> serve(const Message& query,
                                                 DispatchScratch& scratch) {
    const auto wire = query.serialize();
    std::vector<std::uint8_t> out;
    if (!server_.serve_wire(wire, IpAddress::parse("8.8.8.8"), 0, /*via_tcp=*/false,
                            scratch, out)) {
      return std::nullopt;
    }
    return out;
  }

  AuthServer server_;
};

Message query_with_ecs(std::uint16_t id, const char* qname, const char* prefix) {
  Message q = Message::make_query(id, n(qname), RRType::A);
  q.set_ecs(EcsOption::for_query(Prefix::parse(prefix)));
  return q;
}

TEST_F(ServeWireTest, TruncatedReplyMatchesReferenceEncoding) {
  DispatchScratch scratch;
  // An ECS answer first, so the retained response holds an ECS option slot
  // when the truncated replies are built in it.
  ASSERT_TRUE(serve(query_with_ecs(7, "www.example.com", "1.2.3.0/24"), scratch));
  // No OPT: the 512-octet limit. EDNS at 512 octets: the reply keeps OPT
  // but drops the ECS echo.
  const Message plain = Message::make_query(8, n("fat.example.com"), RRType::A);
  Message small = query_with_ecs(9, "fat.example.com", "1.2.3.0/24");
  small.opt->udp_payload_size = 512;
  const Message* queries[] = {&plain, &small};
  for (const Message* q : queries) {
    const auto got = serve(*q, scratch);
    ASSERT_TRUE(got.has_value());
    Message reference = Message::make_response(*q);
    reference.header.aa = true;
    reference.header.rcode = RCode::NOERROR;
    reference.header.tc = true;
    EXPECT_EQ(*got, reference.serialize()) << "query id " << q->header.id;
  }
}

TEST_F(ServeWireTest, RetainedScratchMatchesFreshScratch) {
  std::vector<Message> sequence;
  sequence.push_back(query_with_ecs(1, "www.example.com", "1.2.3.0/24"));
  Message opt_only = Message::make_query(2, n("www.example.com"), RRType::A);
  opt_only.opt = dnscore::OptRecord{};
  sequence.push_back(opt_only);
  sequence.push_back(Message::make_query(3, n("www.example.com"), RRType::A));
  // An ECS payload too short for its own header: FORMERR.
  Message short_ecs = Message::make_query(4, n("www.example.com"), RRType::A);
  short_ecs.opt = dnscore::OptRecord{};
  short_ecs.opt->add_option(dnscore::EdnsOption{8, {0, 1, 24}});
  sequence.push_back(short_ecs);
  Message two = Message::make_query(5, n("www.example.com"), RRType::A);
  two.questions.push_back(dnscore::Question{n("fat.example.com"), RRType::A});
  sequence.push_back(two);
  sequence.push_back(query_with_ecs(6, "www.example.com", "100.64.0.0/20"));

  DispatchScratch retained;
  for (const Message& q : sequence) {
    SCOPED_TRACE(q.header.id);
    DispatchScratch fresh;
    const auto want = serve(q, fresh);
    ASSERT_TRUE(want.has_value());
    EXPECT_EQ(serve(q, retained), want);
    // The retained query is the whole packet, not just the fields the
    // answer reads.
    EXPECT_EQ(retained.query.serialize(), q.serialize());
  }
  DispatchScratch fresh;
  const auto formerr = serve(short_ecs, fresh);
  ASSERT_TRUE(formerr.has_value());
  EXPECT_EQ(Message::parse(*formerr).header.rcode, RCode::FORMERR);
}

// An ECS ADDRESS of 40 octets fits no source prefix length: the option is
// unparseable, answered FORMERR with the query's OPT record and no echo.
// The reply bytes are pinned; a scratch that just served an ECS echo gives
// the same bytes.
TEST_F(ServeWireTest, OversizeEcsAddressAnswersFormErr) {
  Message q = Message::make_query(10, n("www.example.com"), RRType::A);
  q.opt = dnscore::OptRecord{};
  dnscore::EdnsOption raw{8, {0, 1, 24, 0}};
  for (std::uint8_t i = 0; i < 40; ++i) raw.payload.push_back(0xa0 + i);
  q.opt->add_option(raw);
  const std::vector<std::uint8_t> want = {
      0x00, 0x0a, 0x81, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
      0x03, 0x77, 0x77, 0x77, 0x07, 0x65, 0x78, 0x61, 0x6d, 0x70, 0x6c, 0x65,
      0x03, 0x63, 0x6f, 0x6d, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x29,
      0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  DispatchScratch fresh;
  EXPECT_EQ(serve(q, fresh), want);
  EXPECT_FALSE(server_.log().back().query_ecs.has_value());
  DispatchScratch retained;
  ASSERT_TRUE(serve(query_with_ecs(11, "www.example.com", "1.2.3.0/24"), retained));
  EXPECT_EQ(serve(q, retained), want);
}

}  // namespace
}  // namespace ecsdns::authoritative
