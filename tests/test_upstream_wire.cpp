// Wire identity of the resolver's upstream queries: every byte the
// recursive resolver sends an authoritative must equal the reference
// encoding of the same message — make_query, rd cleared, an empty OPT,
// set_ecs, serialize() — for each ECS shape the paper's fleet emits, for
// QNAME-minimised infrastructure queries, and for the plain retry after an
// EDNS FORMERR.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "authoritative/ecs_policy.h"
#include "measurement/testbed.h"

namespace ecsdns::resolver {
namespace {

using authoritative::AuthServer;
using authoritative::ScopeDeltaPolicy;
using dnscore::EcsOption;
using dnscore::IpAddress;
using dnscore::Message;
using dnscore::Name;
using dnscore::Prefix;
using dnscore::RCode;
using dnscore::ResourceRecord;
using dnscore::RRType;
using measurement::Testbed;

Name n(const char* s) { return Name::from_string(s); }

using Wire = std::vector<std::uint8_t>;

// Re-attaches `server` at `addr` behind a tap that keeps a copy of every
// query datagram before the server answers it through serve_wire.
std::shared_ptr<std::vector<Wire>> tap(Testbed& bed, AuthServer& server,
                                       const IpAddress& addr) {
  auto seen = std::make_shared<std::vector<Wire>>();
  auto scratch = std::make_shared<authoritative::DispatchScratch>();
  auto& network = bed.network();
  network.attach(addr, *network.location_of(addr),
                 [&server, &network, seen, scratch](const netsim::Datagram& d)
                     -> std::optional<Wire> {
                   seen->emplace_back(d.payload.begin(), d.payload.end());
                   Wire out;
                   if (!server.serve_wire(d.payload, d.src, network.now(), d.via_tcp,
                                          *scratch, out)) {
                     return std::nullopt;
                   }
                   return out;
                 });
  return seen;
}

// The reference encoding of an upstream query with the id the resolver
// chose (read back from the captured bytes).
Wire reference(const Wire& captured, const Name& qname, RRType qtype, bool edns,
               std::optional<Prefix> ecs) {
  const auto id = static_cast<std::uint16_t>((captured.at(0) << 8) | captured.at(1));
  Message q = Message::make_query(id, qname, qtype);
  q.header.rd = false;
  if (edns) q.opt = dnscore::OptRecord{};
  if (ecs) q.set_ecs(EcsOption::for_query(*ecs));
  return q.serialize();
}

Message ask(RecursiveResolver& resolver, const Name& qname, const char* client,
            RRType qtype = RRType::A) {
  Message q = Message::make_query(7, qname, qtype);
  q.opt = dnscore::OptRecord{};
  auto r = resolver.handle_client_query(q, IpAddress::parse(client));
  EXPECT_TRUE(r.has_value());
  return r.value_or(Message{});
}

class UpstreamWire : public ::testing::Test {
 protected:
  UpstreamWire() {
    auth_ = &bed_.add_auth("auth", n("example.com"), "Ashburn",
                           std::make_unique<ScopeDeltaPolicy>(0));
    auth_->find_zone(n("example.com"))
        ->add(ResourceRecord::make_a(n("www.example.com"), 60,
                                     IpAddress::v4(192, 0, 2, 1)));
    auth_->find_zone(n("example.com"))
        ->add(ResourceRecord::make_a(n("a.b.www.example.com"), 60,
                                     IpAddress::v4(192, 0, 2, 2)));
    seen_ = tap(bed_, *auth_, bed_.auth_address(*auth_));
  }

  // The leaf server's one query for `qname`, checked against the reference.
  void expect_leaf_query(RecursiveResolver& resolver, const char* client,
                         std::optional<Prefix> ecs) {
    const Message r = ask(resolver, n("www.example.com"), client);
    EXPECT_EQ(r.header.rcode, RCode::NOERROR);
    ASSERT_EQ(seen_->size(), 1u);
    EXPECT_EQ(seen_->front(),
              reference(seen_->front(), n("www.example.com"), RRType::A, true, ecs));
  }

  Testbed bed_;
  AuthServer* auth_ = nullptr;
  std::shared_ptr<std::vector<Wire>> seen_;
};

TEST_F(UpstreamWire, EcsV4Slash24MatchesReferenceEncoding) {
  auto& resolver = bed_.add_resolver(ResolverConfig::correct(), "Chicago");
  expect_leaf_query(resolver, "100.64.1.5", Prefix::parse("100.64.1.0/24"));
}

TEST_F(UpstreamWire, JammedSlash32MatchesReferenceEncoding) {
  auto& resolver = bed_.add_resolver(ResolverConfig::jammed_32(), "Chicago");
  expect_leaf_query(resolver, "100.64.1.5", Prefix::parse("100.64.1.1/32"));
}

TEST_F(UpstreamWire, EcsV6Slash56MatchesReferenceEncoding) {
  auto& resolver = bed_.add_resolver(ResolverConfig::correct(), "Chicago");
  expect_leaf_query(resolver, "2001:db8:1:2345:6::5",
                    Prefix::parse("2001:db8:1:2300::/56"));
}

TEST_F(UpstreamWire, NoEcsMatchesReferenceEncoding) {
  ResolverConfig config = ResolverConfig::correct();
  config.probing = ProbingStrategy::kNever;
  auto& resolver = bed_.add_resolver(config, "Chicago");
  expect_leaf_query(resolver, "100.64.1.5", std::nullopt);
}

TEST_F(UpstreamWire, QnameMinimisedNsQueryMatchesReferenceEncoding) {
  const auto root_seen =
      tap(bed_, bed_.root_server(), bed_.root_hints().front());
  ResolverConfig config = ResolverConfig::correct();
  config.qname_minimization = true;
  auto& resolver = bed_.add_resolver(config, "Chicago");
  const Message r = ask(resolver, n("a.b.www.example.com"), "100.64.1.5");
  EXPECT_EQ(r.header.rcode, RCode::NOERROR);
  // The root learns only the next label, as an NS query without ECS.
  ASSERT_EQ(root_seen->size(), 1u);
  EXPECT_EQ(root_seen->front(),
            reference(root_seen->front(), n("com"), RRType::NS, true, std::nullopt));
  // The content zone still sees the full name with the client's /24.
  ASSERT_EQ(seen_->size(), 1u);
  EXPECT_EQ(seen_->front(), reference(seen_->front(), n("a.b.www.example.com"),
                                      RRType::A, true,
                                      Prefix::parse("100.64.1.0/24")));
}

TEST(UpstreamWireFallback, EdnsFallbackPlainRetryMatchesReferenceEncoding) {
  Testbed bed;
  authoritative::AuthConfig config;
  config.edns_supported = false;  // FORMERRs every query carrying OPT
  auto& auth = bed.add_auth("legacy", n("legacy.com"), "Ashburn", nullptr, config);
  auth.find_zone(n("legacy.com"))
      ->add(ResourceRecord::make_a(n("www.legacy.com"), 60, IpAddress::v4(1, 1, 1, 1)));
  const auto seen = tap(bed, auth, bed.auth_address(auth));
  auto& resolver = bed.add_resolver(ResolverConfig::correct(), "Chicago");
  const Message r = ask(resolver, n("www.legacy.com"), "100.64.1.5");
  EXPECT_EQ(r.header.rcode, RCode::NOERROR);
  ASSERT_EQ(seen->size(), 2u);
  EXPECT_EQ((*seen)[0], reference((*seen)[0], n("www.legacy.com"), RRType::A, true,
                                  Prefix::parse("100.64.1.0/24")));
  // The retry drops the whole OPT record, ECS included, and keeps the id.
  EXPECT_EQ((*seen)[1], reference((*seen)[0], n("www.legacy.com"), RRType::A, false,
                                  std::nullopt));
}

}  // namespace
}  // namespace ecsdns::resolver
