// UDP truncation and TCP retry (RFC 1035 §4.2, RFC 6891 §6.2.5).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <variant>
#include <vector>

#include "authoritative/ecs_policy.h"
#include "measurement/testbed.h"

namespace ecsdns::resolver {
namespace {

using authoritative::ScopeDeltaPolicy;
using dnscore::IpAddress;
using dnscore::Message;
using dnscore::Name;
using dnscore::RCode;
using dnscore::ResourceRecord;
using dnscore::RRType;
using measurement::Testbed;

Name n(const char* s) { return Name::from_string(s); }

// A zone whose answer is deliberately fat: many addresses on one name.
void add_fat_answer(authoritative::AuthServer& auth, int count) {
  auto* zone = auth.find_zone(n("fat.com"));
  for (int i = 0; i < count; ++i) {
    zone->add(ResourceRecord::make_a(
        n("big.fat.com"), 60,
        IpAddress::v4(10, 9, static_cast<std::uint8_t>(i >> 8),
                      static_cast<std::uint8_t>(i & 0xff))));
  }
}

TEST(Truncation, OversizedUdpResponseGetsTcBit) {
  Testbed bed;
  auto& auth = bed.add_auth("fat", n("fat.com"), "Ashburn",
                            std::make_unique<ScopeDeltaPolicy>(0));
  add_fat_answer(auth, 80);  // ~80 x 14-byte records >> 512
  auto& client = bed.add_client("Chicago");
  // A plain (non-EDNS) query has a 512-byte limit. StubClient always sends
  // EDNS, so craft the query by hand.
  Message q = Message::make_query(1, n("big.fat.com"), dnscore::RRType::A);
  const auto wire = bed.network().round_trip(client.address(),
                                             bed.auth_address(auth), q.serialize());
  ASSERT_TRUE(wire.has_value());
  EXPECT_LE(wire->size(), 512u);
  const Message response = Message::parse({wire->data(), wire->size()});
  EXPECT_TRUE(response.header.tc);
  EXPECT_TRUE(response.answers.empty());
}

TEST(Truncation, EdnsBufferRaisesTheLimit) {
  Testbed bed;
  auto& auth = bed.add_auth("fat", n("fat.com"), "Ashburn",
                            std::make_unique<ScopeDeltaPolicy>(0));
  add_fat_answer(auth, 80);
  auto& client = bed.add_client("Chicago");
  // 4096-byte EDNS buffer: the same answer fits.
  const auto response = client.query(bed.auth_address(auth), n("big.fat.com"),
                                     dnscore::RRType::A);
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->header.tc);
  EXPECT_EQ(response->answers.size(), 80u);
}

TEST(Truncation, TcpExchangeSkipsTruncation) {
  Testbed bed;
  auto& auth = bed.add_auth("fat", n("fat.com"), "Ashburn",
                            std::make_unique<ScopeDeltaPolicy>(0));
  add_fat_answer(auth, 80);
  auto& client = bed.add_client("Chicago");
  Message q = Message::make_query(1, n("big.fat.com"), dnscore::RRType::A);
  const auto before = bed.network().now();
  const auto wire = bed.network().round_trip(
      client.address(), bed.auth_address(auth), q.serialize(), /*tcp=*/true);
  ASSERT_TRUE(wire.has_value());
  const Message response = Message::parse({wire->data(), wire->size()});
  EXPECT_FALSE(response.header.tc);
  EXPECT_EQ(response.answers.size(), 80u);
  // TCP costs one extra RTT (the handshake) over plain UDP.
  const auto elapsed = bed.network().now() - before;
  const auto rtt =
      bed.network().rtt_between(client.address(), bed.auth_address(auth));
  EXPECT_EQ(elapsed, 2 * rtt);
}

TEST(Truncation, ResolverRetriesOverTcpTransparently) {
  Testbed bed;
  auto& auth = bed.add_auth("fat", n("fat.com"), "Ashburn",
                            std::make_unique<ScopeDeltaPolicy>(0));
  add_fat_answer(auth, 300);  // > 4096 bytes even with EDNS
  auto& resolver = bed.add_resolver(ResolverConfig::correct(), "Chicago");
  Message q = Message::make_query(1, n("big.fat.com"), dnscore::RRType::A);
  q.opt = dnscore::OptRecord{};
  const auto r =
      resolver.handle_client_query(q, IpAddress::parse("100.64.1.5"));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->header.rcode, RCode::NOERROR);
  EXPECT_EQ(r->answers.size(), 300u);
  EXPECT_FALSE(r->header.tc);
}

// A hostile double at `addr`: every UDP reply is truncated yet still
// carries a bogus answer, and every TCP retry times out. Counts both.
struct TruncatingServer {
  int udp_queries = 0;
  int tcp_queries = 0;
};

const IpAddress kBogus = IpAddress::v4(203, 0, 113, 66);

void attach_truncating(Testbed& bed, const IpAddress& addr, TruncatingServer& stats) {
  bed.network().attach(
      addr, bed.world().city("Ashburn").location,
      [&stats](const netsim::Datagram& d) -> std::optional<std::vector<std::uint8_t>> {
        if (d.via_tcp) {
          ++stats.tcp_queries;
          return std::nullopt;
        }
        ++stats.udp_queries;
        const Message query = Message::parse(d.payload);
        Message response = Message::make_response(query);
        response.header.aa = true;
        response.header.tc = true;
        response.answers.push_back(
            ResourceRecord::make_a(query.question().qname, 60, kBogus));
        return response.serialize();
      });
}

authoritative::Zone& com_zone(Testbed& bed) {
  for (const auto& server : bed.auth_servers()) {
    auto* zone = server->find_zone(n("com"));
    if (zone != nullptr && zone->apex() == n("com")) return *zone;
  }
  throw std::logic_error("no com TLD in the testbed");
}

Message ask(RecursiveResolver& resolver, const char* qname) {
  Message q = Message::make_query(1, n(qname), RRType::A);
  q.opt = dnscore::OptRecord{};
  const auto r = resolver.handle_client_query(q, IpAddress::parse("100.64.1.5"));
  EXPECT_TRUE(r.has_value());
  return r.value_or(Message{});
}

TEST(Truncation, TcpTimeoutAfterTcFallsThroughToTheNextServer) {
  Testbed bed;
  auto& healthy = bed.add_auth("healthy", n("tc.com"), "Ashburn",
                               std::make_unique<ScopeDeltaPolicy>(0));
  healthy.find_zone(n("tc.com"))
      ->add(ResourceRecord::make_a(n("www.tc.com"), 60, IpAddress::v4(192, 0, 2, 7)));
  auto& hostile = bed.add_auth("hostile", n("tc2.com"), "Ashburn",
                               std::make_unique<ScopeDeltaPolicy>(0));
  const IpAddress hostile_addr = bed.auth_address(hostile);
  TruncatingServer stats;
  attach_truncating(bed, hostile_addr, stats);
  // Delegate tc.com to both servers, the hostile one first: neither has an
  // RTT estimate yet, so the resolver tries them in referral order.
  const Name ns0 = n("ns0.tc.com");
  const Name ns1 = n("ns1.tc.com");
  com_zone(bed).delegate(
      n("tc.com"),
      {ResourceRecord::make_ns(n("tc.com"), 86400, ns0),
       ResourceRecord::make_ns(n("tc.com"), 86400, ns1)},
      {ResourceRecord::make_a(ns0, 86400, hostile_addr),
       ResourceRecord::make_a(ns1, 86400, bed.auth_address(healthy))});

  auto& resolver = bed.add_resolver(ResolverConfig::correct(), "Chicago");
  const Message r = ask(resolver, "www.tc.com");
  EXPECT_GT(stats.udp_queries, 0);
  EXPECT_GT(stats.tcp_queries, 0);
  EXPECT_EQ(r.header.rcode, RCode::NOERROR);
  EXPECT_FALSE(r.header.tc);
  ASSERT_EQ(r.answers.size(), 1u);
  EXPECT_EQ(std::get<dnscore::ARdata>(r.answers[0].rdata).address,
            IpAddress::v4(192, 0, 2, 7));
}

TEST(Truncation, TcpTimeoutAfterTcNeverCachesTheTruncatedAnswer) {
  Testbed bed;
  auto& auth = bed.add_auth("hostile", n("tc.com"), "Ashburn",
                            std::make_unique<ScopeDeltaPolicy>(0));
  TruncatingServer stats;
  attach_truncating(bed, bed.auth_address(auth), stats);

  auto& resolver = bed.add_resolver(ResolverConfig::correct(), "Chicago");
  const Message r = ask(resolver, "www.tc.com");
  EXPECT_GT(stats.tcp_queries, 0);
  EXPECT_EQ(r.header.rcode, RCode::SERVFAIL);
  EXPECT_FALSE(r.header.tc);
  EXPECT_TRUE(r.answers.empty());
  EXPECT_EQ(resolver.cache().entries_for(n("www.tc.com"), RRType::A,
                                         bed.network().now()),
            0u);
}

}  // namespace
}  // namespace ecsdns::resolver
