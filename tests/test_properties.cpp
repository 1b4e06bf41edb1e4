// Cross-cutting property tests: ordering laws, hash/equality consistency,
// a zone-lookup reference model, event-loop stress, and reverse pointers.
#include <gtest/gtest.h>

#include <map>

#include "authoritative/zone.h"
#include "dnscore/ip.h"
#include "dnscore/name.h"
#include "netsim/event_loop.h"
#include "netsim/rng.h"

namespace ecsdns {
namespace {

using dnscore::IpAddress;
using dnscore::Name;
using dnscore::Prefix;

std::vector<Name> random_names(netsim::Rng& rng, std::size_t count) {
  const std::vector<std::string> labels = {"a", "b", "ab", "A", "zz", "m3"};
  std::vector<Name> out;
  for (std::size_t i = 0; i < count; ++i) {
    Name n;
    const std::size_t depth = rng.uniform(4);
    for (std::size_t d = 0; d < depth; ++d) n = n.prepend(rng.pick(labels));
    out.push_back(std::move(n));
  }
  return out;
}

TEST(NameOrdering, IsAStrictWeakOrder) {
  netsim::Rng rng(5);
  const auto names = random_names(rng, 40);
  for (const auto& a : names) {
    EXPECT_FALSE(a < a);  // irreflexive
    for (const auto& b : names) {
      // Antisymmetric; and exactly one of <, >, == holds.
      const int relations = (a < b) + (b < a) + (a == b);
      EXPECT_EQ(relations, 1) << a.to_string() << " vs " << b.to_string();
      if (a == b) {
        EXPECT_EQ(a.hash(), b.hash());  // hash consistency
      }
      for (const auto& c : names) {
        if (a < b && b < c) {
          EXPECT_TRUE(a < c);  // transitive
        }
      }
    }
  }
}

TEST(PrefixProperties, EqualityImpliesEqualHashAndMutualContainment) {
  netsim::Rng rng(6);
  for (int i = 0; i < 2000; ++i) {
    const auto addr_a = IpAddress::v4(static_cast<std::uint32_t>(rng.next_u64()));
    const auto addr_b = IpAddress::v4(static_cast<std::uint32_t>(rng.next_u64()));
    const int len = static_cast<int>(rng.uniform(33));
    const Prefix a{addr_a, len};
    const Prefix b{addr_b, len};
    if (a == b) {
      EXPECT_EQ(a.hash(), b.hash());
      EXPECT_TRUE(a.contains(b) && b.contains(a));
    }
    // Containment is consistent with truncation.
    EXPECT_EQ(a.contains(addr_b), dnscore::truncate_address(addr_b, len) == a.address());
  }
}

TEST(ReversePointer, V4AndV6Forms) {
  EXPECT_EQ(dnscore::reverse_pointer_name(IpAddress::parse("192.0.2.53")),
            "53.2.0.192.in-addr.arpa");
  EXPECT_EQ(dnscore::reverse_pointer_name(IpAddress::parse("2001:db8::567:89ab")),
            "b.a.9.8.7.6.5.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.8.b.d.0.1.0.0.2."
            "ip6.arpa");
  // The generated text is a valid Name.
  EXPECT_NO_THROW(Name::from_string(
      dnscore::reverse_pointer_name(IpAddress::parse("2001:db8::1"))));
}

// Reference model for zone lookups: a flat record list plus brute-force
// delegation-cut search.
TEST(ZoneModel, LookupAgreesWithBruteForce) {
  using authoritative::Zone;
  using authoritative::ZoneLookup;
  netsim::Rng rng(7);
  const Name apex = Name::from_string("example.com");

  Zone zone(apex);
  std::map<std::string, std::vector<dnscore::RRType>> records;
  const std::vector<std::string> owners = {
      "example.com", "www.example.com", "api.example.com", "a.www.example.com"};
  for (const auto& owner : owners) {
    if (rng.chance(0.8)) {
      zone.add(dnscore::ResourceRecord::make_a(Name::from_string(owner), 60,
                                               IpAddress::parse("1.2.3.4")));
      records[owner].push_back(dnscore::RRType::A);
    }
    if (rng.chance(0.3)) {
      zone.add(dnscore::ResourceRecord::make_txt(Name::from_string(owner), 60, "x"));
      records[owner].push_back(dnscore::RRType::TXT);
    }
  }
  zone.delegate(Name::from_string("sub.example.com"),
                {dnscore::ResourceRecord::make_ns(Name::from_string("sub.example.com"),
                                                  3600,
                                                  Name::from_string("ns1.sub.example.com"))},
                {});

  const std::vector<std::string> queries = {
      "example.com",       "www.example.com",  "api.example.com",
      "a.www.example.com", "nope.example.com", "deep.sub.example.com",
      "sub.example.com",   "other.net"};
  for (const auto& qtext : queries) {
    const Name qname = Name::from_string(qtext);
    const auto got = zone.lookup_ref(qname, dnscore::RRType::A);
    // Brute-force expectation:
    ZoneLookup::Kind want;
    if (!qname.is_subdomain_of(apex)) {
      want = ZoneLookup::Kind::kNotInZone;
    } else if (qname.is_subdomain_of(Name::from_string("sub.example.com"))) {
      want = ZoneLookup::Kind::kDelegation;
    } else if (records.count(qtext) == 0) {
      want = ZoneLookup::Kind::kNxDomain;
    } else {
      const auto& types = records[qtext];
      want = std::count(types.begin(), types.end(), dnscore::RRType::A) > 0
                 ? ZoneLookup::Kind::kAnswer
                 : ZoneLookup::Kind::kNoData;
    }
    EXPECT_EQ(static_cast<int>(got.kind), static_cast<int>(want)) << qtext;
  }
}

TEST(EventLoopStress, ThousandsOfInterleavedEventsStayOrdered) {
  netsim::EventLoop loop;
  netsim::Rng rng(8);
  netsim::SimTime last_seen = -1;
  int fired = 0;
  // Seed events; each firing may schedule up to two more in the future.
  std::function<void(int)> handler = [&](int depth) {
    ++fired;
    EXPECT_GE(loop.now(), last_seen);
    last_seen = loop.now();
    if (depth <= 0) return;
    const int children = static_cast<int>(rng.uniform(3));
    for (int i = 0; i < children; ++i) {
      loop.schedule_in(static_cast<netsim::SimTime>(rng.uniform(1000) + 1),
                       [&handler, depth] { handler(depth - 1); });
    }
  };
  for (int i = 0; i < 200; ++i) {
    loop.schedule_at(static_cast<netsim::SimTime>(rng.uniform(5000)),
                     [&handler] { handler(6); });
  }
  loop.run();
  EXPECT_GT(fired, 200);
  EXPECT_TRUE(loop.empty());
}

}  // namespace
}  // namespace ecsdns
