// ECS cache semantics (RFC 7871 §7.3): scope-keyed entries, longest-prefix
// preference, TTL expiry, and the statistics the §7 analysis reads.
#include <gtest/gtest.h>

#include "resolver/cache.h"

namespace ecsdns::resolver {
namespace {

using dnscore::IpAddress;
using dnscore::Name;
using dnscore::Prefix;
using dnscore::ResourceRecord;
using netsim::kSecond;

const Name kQname = Name::from_string("www.example.com");

std::vector<ResourceRecord> answer(const char* ip) {
  return {ResourceRecord::make_a(kQname, 20, IpAddress::parse(ip))};
}

TEST(EcsCache, MissOnEmpty) {
  EcsCache cache;
  EXPECT_EQ(cache.lookup(kQname, RRType::A, IpAddress::parse("1.2.3.4"), 0), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(EcsCache, ScopedEntryMatchesOnlyCoveredClients) {
  EcsCache cache;
  cache.insert(kQname, RRType::A, Prefix::parse("1.2.3.0/24"), 24, answer("9.9.9.1"),
               0, 20 * kSecond);
  EXPECT_NE(cache.lookup(kQname, RRType::A, IpAddress::parse("1.2.3.77"), 1), nullptr);
  EXPECT_EQ(cache.lookup(kQname, RRType::A, IpAddress::parse("1.2.4.1"), 1), nullptr);
  // Same /16, different /24 -> still a miss.
  EXPECT_EQ(cache.lookup(kQname, RRType::A, IpAddress::parse("1.2.9.1"), 1), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(EcsCache, GlobalEntryMatchesAnyClient) {
  EcsCache cache;
  cache.insert(kQname, RRType::A, Prefix{}, 0, answer("9.9.9.1"), 0, 20 * kSecond);
  EXPECT_NE(cache.lookup(kQname, RRType::A, IpAddress::parse("8.8.8.8"), 1), nullptr);
  EXPECT_NE(cache.lookup(kQname, RRType::A, IpAddress::parse("2001:db8::1"), 1),
            nullptr);
  EXPECT_NE(cache.lookup(kQname, RRType::A, std::nullopt, 1), nullptr);
}

TEST(EcsCache, NulloptClientOnlyMatchesGlobal) {
  EcsCache cache;
  cache.insert(kQname, RRType::A, Prefix::parse("1.2.3.0/24"), 24, answer("9.9.9.1"),
               0, 20 * kSecond);
  EXPECT_EQ(cache.lookup(kQname, RRType::A, std::nullopt, 1), nullptr);
}

TEST(EcsCache, PrefersMostSpecificCoveringEntry) {
  EcsCache cache;
  cache.insert(kQname, RRType::A, Prefix{}, 0, answer("1.1.1.1"), 0, 60 * kSecond);
  cache.insert(kQname, RRType::A, Prefix::parse("1.2.0.0/16"), 16, answer("2.2.2.2"),
               0, 60 * kSecond);
  cache.insert(kQname, RRType::A, Prefix::parse("1.2.3.0/24"), 24, answer("3.3.3.3"),
               0, 60 * kSecond);
  const auto* hit = cache.lookup(kQname, RRType::A, IpAddress::parse("1.2.3.4"), 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->network.length(), 24);
  const auto* hit16 = cache.lookup(kQname, RRType::A, IpAddress::parse("1.2.9.9"), 1);
  ASSERT_NE(hit16, nullptr);
  EXPECT_EQ(hit16->network.length(), 16);
  const auto* hit0 = cache.lookup(kQname, RRType::A, IpAddress::parse("9.9.9.9"), 1);
  ASSERT_NE(hit0, nullptr);
  EXPECT_EQ(hit0->network.length(), 0);  // the global entry
}

TEST(EcsCache, DistinctSubnetsCoexist) {
  EcsCache cache;
  cache.insert(kQname, RRType::A, Prefix::parse("1.2.3.0/24"), 24, answer("1.1.1.1"),
               0, 60 * kSecond);
  cache.insert(kQname, RRType::A, Prefix::parse("5.6.7.0/24"), 24, answer("2.2.2.2"),
               0, 60 * kSecond);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.entries_for(kQname, RRType::A, 1), 2u);
  // Re-inserting the same network replaces rather than duplicates.
  cache.insert(kQname, RRType::A, Prefix::parse("1.2.3.0/24"), 24, answer("3.3.3.3"),
               0, 60 * kSecond);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(EcsCache, TtlExpiry) {
  EcsCache cache;
  cache.insert(kQname, RRType::A, Prefix::parse("1.2.3.0/24"), 24, answer("1.1.1.1"),
               0, 20 * kSecond);
  EXPECT_NE(cache.lookup(kQname, RRType::A, IpAddress::parse("1.2.3.4"),
                         19 * kSecond),
            nullptr);
  EXPECT_EQ(cache.lookup(kQname, RRType::A, IpAddress::parse("1.2.3.4"),
                         20 * kSecond),
            nullptr);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().expired_evictions, 1u);
}

TEST(EcsCache, PurgeExpired) {
  EcsCache cache;
  cache.insert(kQname, RRType::A, Prefix::parse("1.2.3.0/24"), 24, answer("1.1.1.1"),
               0, 20 * kSecond);
  cache.insert(kQname, RRType::A, Prefix::parse("5.6.7.0/24"), 24, answer("2.2.2.2"),
               0, 60 * kSecond);
  cache.purge_expired(30 * kSecond);
  EXPECT_EQ(cache.size(), 1u);
}

// Regression: a scoped hit used to break out of the bucket walk before the
// expired-entry sweep ran, so entries that expired under a lookup stayed in
// size() (and in memory) until the next purge_expired(). The sweep must run
// on the hit path too.
TEST(EcsCache, ExpiryOnLookupSweepsEvenWhenAShorterEntryHits) {
  EcsCache cache;
  // Two /24 entries that expire together, and a covering /16 that outlives
  // them. The client matches one expired /24 and the live /16.
  cache.insert(kQname, RRType::A, Prefix::parse("10.1.1.0/24"), 24,
               answer("1.1.1.1"), 0, 20 * kSecond);
  cache.insert(kQname, RRType::A, Prefix::parse("10.1.2.0/24"), 24,
               answer("2.2.2.2"), 0, 20 * kSecond);
  cache.insert(kQname, RRType::A, Prefix::parse("10.1.0.0/16"), 16,
               answer("3.3.3.3"), 0, 60 * kSecond);
  EXPECT_EQ(cache.size(), 3u);

  const CacheEntry* hit =
      cache.lookup(kQname, RRType::A, IpAddress::parse("10.1.1.5"), 30 * kSecond);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->network, Prefix::parse("10.1.0.0/16"));
  // Both expired /24s were swept during the lookup, not just the probed one.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().expired_evictions, 2u);
  EXPECT_EQ(cache.entries_for(kQname, RRType::A, 30 * kSecond), 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

// purge_expired sweeps every question and scope length in place: each
// expired entry leaves exactly once, every survivor stays findable, and
// freed slots are reused without disturbing the live chains around them.
TEST(EcsCache, PurgeSweepsEachExpiredEntryExactlyOnce) {
  EcsCache cache;
  const Name names[] = {Name::from_string("a.example.com"),
                        Name::from_string("b.example.com"),
                        Name::from_string("c.example.com")};
  constexpr int kLengths[] = {16, 24, 32};
  std::size_t short_lived = 0;
  for (int i = 0; i < 72; ++i) {
    const int length = kLengths[i % 3];
    const bool expires = i % 2 == 0;
    short_lived += expires;
    cache.insert(names[i / 24], RRType::A,
                 Prefix{IpAddress::v4(10, static_cast<std::uint8_t>(i), 0, 1), length},
                 static_cast<std::uint8_t>(length), answer("1.1.1.1"), 0,
                 (expires ? 10 : 60) * kSecond);
  }
  cache.purge_expired(30 * kSecond);
  EXPECT_EQ(cache.stats().expired_evictions, short_lived);
  EXPECT_EQ(cache.size(), 72u - short_lived);
  cache.purge_expired(30 * kSecond);
  EXPECT_EQ(cache.stats().expired_evictions, short_lived);
  for (const Name& name : names) {
    EXPECT_EQ(cache.entries_for(name, RRType::A, 30 * kSecond), 12u);
  }
  // Reinsert into the freed slots, then check every entry answers for its
  // own block.
  for (int i = 0; i < 72; i += 2) {
    cache.insert(names[i / 24], RRType::A,
                 Prefix{IpAddress::v4(10, static_cast<std::uint8_t>(i), 0, 1),
                        kLengths[i % 3]},
                 static_cast<std::uint8_t>(kLengths[i % 3]), answer("2.2.2.2"),
                 30 * kSecond, 60 * kSecond);
  }
  for (int i = 0; i < 72; ++i) {
    const CacheEntry* hit =
        cache.lookup(names[i / 24], RRType::A,
                     IpAddress::v4(10, static_cast<std::uint8_t>(i), 0, 1), 31 * kSecond);
    ASSERT_NE(hit, nullptr) << i;
    EXPECT_EQ(hit->network.length(), kLengths[i % 3]) << i;
    EXPECT_EQ(hit->records, answer(i % 2 == 0 ? "2.2.2.2" : "1.1.1.1")) << i;
  }
  EXPECT_EQ(cache.size(), 72u);
  EXPECT_EQ(cache.stats().insertions, cache.stats().accounted_insertions(cache.size()));
}

TEST(EcsCache, TracksMaxEntries) {
  EcsCache cache;
  for (int i = 0; i < 10; ++i) {
    cache.insert(kQname, RRType::A,
                 Prefix{IpAddress::v4(1, 2, static_cast<std::uint8_t>(i), 0), 24}, 24,
                 answer("1.1.1.1"), 0, 20 * kSecond);
  }
  EXPECT_EQ(cache.stats().max_entries, 10u);
  cache.purge_expired(100 * kSecond);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().max_entries, 10u);  // high-water mark persists
}

TEST(EcsCache, SeparateQuestionsSeparateEntries) {
  EcsCache cache;
  const Name other = Name::from_string("other.example.com");
  cache.insert(kQname, RRType::A, Prefix{}, 0, answer("1.1.1.1"), 0, 60 * kSecond);
  cache.insert(other, RRType::A, Prefix{}, 0, answer("2.2.2.2"), 0, 60 * kSecond);
  cache.insert(kQname, RRType::AAAA, Prefix{}, 0, {}, 0, 60 * kSecond);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.lookup(other, RRType::AAAA, std::nullopt, 1), nullptr);
  EXPECT_NE(cache.lookup(other, RRType::A, std::nullopt, 1), nullptr);
}

TEST(EcsCache, ClearResetsEntriesButKeepsStats) {
  EcsCache cache;
  cache.insert(kQname, RRType::A, Prefix{}, 0, answer("1.1.1.1"), 0, 60 * kSecond);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().insertions, 1u);
  cache.reset_stats();
  EXPECT_EQ(cache.stats().insertions, 0u);
}

// Regression: a TTL-0 answer must not be cached at all (RFC 1035 §3.2.1,
// RFC 7871 §7.3.1) — it used to be inserted already-expired, inflating
// insertions/size until the next sweep.
TEST(EcsCache, TtlZeroAnswersAreNotCached) {
  EcsCache cache;
  cache.insert(kQname, RRType::A, Prefix::parse("1.2.3.0/24"), 24, answer("1.1.1.1"),
               5 * kSecond, 0);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
  EXPECT_EQ(cache.stats().ttl_zero_skips, 1u);
  EXPECT_EQ(cache.lookup(kQname, RRType::A, IpAddress::parse("1.2.3.4"), 5 * kSecond),
            nullptr);
}

// Regression: clear() used to zero live_entries_ without recording where
// the entries went, breaking the accounting identity
// insertions == live + expired + capacity + cleared + replacements.
TEST(EcsCache, ClearCountsDroppedEntries) {
  EcsCache cache;
  cache.insert(kQname, RRType::A, Prefix::parse("1.2.3.0/24"), 24, answer("1.1.1.1"),
               0, 20 * kSecond);
  cache.insert(kQname, RRType::A, Prefix::parse("5.6.7.0/24"), 24, answer("2.2.2.2"),
               0, 60 * kSecond);
  // One entry expires (counted), one same-network insert replaces (counted).
  cache.purge_expired(30 * kSecond);
  cache.insert(kQname, RRType::A, Prefix::parse("5.6.7.0/24"), 24, answer("3.3.3.3"),
               30 * kSecond, 60 * kSecond);
  cache.clear();
  EXPECT_EQ(cache.stats().cleared_entries, 1u);
  EXPECT_EQ(cache.stats().expired_evictions, 1u);
  EXPECT_EQ(cache.stats().replacements, 1u);
  EXPECT_EQ(cache.stats().insertions, cache.stats().accounted_insertions(cache.size()));
  // The identity keeps holding once the cache is reused after clear().
  cache.insert(kQname, RRType::A, Prefix{}, 0, answer("4.4.4.4"), 40 * kSecond,
               60 * kSecond);
  EXPECT_EQ(cache.stats().insertions, cache.stats().accounted_insertions(cache.size()));
}

// Regression for the hazard documented on lookup(): the returned pointer
// aims into flat open-addressing storage and dies on the next insert (the
// table may rehash/relocate). Callers must copy what they need before
// mutating the cache — this test reads only copied fields after inserts
// that force a rehash, so a stale-pointer read in the pattern under test
// would be flagged by ASan.
TEST(EcsCache, HitSurvivesSubsequentInsertsViaCopy) {
  EcsCache cache;
  cache.insert(kQname, RRType::A, Prefix::parse("1.2.3.0/24"), 24, answer("9.9.9.1"),
               0, 600 * kSecond);
  const CacheEntry* hit =
      cache.lookup(kQname, RRType::A, IpAddress::parse("1.2.3.4"), kSecond);
  ASSERT_NE(hit, nullptr);
  // Copy out, then drop the pointer — the fix applied in recursive.cpp.
  const std::vector<ResourceRecord> records = hit->records;
  const netsim::SimTime expiry = hit->expiry;
  const std::uint8_t echo_scope = hit->scope;
  hit = nullptr;
  // Grow the same bucket far past its initial capacity to force relocation.
  for (int i = 0; i < 64; ++i) {
    cache.insert(kQname, RRType::A,
                 Prefix{IpAddress::v4(9, 9, static_cast<std::uint8_t>(i), 0), 24}, 24,
                 answer("9.9.9.2"), kSecond, 600 * kSecond);
  }
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], ResourceRecord::make_a(kQname, 20, IpAddress::parse("9.9.9.1")));
  EXPECT_EQ(expiry, 600 * kSecond);
  EXPECT_EQ(echo_scope, 24);
  // The original entry is still servable after the churn.
  EXPECT_NE(cache.lookup(kQname, RRType::A, IpAddress::parse("1.2.3.4"), 2 * kSecond),
            nullptr);
}

TEST(EcsCacheStats, HitRate) {
  CacheStats s;
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.0);
  s.hits = 3;
  s.misses = 1;
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.75);
}

// Property: an entry inserted for a /N block answers exactly the clients in
// that block, across every scope length.
class CacheScopeSweep : public ::testing::TestWithParam<int> {};

TEST_P(CacheScopeSweep, BlockBoundariesRespected) {
  const int scope = GetParam();
  EcsCache cache;
  const auto base = IpAddress::parse("172.20.154.200");
  cache.insert(kQname, RRType::A, Prefix{base, scope},
               static_cast<std::uint8_t>(scope), answer("1.1.1.1"), 0, 60 * kSecond);
  // The base address always matches.
  EXPECT_NE(cache.lookup(kQname, RRType::A, base, 1), nullptr);
  if (scope > 0) {
    // Flip the last bit *inside* the prefix to leave the block.
    auto bytes = base.bytes();
    const int bit = scope - 1;
    bytes[static_cast<std::size_t>(bit / 8)] ^=
        static_cast<std::uint8_t>(0x80 >> (bit % 8));
    const auto outside = IpAddress::v4(bytes[0], bytes[1], bytes[2], bytes[3]);
    EXPECT_EQ(cache.lookup(kQname, RRType::A, outside, 1), nullptr) << scope;
  }
}

INSTANTIATE_TEST_SUITE_P(Scopes, CacheScopeSweep, ::testing::Range(0, 33));

}  // namespace
}  // namespace ecsdns::resolver
