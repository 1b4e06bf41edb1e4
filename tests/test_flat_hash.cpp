// FlatHashMap correctness: randomized equivalence against std::unordered_map
// plus targeted probes of the open-addressing mechanics (backward-shift
// deletion, growth, wrap-around runs).
#include "dnscore/flat_hash.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "dnscore/hashing.h"
#include "netsim/rng.h"

namespace {

using ecsdns::dnscore::FlatHashMap;

struct U64Hash {
  std::size_t operator()(std::uint64_t v) const noexcept {
    return static_cast<std::size_t>(ecsdns::dnscore::mix64(v));
  }
};

// Adversarial hash: collapses keys onto a handful of home slots so probe
// runs get long and deletions must shift across them.
struct ClusteredHash {
  std::size_t operator()(std::uint64_t v) const noexcept { return v % 3; }
};

TEST(FlatHash, InsertFindErase) {
  FlatHashMap<std::uint64_t, std::string, U64Hash> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(7u), nullptr);
  EXPECT_FALSE(map.erase(7u));

  EXPECT_TRUE(map.insert_or_assign(7u, std::string("seven")).second);
  EXPECT_FALSE(map.insert_or_assign(7u, std::string("VII")).second);
  ASSERT_NE(map.find(7u), nullptr);
  EXPECT_EQ(*map.find(7u), "VII");
  EXPECT_EQ(map.size(), 1u);

  EXPECT_TRUE(map.erase(7u));
  EXPECT_EQ(map.find(7u), nullptr);
  EXPECT_TRUE(map.empty());
}

TEST(FlatHash, OperatorIndexDefaultConstructs) {
  FlatHashMap<std::uint64_t, std::uint64_t, U64Hash> map;
  EXPECT_EQ(map[42u], 0u);
  map[42u] = 9u;
  EXPECT_EQ(map[42u], 9u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHash, GrowthPreservesEntries) {
  FlatHashMap<std::uint64_t, std::uint64_t, U64Hash> map;
  for (std::uint64_t i = 0; i < 1000; ++i) map.insert_or_assign(i, i * i);
  EXPECT_EQ(map.size(), 1000u);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_NE(map.find(i), nullptr) << i;
    EXPECT_EQ(*map.find(i), i * i);
  }
  EXPECT_EQ(map.find(1000u), nullptr);
}

TEST(FlatHash, ReserveAvoidsIncrementalGrowth) {
  FlatHashMap<std::uint64_t, std::uint64_t, U64Hash> map;
  map.reserve(100);
  const std::size_t cap = map.capacity();
  EXPECT_GE(cap * 3, 100u * 4);  // load factor 3/4 honored
  for (std::uint64_t i = 0; i < 100; ++i) map.insert_or_assign(i, i);
  EXPECT_EQ(map.capacity(), cap);
}

// Backward-shift deletion must relink probe runs: keys that collide into
// one cluster stay findable no matter which of them is deleted.
TEST(FlatHash, BackwardShiftKeepsClusterReachable) {
  for (std::uint64_t doomed = 0; doomed < 6; ++doomed) {
    FlatHashMap<std::uint64_t, std::uint64_t, ClusteredHash> map;
    for (std::uint64_t i = 0; i < 6; ++i) map.insert_or_assign(i, i + 100);
    EXPECT_TRUE(map.erase(doomed));
    for (std::uint64_t i = 0; i < 6; ++i) {
      if (i == doomed) {
        EXPECT_EQ(map.find(i), nullptr);
      } else {
        ASSERT_NE(map.find(i), nullptr) << "doomed=" << doomed << " lost " << i;
        EXPECT_EQ(*map.find(i), i + 100);
      }
    }
  }
}

// for_each visits every live entry exactly once, including after
// deletions have backward-shifted survivors into the freed slots.
TEST(FlatHash, ForEachVisitsEveryLiveEntry) {
  FlatHashMap<std::uint64_t, std::uint64_t, U64Hash> map;
  for (std::uint64_t i = 0; i < 64; ++i) map.insert_or_assign(i, i);
  for (std::uint64_t i = 0; i < 64; i += 2) EXPECT_TRUE(map.erase(i));
  EXPECT_EQ(map.size(), 32u);
  std::uint64_t sum = 0;
  std::size_t seen = 0;
  map.for_each([&](const auto& slot) {
    EXPECT_EQ(slot.key % 2, 1u);
    sum += slot.value;
    ++seen;
  });
  EXPECT_EQ(seen, 32u);
  EXPECT_EQ(sum, 1024u);  // 1 + 3 + ... + 63
}

TEST(FlatHash, ClearThenReuse) {
  FlatHashMap<std::uint64_t, std::uint64_t, U64Hash> map;
  for (std::uint64_t i = 0; i < 100; ++i) map.insert_or_assign(i, i);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(5u), nullptr);
  map.insert_or_assign(5u, 55u);
  EXPECT_EQ(*map.find(5u), 55u);
}

TEST(FlatHash, MoveTransfersContents) {
  FlatHashMap<std::uint64_t, std::string, U64Hash> a;
  a.insert_or_assign(1u, std::string("one"));
  FlatHashMap<std::uint64_t, std::string, U64Hash> b(std::move(a));
  ASSERT_NE(b.find(1u), nullptr);
  EXPECT_EQ(*b.find(1u), "one");
  FlatHashMap<std::uint64_t, std::string, U64Hash> c;
  c.insert_or_assign(9u, std::string("nine"));
  c = std::move(b);
  EXPECT_EQ(c.size(), 1u);
  ASSERT_NE(c.find(1u), nullptr);
  EXPECT_EQ(c.find(9u), nullptr);
}

// Randomized churn against std::unordered_map as the oracle: a mixed
// stream of inserts, overwrites, erases, and lookups over a small key
// universe (to force collisions and re-insertion after deletion).
TEST(FlatHash, RandomizedEquivalenceWithStdMap) {
  ecsdns::netsim::Rng rng(0xf1a7f1a7u);
  FlatHashMap<std::uint64_t, std::uint64_t, U64Hash> map;
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = rng.uniform(512);
    switch (rng.uniform(4)) {
      case 0:
      case 1: {  // insert_or_assign
        const std::uint64_t value = rng.next_u64();
        const bool inserted = map.insert_or_assign(key, value).second;
        const bool oracle_inserted = oracle.insert_or_assign(key, value).second;
        ASSERT_EQ(inserted, oracle_inserted) << "step " << step;
        break;
      }
      case 2: {  // erase
        ASSERT_EQ(map.erase(key), oracle.erase(key) > 0) << "step " << step;
        break;
      }
      default: {  // find
        const auto it = oracle.find(key);
        const std::uint64_t* found = map.find(key);
        ASSERT_EQ(found != nullptr, it != oracle.end()) << "step " << step;
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second) << "step " << step;
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), oracle.size()) << "step " << step;
  }
  // Full sweep: every surviving entry matches, nothing extra.
  std::size_t seen = 0;
  map.for_each([&](const auto& slot) {
    const auto it = oracle.find(slot.key);
    ASSERT_NE(it, oracle.end()) << slot.key;
    EXPECT_EQ(slot.value, it->second);
    ++seen;
  });
  EXPECT_EQ(seen, oracle.size());
}

// Heterogeneous lookup must agree with find() as long as the caller passes
// the same raw hash the Hash functor would produce — including raw hash 0,
// which the table remaps internally.
TEST(FlatHash, FindWithMatchesFind) {
  FlatHashMap<std::uint64_t, std::uint64_t, U64Hash> map;
  for (std::uint64_t i = 0; i < 100; ++i) map.insert_or_assign(i, i * 3);
  for (std::uint64_t i = 0; i < 120; ++i) {
    const std::uint64_t raw = ecsdns::dnscore::mix64(i);
    const std::uint64_t* direct = map.find(i);
    const std::uint64_t* via_hash =
        map.find_with(raw, [i](std::uint64_t k) { return k == i; });
    ASSERT_EQ(direct, via_hash) << i;
  }
  struct ZeroHash {
    std::size_t operator()(std::uint64_t) const noexcept { return 0; }
  };
  FlatHashMap<std::uint64_t, std::uint64_t, ZeroHash> zero;
  zero.insert_or_assign(5u, 50u);
  const std::uint64_t* found =
      zero.find_with(0, [](std::uint64_t k) { return k == 5u; });
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, 50u);
}

// erase_with under a constant hash: every key shares one home slot, so the
// probe order is the insertion order, and the predicate alone picks the
// entry. It must erase exactly the first match, keep every other key
// reachable across the backward shift, and report a miss.
TEST(FlatHash, EraseWithRemovesFirstMatchInProbeOrder) {
  struct ConstantHash {
    std::size_t operator()(std::uint64_t) const noexcept { return 42; }
  };
  FlatHashMap<std::uint64_t, std::uint64_t, ConstantHash> map;
  // Values: 10 -> 1, 11 -> 2, 12 -> 1, 13 -> 2, 14 -> 1, 15 -> 2.
  for (std::uint64_t k = 10; k < 16; ++k) map.insert_or_assign(k, 1 + k % 2);

  std::vector<std::uint64_t> visited;
  const bool erased = map.erase_with(42, [&](std::uint64_t key, std::uint64_t value) {
    visited.push_back(key);
    return value == 2;
  });
  EXPECT_TRUE(erased);
  // The probe stops at the first match: keys 10 (value 1), then 11.
  EXPECT_EQ(visited, (std::vector<std::uint64_t>{10, 11}));
  EXPECT_EQ(map.size(), 5u);
  EXPECT_EQ(map.find(11u), nullptr);
  for (std::uint64_t k : {10u, 12u, 13u, 14u, 15u}) {
    ASSERT_NE(map.find(k), nullptr) << "lost " << k;
    EXPECT_EQ(*map.find(k), 1 + k % 2);
  }

  // The next match in probe order is 13.
  EXPECT_TRUE(map.erase_with(
      42, [](std::uint64_t, std::uint64_t value) { return value == 2; }));
  EXPECT_EQ(map.find(13u), nullptr);
  ASSERT_NE(map.find(15u), nullptr);
  EXPECT_EQ(map.size(), 4u);

  // No match: by predicate, or by hash (another home, an empty slot).
  EXPECT_FALSE(map.erase_with(
      42, [](std::uint64_t, std::uint64_t value) { return value == 3; }));
  EXPECT_FALSE(map.erase_with(7, [](std::uint64_t, std::uint64_t) { return true; }));
  EXPECT_EQ(map.size(), 4u);
  for (std::uint64_t k : {10u, 12u, 14u, 15u}) ASSERT_NE(map.find(k), nullptr) << k;
}

// insert_absent under a constant hash: every key collides into one probe
// run, which wraps around the table and is rebuilt by each growth. Each
// key must stay findable, size() must count each insert, and erase_with
// must then remove exactly the entry its predicate picks.
TEST(FlatHash, InsertAbsentKeepsEveryKeyThroughGrowthAndCollisions) {
  struct ConstantHash {
    std::size_t operator()(std::uint64_t) const noexcept { return 5; }
  };
  FlatHashMap<std::uint64_t, std::uint64_t, ConstantHash> map;
  constexpr std::uint64_t kKeys = 100;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const auto* slot = map.insert_absent(5, k, k * 10);
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(slot->key, k);
    EXPECT_EQ(slot->value, k * 10);
    ASSERT_EQ(map.size(), k + 1);
    for (std::uint64_t j = 0; j <= k; ++j) {
      const std::uint64_t* found = map.find(j);
      ASSERT_NE(found, nullptr) << "lost " << j << " after inserting " << k;
      ASSERT_EQ(*found, j * 10);
    }
  }
  EXPECT_GE(map.capacity() * 3, kKeys * 4);  // grew past several doublings
  EXPECT_EQ(map.find(kKeys), nullptr);

  EXPECT_TRUE(map.erase_with(
      5, [](std::uint64_t, std::uint64_t value) { return value == 420; }));
  EXPECT_EQ(map.size(), kKeys - 1);
  EXPECT_EQ(map.find(42u), nullptr);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    if (k == 42) continue;
    ASSERT_NE(map.find(k), nullptr) << "lost " << k;
    EXPECT_EQ(*map.find(k), k * 10);
  }

  // A key erased earlier can be placed again, and it lands findable.
  map.insert_absent(5, 42u, 7u);
  ASSERT_NE(map.find(42u), nullptr);
  EXPECT_EQ(*map.find(42u), 7u);
  EXPECT_EQ(map.size(), kKeys);
}

// A hash of exactly 0 must not be mistaken for an empty slot.
TEST(FlatHash, ZeroHashIsStorable) {
  struct ZeroHash {
    std::size_t operator()(std::uint64_t) const noexcept { return 0; }
  };
  FlatHashMap<std::uint64_t, std::uint64_t, ZeroHash> map;
  map.insert_or_assign(1u, 10u);
  map.insert_or_assign(2u, 20u);
  ASSERT_NE(map.find(1u), nullptr);
  ASSERT_NE(map.find(2u), nullptr);
  EXPECT_TRUE(map.erase(1u));
  ASSERT_NE(map.find(2u), nullptr);
  EXPECT_EQ(*map.find(2u), 20u);
}

}  // namespace
