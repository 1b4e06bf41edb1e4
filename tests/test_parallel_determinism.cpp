// The fork-join shard runner and the serial-equivalence oracle.
//
// Two layers of guarantees are exercised here:
//  1. Runner-level determinism: with a fixed shard count, a run_sharded
//     run is bit-identical for any thread count (RNG stream splitting,
//     per-shard registries merged in shard-index order).
//  2. Program-level serial equivalence: the sharded cache replay produces
//     byte-identical results — full CacheSimResult, exported metrics JSON,
//     and the fig2/fig3-style formatted CSV cells — for ANY shard count,
//     including the serial shards=1 path.
#include <gtest/gtest.h>

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "measurement/cache_sim.h"
#include "measurement/stats.h"
#include "measurement/tracegen.h"
#include "netsim/rng.h"
#include "netsim/sharded_runner.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace ecsdns::measurement {
namespace {

using dnscore::IpAddress;
using netsim::RunnerConfig;
using netsim::SimTime;

// ---------------------------------------------------------------------------
// Runner-level tests

TEST(RunSharded, ValidatesConfiguration) {
  obs::MetricsRegistry merged;
  EXPECT_THROW(netsim::run_sharded(0, {}, merged,
                                   [](std::size_t, obs::MetricsRegistry&) {}),
               std::invalid_argument);
}

// A toy program exercising every determinism-relevant runner feature at
// once: per-shard RNG streams, per-shard results, and per-shard metrics.
// The final state must not depend on the worker thread count.
namespace toy {
constexpr std::size_t kShards = 4;

std::pair<std::vector<std::uint64_t>, std::string> run(RunnerConfig config) {
  std::vector<std::uint64_t> results(kShards, 0);
  obs::MetricsRegistry merged;
  netsim::run_sharded(kShards, config, merged,
                      [&results](std::size_t shard, obs::MetricsRegistry& metrics) {
                        netsim::Rng rng = netsim::Rng::stream(99, shard);
                        std::uint64_t hash = 0;
                        for (int i = 0; i < 8; ++i) {
                          const std::uint64_t draw = rng.next_u64();
                          hash = hash * 1099511628211ull ^ draw;
                          metrics.counter("toy.draws").inc();
                          metrics.histogram("toy.draw_low_byte").observe(draw & 0xff);
                        }
                        results[shard] = hash;
                      });
  return {results, obs::metrics_json(merged, "toy", 0.0)};
}

std::pair<std::vector<std::uint64_t>, std::string> run(std::size_t threads) {
  RunnerConfig config;
  config.threads = threads;
  return run(config);
}
}  // namespace toy

// Restricts the calling thread to the lowest CPU in its affinity mask for
// the lifetime of the object; threads it spawns inherit the mask. Where the
// mask cannot be read or set the thread keeps running where it was: the
// tests below assert identical results either way.
class ScopedSingleCpuAffinity {
 public:
  ScopedSingleCpuAffinity() {
    CPU_ZERO(&saved_);
    if (pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) != 0) return;
    for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      restore_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
      return;
    }
  }
  ~ScopedSingleCpuAffinity() {
    if (restore_) pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
  ScopedSingleCpuAffinity(const ScopedSingleCpuAffinity&) = delete;
  ScopedSingleCpuAffinity& operator=(const ScopedSingleCpuAffinity&) = delete;

 private:
  cpu_set_t saved_;
  bool restore_ = false;
};

TEST(RunSharded, ThreadCountNeverChangesResultsOrMetrics) {
  // One thread runs inline in the caller; more spawn workers. Either way
  // the results AND the metrics export are bit-identical.
  const auto baseline = toy::run(1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const auto got = toy::run(threads);
    EXPECT_EQ(got.first, baseline.first) << "threads=" << threads;
    EXPECT_EQ(got.second, baseline.second) << "threads=" << threads;
  }
}

TEST(RunSharded, PinningNeverChangesResultsOrMetrics) {
  // Runs with every worker pinned to one CPU and runs free to migrate, at
  // every thread count, produce bit-identical results AND metrics exports.
  const auto baseline = toy::run(1);
  for (const bool pinned : {false, true}) {
    std::optional<ScopedSingleCpuAffinity> pin;
    if (pinned) pin.emplace();
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      const auto got = toy::run(threads);
      EXPECT_EQ(got.first, baseline.first)
          << "threads=" << threads << " pinned=" << pinned;
      EXPECT_EQ(got.second, baseline.second)
          << "threads=" << threads << " pinned=" << pinned;
    }
  }
}

TEST(RunSharded, RuntimeMetricsAreOptInAndDoNotChangeResults) {
  // Wall-clock metrics (engine.shardN.busy_us, engine.barrier_wait_us) are
  // nondeterministic by nature, so they must be absent by default — the
  // byte-identical metrics contract depends on it — and appear only when
  // asked for, without perturbing the results.
  const auto baseline = toy::run(2);
  EXPECT_EQ(baseline.second.find("engine."), std::string::npos);

  RunnerConfig config;
  config.threads = 2;
  config.runtime_metrics = true;
  const auto timed = toy::run(config);
  EXPECT_EQ(timed.first, baseline.first);
  for (std::size_t i = 0; i < toy::kShards; ++i) {
    EXPECT_NE(timed.second.find("engine.shard" + std::to_string(i) + ".busy_us"),
              std::string::npos)
        << timed.second;
  }
  EXPECT_NE(timed.second.find("engine.barrier_wait_us"), std::string::npos)
      << timed.second;
}

TEST(RunSharded, FirstExceptionByShardIndexIsRethrownAfterEveryShardStops) {
  // Shards 1 and 4 throw; shard 1's exception must surface whichever
  // throws first in wall time, and only after every other shard has run to
  // completion. Nothing is merged from a failed run.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{6}}) {
    std::atomic<int> completed{0};
    obs::MetricsRegistry merged;
    RunnerConfig config;
    config.threads = threads;
    try {
      netsim::run_sharded(6, config, merged,
                          [&completed](std::size_t shard, obs::MetricsRegistry& metrics) {
                            metrics.counter("shard.ran").inc();
                            if (shard == 4) throw std::logic_error("shard 4");
                            std::this_thread::sleep_for(std::chrono::milliseconds(5));
                            if (shard == 1) throw std::runtime_error("shard 1");
                            completed.fetch_add(1);
                          });
      ADD_FAILURE() << "run_sharded returned normally, threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 1") << "threads=" << threads;
    }
    EXPECT_EQ(completed.load(), 4) << "threads=" << threads;
    EXPECT_TRUE(merged.counters().empty()) << "threads=" << threads;
  }
}

TEST(RunSharded, ThreadNamesApplyAndTruncate) {
  netsim::set_current_thread_name("shard-7");
  char buf[32] = {};
  ASSERT_EQ(pthread_getname_np(pthread_self(), buf, sizeof(buf)), 0);
  EXPECT_STREQ(buf, "shard-7");
  // Linux caps names at 15 chars; longer input must truncate, not fail.
  netsim::set_current_thread_name("a-very-long-thread-name-indeed");
  ASSERT_EQ(pthread_getname_np(pthread_self(), buf, sizeof(buf)), 0);
  EXPECT_STREQ(buf, "a-very-long-thr");
}

// ---------------------------------------------------------------------------
// The serial-equivalence oracle

Trace small_all_names_trace() {
  AllNamesConfig config;
  config.clients = 400;
  config.client_subnets = 80;
  config.hostnames = 300;
  config.slds = 60;
  config.queries_per_second = 40.0;
  config.duration = 10 * netsim::kMinute;
  return generate_all_names_trace(config);
}

Trace small_cdn_trace() {
  PublicResolverCdnConfig config;
  config.resolvers = 12;
  config.min_clients_per_resolver = 20;
  config.max_clients_per_resolver = 80;
  config.min_qps = 4.0;
  config.max_qps = 30.0;
  config.hostnames = 120;
  config.duration = 2 * netsim::kMinute;
  return generate_public_resolver_cdn_trace(config);
}

// The single-resolver All-Names trace replays on one shard at any shard
// count; the twelve-resolver CDN trace spreads over every shard.
std::vector<Trace> oracle_traces() {
  std::vector<Trace> traces;
  traces.push_back(small_all_names_trace());
  traces.push_back(small_cdn_trace());
  return traces;
}

CacheSimResult run_sim(const Trace& trace, bool with_ecs,
                       std::optional<std::uint32_t> ttl_override,
                       std::size_t shards, std::size_t threads = 0) {
  CacheSimOptions options;
  options.with_ecs = with_ecs;
  options.ttl_override = ttl_override;
  options.shards = shards;
  options.threads = threads;
  return simulate_cache(trace, options);
}

void expect_identical(const CacheSimResult& a, const CacheSimResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.per_resolver.size(), b.per_resolver.size()) << label;
  for (std::size_t i = 0; i < a.per_resolver.size(); ++i) {
    const auto& x = a.per_resolver[i];
    const auto& y = b.per_resolver[i];
    EXPECT_EQ(x.resolver, y.resolver) << label << " resolver " << i;
    EXPECT_EQ(x.max_cache_size, y.max_cache_size) << label << " resolver " << i;
    EXPECT_EQ(x.hits, y.hits) << label << " resolver " << i;
    EXPECT_EQ(x.misses, y.misses) << label << " resolver " << i;
    EXPECT_EQ(x.premature_evictions, y.premature_evictions)
        << label << " resolver " << i;
  }
}

TEST(ParallelDeterminism, CacheReplayMatchesSerialForEveryShardCount) {
  for (const Trace& trace : oracle_traces()) {
    ASSERT_GT(trace.queries.size(), 1000u);
    for (const bool with_ecs : {true, false}) {
      const CacheSimResult serial = run_sim(trace, with_ecs, std::nullopt, 1);
      for (const std::size_t shards : {2u, 4u, 8u}) {
        expect_identical(serial, run_sim(trace, with_ecs, std::nullopt, shards),
                         "resolvers=" + std::to_string(trace.resolvers) +
                             " ecs=" + std::to_string(with_ecs) +
                             " shards=" + std::to_string(shards));
      }
    }
  }
}

TEST(ParallelDeterminism, CdnTraceBlowupFactorsMatchSerialUnderTtlOverride) {
  const Trace trace = small_cdn_trace();
  for (const std::uint32_t ttl : {20u, 40u, 60u}) {
    // Figure 1's exact pipeline: blow-up factor vectors must match to the
    // last bit (the doubles are quotients of identical integers).
    const auto serial = blowup_factors(trace, ttl, 1);
    const auto sharded = blowup_factors(trace, ttl, 4);
    EXPECT_EQ(serial, sharded) << "ttl=" << ttl;
  }
}

TEST(ParallelDeterminism, RepeatedRunsAndThreadCountsAreIdentical) {
  // The acceptance matrix on the simulation side: a repeated run and
  // threads 1/2/3/4/8 replay the same 4-shard partition bit-identically to
  // the serial fold.
  for (const Trace& trace : oracle_traces()) {
    const CacheSimResult serial = run_sim(trace, true, std::nullopt, 1);
    expect_identical(serial, run_sim(trace, true, std::nullopt, 4), "repeat");
    for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
      expect_identical(serial, run_sim(trace, true, std::nullopt, 4, threads),
                       "resolvers=" + std::to_string(trace.resolvers) +
                           " threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelDeterminism, CacheReplayIdenticalPinnedAndUnpinnedAtEveryThreadCount) {
  // Pinned-vs-unpinned across threads 1/2/4/8 replays the same 4-shard
  // partition bit-identically to the serial fold.
  for (const Trace& trace : oracle_traces()) {
    const CacheSimResult serial = run_sim(trace, true, std::nullopt, 1);
    for (const bool pinned : {false, true}) {
      std::optional<ScopedSingleCpuAffinity> pin;
      if (pinned) pin.emplace();
      for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        expect_identical(serial, run_sim(trace, true, std::nullopt, 4, threads),
                         "resolvers=" + std::to_string(trace.resolvers) +
                             " threads=" + std::to_string(threads) +
                             " pinned=" + std::to_string(pinned));
      }
    }
  }
}

TEST(ParallelDeterminism, MetricsExportIsByteIdenticalAcrossShardCounts) {
  const std::vector<Trace> traces = oracle_traces();
  const auto export_for = [&traces](std::size_t shards) {
    auto& registry = obs::MetricsRegistry::global();
    registry.reset();
    for (const Trace& trace : traces) {
      (void)run_sim(trace, true, std::nullopt, shards);
      (void)run_sim(trace, false, std::nullopt, shards);
    }
    // Run metadata (wall clock) is outside the contract, so it is pinned;
    // everything the simulation itself produced must match byte for byte.
    return obs::metrics_json(registry, "oracle", 0.0);
  };
  const std::string serial = export_for(1);
  EXPECT_EQ(serial, export_for(2));
  EXPECT_EQ(serial, export_for(4));
  EXPECT_EQ(serial, export_for(8));
}

TEST(ParallelDeterminism, FormattedCsvCellsMatchSerial) {
  const Trace trace = small_all_names_trace();
  for (const int pct : {30, 100}) {
    const Trace sampled = sample_clients(trace, pct / 100.0, 101);
    // fig2-style cell: the first resolver's blow-up at 4 digits.
    const auto serial_factors = blowup_factors(sampled, std::nullopt, 1);
    const auto sharded_factors = blowup_factors(sampled, std::nullopt, 4);
    ASSERT_FALSE(serial_factors.empty());
    ASSERT_FALSE(sharded_factors.empty());
    EXPECT_EQ(TextTable::num(serial_factors.front(), 4),
              TextTable::num(sharded_factors.front(), 4))
        << "pct=" << pct;
    // fig3-style cells: hit rates with and without ECS at 3 digits.
    for (const bool with_ecs : {true, false}) {
      const double serial_rate =
          100.0 * run_sim(sampled, with_ecs, std::nullopt, 1).overall_hit_rate();
      const double sharded_rate =
          100.0 * run_sim(sampled, with_ecs, std::nullopt, 8).overall_hit_rate();
      EXPECT_EQ(TextTable::num(serial_rate, 3), TextTable::num(sharded_rate, 3))
          << "pct=" << pct << " ecs=" << with_ecs;
    }
  }
}

// Bounded replays partition whole resolvers per shard (an eviction decision
// couples all keys within a resolver), so every policy must reproduce the
// serial result bit for bit at any shard and thread count.
TEST(ParallelDeterminism, BoundedCacheMatchesSerialForEveryPolicyAndShardCount) {
  const Trace trace = small_cdn_trace();
  for (const auto policy : resolver::kAllEvictionPolicies) {
    CacheSimOptions bounded;
    bounded.with_ecs = true;
    bounded.max_entries_per_resolver = 8;
    bounded.policy = policy;
    const CacheSimResult serial = simulate_cache(trace, bounded);
    for (const auto& row : serial.per_resolver) {
      EXPECT_LE(row.max_cache_size, 8u)
          << resolver::to_string(policy) << " resolver " << row.resolver;
    }
    for (const std::size_t shards : {2u, 4u, 8u}) {
      bounded.shards = shards;
      bounded.threads = 0;
      expect_identical(serial, simulate_cache(trace, bounded),
                       resolver::to_string(policy) +
                           " shards=" + std::to_string(shards));
    }
    bounded.shards = 4;
    for (const std::size_t threads : {1u, 3u, 8u}) {
      bounded.threads = threads;
      expect_identical(serial, simulate_cache(trace, bounded),
                       resolver::to_string(policy) +
                           " threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelDeterminism, BoundedMetricsExportIsByteIdenticalAcrossShardCounts) {
  const Trace trace = small_cdn_trace();
  const auto export_for = [&trace](std::size_t shards) {
    auto& registry = obs::MetricsRegistry::global();
    registry.reset();
    for (const auto policy : resolver::kAllEvictionPolicies) {
      CacheSimOptions bounded;
      bounded.with_ecs = true;
      bounded.max_entries_per_resolver = 6;
      bounded.policy = policy;
      bounded.shards = shards;
      (void)simulate_cache(trace, bounded);
    }
    return obs::metrics_json(registry, "oracle", 0.0);
  };
  const std::string serial = export_for(1);
  EXPECT_EQ(serial, export_for(2));
  EXPECT_EQ(serial, export_for(4));
  EXPECT_EQ(serial, export_for(8));
}

TEST(ParallelDeterminism, ZeroTtlShardsWithEqualResults) {
  // TTL-0 answers are never cached, so they shard like any other query:
  // every answer is a miss and no resolver ever holds an entry.
  const Trace trace = small_cdn_trace();
  const CacheSimResult serial = run_sim(trace, true, 0u, 1);
  expect_identical(serial, run_sim(trace, true, 0u, 8), "ttl=0");
  EXPECT_EQ(serial.total_hits(), 0u);
  for (const auto& row : serial.per_resolver) EXPECT_EQ(row.max_cache_size, 0u);
}

TEST(ParallelDeterminism, UnsortedTraceFallsBackToSerialWithEqualResults) {
  Trace trace;
  trace.resolvers = 2;
  const auto query = [](SimTime t, std::uint32_t resolver, std::uint32_t name,
                        std::uint32_t host) {
    TraceQuery q;
    q.time = t;
    q.resolver = resolver;
    q.name = name;
    q.client = IpAddress::v4((100u << 24) | host);
    q.scope = 24;
    q.ttl_s = 20;
    return q;
  };
  trace.queries = {query(100, 0, 1, 5), query(50, 1, 2, 6), query(60, 0, 1, 5),
                   query(55, 1, 2, 7)};
  const CacheSimResult serial = run_sim(trace, true, std::nullopt, 1);
  expect_identical(serial, run_sim(trace, true, std::nullopt, 4), "unsorted");

  CacheSimOptions bounded;
  bounded.with_ecs = true;
  bounded.max_entries_per_resolver = 2;
  const CacheSimResult bounded_serial = simulate_cache(trace, bounded);
  bounded.shards = 4;
  expect_identical(bounded_serial, simulate_cache(trace, bounded),
                   "unsorted bounded");
}

}  // namespace
}  // namespace ecsdns::measurement
