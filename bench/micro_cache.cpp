// Engineering microbenchmarks: the ECS cache and the trace-driven cache
// simulator that Figures 1-3 are built on.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_common.h"

#include "measurement/cache_sim.h"
#include "measurement/tracegen.h"
#include "resolver/cache.h"

namespace {

using namespace ecsdns;
using dnscore::IpAddress;
using dnscore::Name;
using dnscore::Prefix;

void BM_CacheInsert(benchmark::State& state) {
  resolver::EcsCache cache;
  const Name qname = Name::from_string("www.example.com");
  std::uint32_t i = 0;
  std::vector<dnscore::ResourceRecord> records{
      dnscore::ResourceRecord::make_a(qname, 20, IpAddress::parse("1.1.1.1"))};
  for (auto _ : state) {
    cache.insert(qname, dnscore::RRType::A, Prefix{IpAddress::v4(i++ << 8), 24}, 24,
                 records, 0, 60 * netsim::kSecond);
  }
}
BENCHMARK(BM_CacheInsert);

// Steady-state cost of a bounded insert: every insert past the bound also
// runs pick_victim + erase. One series per policy (see kAllEvictionPolicies
// for the Arg order).
void BM_CacheInsertBounded(benchmark::State& state) {
  resolver::CacheConfig config;
  config.capacity_entries = 512;
  config.policy =
      resolver::kAllEvictionPolicies[static_cast<std::size_t>(state.range(0))];
  resolver::EcsCache cache(config);
  const Name qname = Name::from_string("www.example.com");
  std::uint32_t i = 0;
  std::vector<dnscore::ResourceRecord> records{
      dnscore::ResourceRecord::make_a(qname, 20, IpAddress::parse("1.1.1.1"))};
  for (auto _ : state) {
    cache.insert(qname, dnscore::RRType::A, Prefix{IpAddress::v4(i++ << 8), 24}, 24,
                 records, 0, 60 * netsim::kSecond);
  }
  state.SetLabel(resolver::to_string(config.policy));
}
BENCHMARK(BM_CacheInsertBounded)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_CacheLookupHit(benchmark::State& state) {
  resolver::EcsCache cache;
  const Name qname = Name::from_string("www.example.com");
  std::vector<dnscore::ResourceRecord> records{
      dnscore::ResourceRecord::make_a(qname, 20, IpAddress::parse("1.1.1.1"))};
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(state.range(0)); ++i) {
    cache.insert(qname, dnscore::RRType::A, Prefix{IpAddress::v4(i << 8), 24}, 24,
                 records, 0, 60 * netsim::kSecond);
  }
  const auto client = IpAddress::v4((static_cast<std::uint32_t>(state.range(0)) / 2)
                                    << 8 | 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(qname, dnscore::RRType::A, client, 1));
  }
}
BENCHMARK(BM_CacheLookupHit)->Arg(8)->Arg(64)->Arg(512);

// resolver_fleet's pattern: insert, let the entry expire, look it up so the
// lookup sweeps it, insert again. Each iteration advances time past the TTL
// and cycles over a handful of questions, so every lookup misses on an
// expired entry and every insert lands in a recycled slot.
void BM_CacheExpireReinsert(benchmark::State& state) {
  resolver::EcsCache cache;
  std::vector<Name> names;
  for (int i = 0; i < 8; ++i) {
    names.push_back(Name::from_string("h" + std::to_string(i) + ".example.com"));
  }
  std::vector<dnscore::ResourceRecord> records{
      dnscore::ResourceRecord::make_a(names[0], 20, IpAddress::parse("1.1.1.1"))};
  const auto client = IpAddress::v4(100, 64, 1, 5);
  const Prefix block{client, 24};
  constexpr netsim::SimTime kTtl = 20 * netsim::kSecond;
  netsim::SimTime now = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    const Name& qname = names[i++ % names.size()];
    benchmark::DoNotOptimize(cache.lookup(qname, dnscore::RRType::A, client, now));
    cache.insert(qname, dnscore::RRType::A, block, 24, records, now, kTtl);
    now += kTtl / 4;
  }
}
BENCHMARK(BM_CacheExpireReinsert);

void BM_TraceGeneration(benchmark::State& state) {
  for (auto _ : state) {
    measurement::PublicResolverCdnConfig config;
    config.resolvers = 16;
    config.duration = 2 * netsim::kMinute;
    benchmark::DoNotOptimize(measurement::generate_public_resolver_cdn_trace(config));
  }
}
BENCHMARK(BM_TraceGeneration);

void BM_CacheSimulation(benchmark::State& state) {
  measurement::PublicResolverCdnConfig config;
  config.resolvers = 16;
  config.duration = 5 * netsim::kMinute;
  const auto trace = measurement::generate_public_resolver_cdn_trace(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        measurement::simulate_cache(trace, {true, std::nullopt, std::nullopt}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.queries.size()));
}
BENCHMARK(BM_CacheSimulation);

// The same replay bounded at a quarter of its mean no-ECS peak, so most
// inserts evict: bounded replay cost per query, one series per policy.
void BM_CacheSimulationBounded(benchmark::State& state) {
  measurement::PublicResolverCdnConfig config;
  config.resolvers = 16;
  config.duration = 5 * netsim::kMinute;
  const auto trace = measurement::generate_public_resolver_cdn_trace(config);
  measurement::CacheSimOptions no_ecs;
  no_ecs.with_ecs = false;
  std::size_t peak_sum = 0;
  for (const auto& row : measurement::simulate_cache(trace, no_ecs).per_resolver) {
    peak_sum += row.max_cache_size;
  }
  measurement::CacheSimOptions options;
  options.max_entries_per_resolver =
      std::max<std::size_t>(1, peak_sum / trace.resolvers / 4);
  options.policy =
      resolver::kAllEvictionPolicies[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    benchmark::DoNotOptimize(measurement::simulate_cache(trace, options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.queries.size()));
  state.SetLabel(resolver::to_string(options.policy));
}
BENCHMARK(BM_CacheSimulationBounded)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// The victim order alone at its bound: one hit, one eviction and one
// insert into the freed slot per iteration.
void BM_SlotEvictionChurn(benchmark::State& state) {
  constexpr resolver::SlotEviction::Slot kSlots = 512;
  const auto policy =
      resolver::kAllEvictionPolicies[static_cast<std::size_t>(state.range(0))];
  resolver::SlotEviction order(policy);
  for (resolver::SlotEviction::Slot s = 0; s < kSlots; ++s) {
    order.on_insert(static_cast<int>(16 + s % 17));
  }
  std::uint32_t i = 0;
  for (auto _ : state) {
    order.on_hit((i * 7919) % kSlots);
    order.on_erase(order.pick_victim());
    benchmark::DoNotOptimize(order.on_insert(static_cast<int>(16 + i++ % 17)));
  }
  state.SetLabel(resolver::to_string(policy));
}
BENCHMARK(BM_SlotEvictionChurn)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the obs flags
// (--metrics-out/--trace-out) are not google-benchmark flags, so they are
// consumed by ObsSession before Initialize() sees argv.
int main(int argc, char** argv) {
  ecsdns::bench::ObsSession obs_session(argc, argv, "micro_cache");
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) continue;
    if (std::strncmp(argv[i], "--trace-out=", 12) == 0) continue;
    passthrough.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
