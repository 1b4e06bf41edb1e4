// bounded_sweep: the fig_hitrate_vs_capacity shape. A dense trace from a
// few dozen resolvers is materialised during set-up, together with the
// mean per-resolver no-ECS peak the bounds are anchored at. Each timed
// operation is one sweep: the trace replayed with ECS under all four
// eviction policies at every bound in kBoundFractions (all at or below the
// no-ECS peak, so most inserts evict), sharded by resolver.
//
// Output check: every sharded result equals the serial replay of the same
// policy and bound (digest of every per-resolver row), and no resolver's
// peak exceeds its bound.
#include <cstdio>
#include <string>

#include "inputs.h"
#include "measurement/cache_sim.h"
#include "resolver/eviction.h"
#include "workloads.h"

namespace perfbench {

using namespace ecsdns;
using namespace ecsdns::measurement;

namespace {

struct SweepCell {
  resolver::EvictionPolicy policy;
  std::size_t bound;
};

const char* span_name(resolver::EvictionPolicy policy) {
  switch (policy) {
    case resolver::EvictionPolicy::kLru: return "cache_sim.bounded.lru";
    case resolver::EvictionPolicy::kLfu: return "cache_sim.bounded.lfu";
    case resolver::EvictionPolicy::kSieve: return "cache_sim.bounded.sieve";
    case resolver::EvictionPolicy::kScopeAware: return "cache_sim.bounded.scope";
  }
  return "cache_sim.bounded";
}

}  // namespace

RunRecord run_bounded_sweep(const Options& o) {
  RunRecord record;
  TimedRegion region;

  Trace trace;
  std::size_t anchor = 0;
  region.setup_s = time_setups(kFreshSetups, [&] {
    trace = generate_public_resolver_cdn_trace(dense_config(o.seed));
    CacheSimOptions no_ecs;
    no_ecs.with_ecs = false;
    no_ecs.shards = o.threads;
    no_ecs.threads = o.threads;
    const CacheSimResult peaks = simulate_cache(trace, no_ecs);
    std::size_t sum = 0;
    for (const auto& row : peaks.per_resolver) sum += row.max_cache_size;
    anchor = sum / peaks.per_resolver.size();
  }, record);

  std::vector<SweepCell> cells;
  for (const auto policy : resolver::kAllEvictionPolicies) {
    for (const double fraction : kBoundFractions) {
      const auto bound = std::max<std::size_t>(
          1, static_cast<std::size_t>(fraction * static_cast<double>(anchor)));
      cells.push_back({policy, bound});
    }
  }
  auto options_for = [&](const SweepCell& cell, std::size_t shards) {
    CacheSimOptions options;
    options.with_ecs = true;
    options.max_entries_per_resolver = cell.bound;
    options.policy = cell.policy;
    options.shards = shards;
    options.threads = shards;
    return options;
  };

  // digests[c] of every sweep, checked after the timed region.
  std::vector<std::vector<std::uint64_t>> digests(cells.size());
  std::uint64_t over_bound = 0;
  std::uint64_t queries_per_sweep = 0;
  auto sweep = [&](std::uint64_t batch) {
    Lap lap;
    ScopedSpan span("bounded_sweep.sweep", batch);
    std::vector<CacheSimResult> results;
    results.reserve(cells.size());
    std::uint64_t queries = 0;
    for (const auto& cell : cells) {
      ScopedSpan s(span_name(cell.policy), batch);
      results.push_back(simulate_cache(trace, options_for(cell, o.threads)));
      queries += results.back().total_hits() + results.back().total_misses();
    }
    lap.finish(queries);
    queries_per_sweep = queries;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      digests[c].push_back(full_digest(results[c]));
      for (const auto& row : results[c].per_resolver) {
        if (row.max_cache_size > cells[c].bound) ++over_bound;
      }
    }
    return lap;
  };
  run_phases(o, region, record, sweep);

  for (std::size_t c = 0; c < cells.size(); ++c) {
    const std::uint64_t expect =
        full_digest(simulate_cache(trace, options_for(cells[c], 1)));
    for (const std::uint64_t d : digests[c]) {
      if (d != expect) {
        record.failed += queries_per_sweep / cells.size();
        record.fail("bounded_sweep: " + resolver::to_string(cells[c].policy) +
                    " at bound " + std::to_string(cells[c].bound) +
                    " differs from the serial replay");
      }
    }
  }
  if (over_bound > 0) {
    record.fail("bounded_sweep: " + std::to_string(over_bound) +
                " resolver rows exceed their cache bound");
  }
  std::printf("bounded_sweep: %zu queries in the trace, %u resolvers, no-ECS "
              "peak %zu entries, %zu cells per sweep, %zu sweeps checked\n",
              trace.queries.size(), trace.resolvers, anchor, cells.size(),
              digests.empty() ? std::size_t{0} : digests[0].size());
  return record;
}

}  // namespace perfbench
