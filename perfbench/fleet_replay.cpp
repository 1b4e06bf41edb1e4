// fleet_replay: Figure 1 at fleet scale. Each timed operation replays the
// whole fleet twice through simulate_cache_stream — obeying ECS scopes and
// ignoring them — sharded over the runner's threads, unbounded, and turns
// the two results into per-resolver blow-up factors.
//
// Output check: both sharded results must equal the serial fold
// (StreamingCacheSim over a fresh stream), compared by a digest of every
// per-resolver row.
#include <cstdio>

#include "inputs.h"
#include "measurement/cache_sim.h"
#include "measurement/trace_stream.h"
#include "workloads.h"

namespace perfbench {

using namespace ecsdns::measurement;

namespace {

struct PairDigests {
  std::uint64_t ecs = 0;
  std::uint64_t plain = 0;
  std::uint64_t queries = 0;
};

CacheSimResult serial_fold(const TraceStreamFactory& factory, bool with_ecs) {
  auto stream = factory();
  CacheSimOptions options;
  options.with_ecs = with_ecs;
  StreamingCacheSim sim(stream->info().resolvers, options);
  TraceQuery q;
  while (stream->next(q)) sim.observe(q);
  return sim.finish();
}

}  // namespace

RunRecord run_fleet_replay(const Options& o) {
  RunRecord record;
  TimedRegion region;
  const PublicResolverCdnConfig config = fleet_config(o.seed);

  // Set-up: the stream factory plus one stream instance, which tells the
  // harness the fleet's width. Streams generate lazily, so the replay's
  // own per-shard stream set-up runs in the timed region.
  TraceStreamFactory factory;
  std::uint32_t resolvers = 0;
  region.setup_s = time_setups(kFreshSetups, [&] {
    factory = cdn_stream_factory(config);
    resolvers = factory()->info().resolvers;
  }, record);

  CacheSimOptions ecs_options;
  ecs_options.with_ecs = true;
  ecs_options.shards = o.threads;
  ecs_options.threads = o.threads;
  CacheSimOptions plain_options = ecs_options;
  plain_options.with_ecs = false;

  std::vector<PairDigests> digests;
  std::size_t blowup_rows = 0;
  auto pair = [&](std::uint64_t batch) {
    Lap lap;
    ScopedSpan span("fleet_replay.pair", batch);
    CacheSimResult ecs;
    CacheSimResult plain;
    {
      ScopedSpan s("cache_sim.simulate_cache_stream.ecs", batch);
      ecs = simulate_cache_stream(factory, ecs_options);
    }
    {
      ScopedSpan s("cache_sim.simulate_cache_stream.no_ecs", batch);
      plain = simulate_cache_stream(factory, plain_options);
    }
    std::vector<double> blowups;
    {
      ScopedSpan s("fleet_replay.blowup_factors", batch);
      blowups.reserve(ecs.per_resolver.size());
      for (std::size_t i = 0; i < ecs.per_resolver.size(); ++i) {
        const auto base = plain.per_resolver[i].max_cache_size;
        if (base == 0) continue;
        blowups.push_back(static_cast<double>(ecs.per_resolver[i].max_cache_size) /
                          static_cast<double>(base));
      }
    }
    const std::uint64_t queries = ecs.total_hits() + ecs.total_misses() +
                                  plain.total_hits() + plain.total_misses();
    lap.finish(queries);
    blowup_rows = blowups.size();
    digests.push_back({full_digest(ecs), full_digest(plain), queries});
    return lap;
  };
  run_phases(o, region, record, pair);

  // Output check against the serial fold of the same seed.
  const std::uint64_t expect_ecs = full_digest(serial_fold(factory, true));
  const std::uint64_t expect_plain = full_digest(serial_fold(factory, false));
  for (const auto& d : digests) {
    if (d.ecs != expect_ecs || d.plain != expect_plain) {
      record.failed += d.queries;
      record.fail("fleet_replay: sharded result differs from the serial fold");
    }
  }
  std::printf("fleet_replay: %u resolvers, %llu queries per pair, %zu blow-up "
              "rows, %zu pairs checked against the serial fold\n",
              resolvers,
              static_cast<unsigned long long>(digests.empty() ? 0 : digests[0].queries),
              blowup_rows, digests.size());
  return record;
}

}  // namespace perfbench
