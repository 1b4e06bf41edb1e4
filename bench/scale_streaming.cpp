// Paper-scale streaming pipeline: generate -> simulate -> aggregate for a
// million-resolver fleet without ever materializing the trace. The three
// numbers that matter: sustained queries/second through the fold, peak RSS
// (bounded by live cache entries, not query count), and the full-row
// digest equivalence of the sharded replay against the serial fold.
//
// Gates (all off by default, enabled by CI): --min-qps=N fails the run if
// the fold sustains less, --max-peak-rss-mb=N fails it if VmHWM exceeds N.
// --oracle=1 additionally replays the stream at shard counts 1/2/4/8 — and
// across worker threads 1/2/4/8 — requiring every result digest to equal
// the serial one. --sweep=1 times those thread-count runs into a
// q/s-vs-cores scaling curve (scale.sweep.* gauges); --min-speedup-pct=N
// gates the 4-thread run against the 1-thread run (200 = "at least 2x"),
// auto-skipped with a warning on machines with fewer than 4 hardware
// threads where the comparison is physically meaningless.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"

#include "measurement/cache_sim.h"
#include "measurement/prefix_census.h"
#include "measurement/trace_stream.h"
#include "obs/metrics.h"

using namespace ecsdns;
using namespace ecsdns::measurement;

namespace {

// Per-resolver load scaled way down from the Figure 1 defaults: at 1M+
// resolvers the interesting axis is fleet width, not per-member qps, and
// total query volume must stay single-core friendly.
PublicResolverCdnConfig scale_config(std::uint32_t resolvers,
                                     netsim::SimTime duration) {
  PublicResolverCdnConfig config;
  config.resolvers = resolvers;
  config.min_clients_per_resolver = 2;
  config.max_clients_per_resolver = 64;
  config.min_qps = 0.02;
  config.max_qps = 0.5;
  config.hostnames = 1000;
  config.duration = duration;
  config.seed = 1;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs_session(argc, argv, "scale_streaming");
  const auto resolvers =
      static_cast<std::uint32_t>(bench::flag(argc, argv, "resolvers", 1000000));
  const auto duration_s = bench::flag(argc, argv, "duration-s", 30);
  const long min_qps = bench::flag(argc, argv, "min-qps", 0);
  const long max_rss_mb = bench::flag(argc, argv, "max-peak-rss-mb", 0);
  const bool oracle = bench::flag(argc, argv, "oracle", 0) != 0;
  const bool sweep = bench::flag(argc, argv, "sweep", 0) != 0;
  const long min_speedup_pct = bench::flag(argc, argv, "min-speedup-pct", 0);

  bench::banner("scale_streaming: 1M+ resolver streaming pipeline",
                "the full-population extrapolation the paper's datasets "
                "subsample (2370 egress resolvers -> whole fleet)");

  const auto config =
      scale_config(resolvers, duration_s * netsim::kSecond);

  // ---- streaming fold: generator -> cache sim + client-prefix census ----
  const auto start = std::chrono::steady_clock::now();
  PublicResolverCdnStream stream(config);
  StreamingCacheSim sim(resolvers, {});
  ClientPrefixCensus census(resolvers);
  std::size_t peak_live = 0;
  TraceQuery q;
  while (stream.next(q)) {
    sim.observe(q);
    census.observe(q);
    peak_live = std::max(peak_live, sim.live_entries());
  }
  const std::uint64_t queries = sim.queries();
  const auto result = sim.finish();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double qps = wall_s > 0 ? static_cast<double>(queries) / wall_s : 0.0;
  const std::uint64_t rss = bench::peak_rss_bytes();
  // What the retired pipeline would have held: the full query vector plus
  // the per-query client addresses (Trace::queries alone; the clients
  // vector and the sort buffer come on top).
  const std::uint64_t materialized = queries * sizeof(TraceQuery);

  std::printf("  fleet %u resolvers, %" PRIu64 " queries over %llds sim time\n",
              resolvers, queries, static_cast<long long>(duration_s));
  std::printf("  sustained fold rate: %.0f queries/s (wall %.1fs)\n", qps,
              wall_s);
  std::printf("  peak live cache entries: %zu\n", peak_live);
  std::printf("  distinct (resolver, block) pairs: %" PRIu64 "\n",
              census.distinct_pairs());
  std::printf("  peak RSS: %.1f MiB; materialized trace alone would be "
              "%.1f MiB (%.1fx)\n",
              static_cast<double>(rss) / (1024.0 * 1024.0),
              static_cast<double>(materialized) / (1024.0 * 1024.0),
              rss > 0 ? static_cast<double>(materialized) /
                            static_cast<double>(rss)
                      : 0.0);

  auto& registry = obs::MetricsRegistry::global();
  registry.gauge("scale.resolvers").set(static_cast<std::int64_t>(resolvers));
  registry.gauge("scale.queries").set(static_cast<std::int64_t>(queries));
  registry.gauge("scale.sustained_qps").set(static_cast<std::int64_t>(qps));
  registry.gauge("scale.peak_live_entries")
      .set(static_cast<std::int64_t>(peak_live));

  bool ok = true;
  const std::uint64_t expect = result_digest(result);

  // ---- full-row digest oracle across shard counts ----
  if (oracle) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{4}, std::size_t{8}}) {
      CacheSimOptions options;
      options.shards = shards;
      const auto sharded =
          simulate_cache_stream(cdn_stream_factory(config), options);
      const std::uint64_t digest = result_digest(sharded);
      std::printf("  oracle shards=%zu digest %016" PRIx64 " %s\n",
                  shards, digest, digest == expect ? "ok" : "MISMATCH");
      if (digest != expect) ok = false;
    }
  }

  // ---- thread matrix: digests + q/s-vs-cores scaling curve ----
  // Fixed shard count (8) so every cell replays the identical partition;
  // only the worker thread count varies — exactly the axis the determinism
  // contract says cannot matter. Each cell's digest must equal the serial
  // fold's.
  if (oracle || sweep) {
    const std::size_t matrix_shards =
        resolvers >= 8 ? 8 : std::max<std::size_t>(1, resolvers);
    double qps_t1 = 0;
    double qps_t4 = 0;
    std::printf("\n  scaling matrix (shards=%zu):\n", matrix_shards);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}, std::size_t{8}}) {
      CacheSimOptions options;
      options.shards = matrix_shards;
      options.threads = threads;
      options.runtime_metrics = true;
      const auto cell_start = std::chrono::steady_clock::now();
      const auto sharded =
          simulate_cache_stream(cdn_stream_factory(config), options);
      const double cell_wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        cell_start)
              .count();
      const std::uint64_t digest = result_digest(sharded);
      const double cell_qps =
          cell_wall > 0 ? static_cast<double>(queries) / cell_wall : 0.0;
      std::printf("    threads=%zu %10.0f q/s  digest %016" PRIx64 " %s\n",
                  threads, cell_qps, digest,
                  digest == expect ? "ok" : "MISMATCH");
      if (digest != expect) ok = false;
      if (sweep) {
        registry.gauge("scale.sweep.t" + std::to_string(threads) + ".qps")
            .set(static_cast<std::int64_t>(cell_qps));
      }
      if (threads == 1) qps_t1 = cell_qps;
      if (threads == 4) qps_t4 = cell_qps;
    }
    if (min_speedup_pct > 0) {
      const unsigned cpus = std::thread::hardware_concurrency();
      if (cpus < 4) {
        std::fprintf(stderr,
                     "warning: only %u hardware thread(s); skipping the "
                     "--min-speedup-pct gate (a multi-core speedup cannot "
                     "be measured here)\n",
                     cpus);
      } else if (qps_t4 * 100.0 <
                 qps_t1 * static_cast<double>(min_speedup_pct)) {
        std::fprintf(stderr,
                     "FAIL: 4-thread run %.0f q/s is below %ld%% of the "
                     "1-thread run %.0f q/s\n",
                     qps_t4, min_speedup_pct, qps_t1);
        ok = false;
      } else {
        std::printf("  speedup gate: 4 threads %.2fx 1 thread (>= %ld%%)\n",
                    qps_t1 > 0 ? qps_t4 / qps_t1 : 0.0, min_speedup_pct);
      }
    }
  }

  // ---- gates ----
  if (min_qps > 0 && qps < static_cast<double>(min_qps)) {
    std::fprintf(stderr, "FAIL: sustained %.0f qps < --min-qps=%ld\n", qps,
                 min_qps);
    ok = false;
  }
  if (max_rss_mb > 0 && rss > static_cast<std::uint64_t>(max_rss_mb) * 1024 * 1024) {
    std::fprintf(stderr, "FAIL: peak RSS %.1f MiB > --max-peak-rss-mb=%ld\n",
                 static_cast<double>(rss) / (1024.0 * 1024.0), max_rss_mb);
    ok = false;
  }
  std::printf("\n%s\n", ok ? "scale_streaming: PASS" : "scale_streaming: FAIL");
  return ok ? 0 : 1;
}
