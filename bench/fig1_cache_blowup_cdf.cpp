// Figure 1: CDF of the per-resolver cache blow-up factor (peak cache size
// with ECS / without ECS) on the Public Resolver/CDN trace, for answer TTLs
// of 20, 40, and 60 seconds.
#include <cstdio>

#include "bench_common.h"
#include "measurement/cache_sim.h"
#include "measurement/stats.h"
#include "measurement/tracegen.h"

using namespace ecsdns;
using namespace ecsdns::measurement;

int main(int argc, char** argv) {
  ecsdns::bench::ObsSession obs_session(argc, argv, "fig1_cache_blowup_cdf");
  bench::banner("fig1_cache_blowup_cdf",
                "Figure 1 - cache blow-up CDF, TTL in {20, 40, 60} s");

  const auto shards = static_cast<std::size_t>(obs_session.shards());
  PublicResolverCdnConfig config;
  config.resolvers = static_cast<std::uint32_t>(bench::flag(argc, argv, "resolvers", 160));
  config.duration = bench::flag(argc, argv, "minutes", 4) * netsim::kMinute;
  config.seed = static_cast<std::uint64_t>(bench::flag(argc, argv, "seed", 1));
  std::printf(
      "trace: %u resolvers (paper: 2370), %.0f-%.0f qps each (log-uniform), "
      "%lld min, %zu replay shard(s)\n",
      config.resolvers, config.min_qps, config.max_qps,
      static_cast<long long>(config.duration / netsim::kMinute), shards);
  const Trace trace = generate_public_resolver_cdn_trace(config);
  std::printf("generated %zu queries, %zu clients\n\n", trace.queries.size(),
              trace.clients.size());

  std::vector<std::pair<std::string, Cdf>> curves;
  TextTable table({"TTL", "median blow-up", "p90", "max", "frac > 4x"});
  CsvWriter csv("fig1_cache_blowup_cdf", {"ttl_s", "blowup", "cdf"});
  double max20 = 0;
  double median20 = 0;
  for (const std::uint32_t ttl : {20u, 40u, 60u}) {
    auto factors = blowup_factors(trace, ttl, shards,
                                  static_cast<std::size_t>(obs_session.threads()));
    Cdf cdf(std::move(factors));
    for (const auto& [x, p] : cdf.series(100)) {
      csv.row({std::to_string(ttl), TextTable::num(x, 4), TextTable::num(p, 4)});
    }
    table.add_row({std::to_string(ttl) + " s", TextTable::num(cdf.median()),
                   TextTable::num(cdf.percentile(0.9)), TextTable::num(cdf.max()),
                   TextTable::num(1.0 - cdf.fraction_at_most(4.0))});
    if (ttl == 20) {
      max20 = cdf.max();
      median20 = cdf.median();
    }
    curves.emplace_back(std::to_string(ttl) + " Sec. TTL", std::move(cdf));
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("%s\n", render_cdf_plot(curves, "cache blow-up factor").c_str());

  bench::compare("max blow-up at TTL 20", "15.95",
                 TextTable::num(max20).c_str());
  bench::compare("median blow-up at TTL 20", ">= 4 (50% of resolvers)",
                 TextTable::num(median20).c_str());
  bench::compare("blow-up grows with TTL", "max 23.68 @40s, 29.85 @60s",
                 "see table above");
  return 0;
}
