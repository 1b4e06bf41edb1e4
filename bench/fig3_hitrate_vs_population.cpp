// Figure 3: resolver cache hit rate with and without ECS as the client
// population grows (All-Names Resolver trace; averages of three samples).
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "measurement/cache_sim.h"
#include "measurement/stats.h"
#include "measurement/tracegen.h"

using namespace ecsdns;
using namespace ecsdns::measurement;

int main(int argc, char** argv) {
  ecsdns::bench::ObsSession obs_session(argc, argv, "fig3_hitrate_vs_population");
  bench::banner("fig3_hitrate_vs_population",
                "Figure 3 - cache hit rate with/without ECS vs population");

  const auto shards = static_cast<std::size_t>(obs_session.shards());
  AllNamesConfig config;
  config.duration = bench::flag(argc, argv, "minutes", 60) * netsim::kMinute;
  config.queries_per_second =
      static_cast<double>(bench::flag(argc, argv, "qps", 128));
  config.seed = static_cast<std::uint64_t>(bench::flag(argc, argv, "seed", 2));
  // --clients scales the population (keeping the ~5 clients-per-subnet
  // ratio of the defaults) for large sharded runs.
  const long clients = bench::flag(argc, argv, "clients", 0);
  if (clients > 0) {
    config.clients = static_cast<std::uint32_t>(clients);
    config.client_subnets = static_cast<std::uint32_t>(std::max(1L, clients / 5));
  }
  const Trace trace = generate_all_names_trace(config);
  std::printf("trace: %zu queries, %zu clients, %zu replay shard(s)\n\n",
              trace.queries.size(), trace.clients.size(), shards);

  CacheSimOptions with_ecs_options;
  with_ecs_options.with_ecs = true;
  with_ecs_options.shards = shards;
  with_ecs_options.threads = static_cast<std::size_t>(obs_session.threads());
  CacheSimOptions no_ecs_options;
  no_ecs_options.with_ecs = false;
  no_ecs_options.shards = shards;
  no_ecs_options.threads = with_ecs_options.threads;

  TextTable table({"% of clients", "hit rate no ECS (%)", "hit rate with ECS (%)"});
  CsvWriter csv("fig3_hitrate_vs_population",
                {"client_pct", "hitrate_no_ecs_pct", "hitrate_ecs_pct"});
  double no_ecs_full = 0, with_ecs_full = 0;
  for (int pct = 10; pct <= 100; pct += 10) {
    double sum_with = 0, sum_without = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Trace sampled = sample_clients(trace, pct / 100.0, seed * 101);
      sum_with += simulate_cache(sampled, with_ecs_options).overall_hit_rate();
      sum_without += simulate_cache(sampled, no_ecs_options).overall_hit_rate();
    }
    const double with_ecs = 100 * sum_with / 3.0;
    const double without_ecs = 100 * sum_without / 3.0;
    if (pct == 100) {
      no_ecs_full = without_ecs;
      with_ecs_full = with_ecs;
    }
    table.add_row({std::to_string(pct), TextTable::num(without_ecs, 1),
                   TextTable::num(with_ecs, 1)});
    csv.row({std::to_string(pct), TextTable::num(without_ecs, 3),
             TextTable::num(with_ecs, 3)});
  }
  std::printf("%s\n", table.render().c_str());

  bench::compare("hit rate at 100%, no ECS", "~76%",
                 (TextTable::num(no_ecs_full, 1) + "%").c_str());
  bench::compare("hit rate at 100%, with ECS", "~30%",
                 (TextTable::num(with_ecs_full, 1) + "%").c_str());
  bench::compare("ECS cuts hit rate by", "more than half",
                 with_ecs_full < no_ecs_full / 2 ? "more than half" : "less than half");
  return 0;
}
