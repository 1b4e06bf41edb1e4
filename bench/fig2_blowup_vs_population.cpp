// Figure 2: cache blow-up factor vs fraction of the client population, on
// the All-Names Resolver trace (single busy resolver, all ECS zones).
// Three random samples per fraction, averaged, as in the paper.
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "bench_common.h"
#include "measurement/cache_sim.h"
#include "measurement/stats.h"
#include "measurement/tracegen.h"

using namespace ecsdns;
using namespace ecsdns::measurement;

int main(int argc, char** argv) {
  ecsdns::bench::ObsSession obs_session(argc, argv, "fig2_blowup_vs_population");
  bench::banner("fig2_blowup_vs_population",
                "Figure 2 - cache blow-up vs client population fraction");

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
  std::printf(
      "trace: %zu queries, %zu clients, %u hostnames, %zu replay shard(s) "
      "(paper: 11.1M / 76.2K / 134,925)\n\n",
      trace.queries.size(), trace.clients.size(), trace.hostnames, shards);

  TextTable table({"% of clients", "blow-up (avg of 3 runs)"});
  CsvWriter csv("fig2_blowup_vs_population", {"client_pct", "blowup"});
  double at10 = 0, at100 = 0;
  for (int pct = 10; pct <= 100; pct += 10) {
    double sum = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const Trace sampled = sample_clients(trace, pct / 100.0, seed * 101);
      const auto factors =
          blowup_factors(sampled, std::nullopt, shards,
                         static_cast<std::size_t>(obs_session.threads()));
      sum += factors.empty() ? 0.0 : factors.front();
    }
    const double avg = sum / 3.0;
    if (pct == 10) at10 = avg;
    if (pct == 100) at100 = avg;
    table.add_row({std::to_string(pct), TextTable::num(avg)});
    csv.row({std::to_string(pct), TextTable::num(avg, 4)});
  }
  std::printf("%s\n", table.render().c_str());

  bench::compare("blow-up at full population", "4.3",
                 TextTable::num(at100).c_str());
  bench::compare("monotone growth with population", "~1.8 @10% -> 4.3 @100%",
                 (TextTable::num(at10) + " -> " + TextTable::num(at100)).c_str());
  bench::compare("curve flattens at 100%?", "no (keeps rising)",
                 at100 > at10 ? "no (keeps rising)" : "UNEXPECTED");
  return 0;
}
