// Client workload driver: replays a synthetic client query stream through a
// fleet of recursive resolvers against the simulated DNS hierarchy, so the
// authoritative side accumulates the passive logs the paper's census
// analyses (§5, §6.1, Table 1) are computed from.
#pragma once

#include <vector>

#include "measurement/fleet.h"
#include "measurement/testbed.h"
#include "netsim/rng.h"

namespace ecsdns::measurement {

struct WorkloadOptions {
  // Hostnames clients ask for (must be resolvable in the testbed).
  std::vector<Name> hostnames;
  double zipf_exponent = 0.8;
  // Mean gap between queries per resolver (Poisson arrivals).
  netsim::SimTime mean_query_gap = 2 * netsim::kMinute;
  netsim::SimTime duration = 4 * netsim::kHour;
  // Probability that a query is repeated by the same client ~5 s later —
  // the within-TTL repeats that expose caching-disabled probing (§6.1
  // pattern 2).
  double burst_probability = 0.3;
  netsim::SimTime burst_gap = 5 * netsim::kSecond;
  // Synthetic clients per resolver.
  int clients_per_resolver = 4;
  // Every fleet member draws its query stream from its own split RNG
  // stream, netsim::Rng::stream(seed, member_index). Traffic is a pure
  // function of (seed, member) — independent of execution order and of
  // how members are grouped — so serial and parallel drivers reproduce the
  // same streams exactly. (The former
  // shards == 1 path that drew every member from one shared RNG is
  // retired; see CHANGES.md.)
  std::uint64_t seed = 21;
};

struct WorkloadStats {
  std::uint64_t client_queries = 0;
  std::uint64_t answered = 0;
};

// Drives every fleet member with an independent Poisson stream using the
// testbed's event loop; returns once the full duration has been simulated.
WorkloadStats drive_fleet(Testbed& bed, Fleet& fleet, const WorkloadOptions& options);

}  // namespace ecsdns::measurement
