// Inputs of the workloads, each a pure function of the seed. The per-layer
// probes build the same inputs, so a layer is always measured on the data
// of the workload it is predicted to move.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "authoritative/server.h"
#include "measurement/fleet.h"
#include "measurement/testbed.h"
#include "measurement/tracegen.h"
#include "measurement/workload.h"

namespace perfbench {

// fleet_replay: a wide Public-Resolver/CDN fleet at low per-member load.
ecsdns::measurement::PublicResolverCdnConfig fleet_config(std::uint64_t seed);

// bounded_sweep: a dense trace from a few dozen busy resolvers.
ecsdns::measurement::PublicResolverCdnConfig dense_config(std::uint64_t seed);
// The bounds bounded_sweep replays at, as fractions of the mean
// per-resolver no-ECS peak.
inline constexpr double kBoundFractions[] = {0.25, 0.5, 1.0};

// resolver_fleet: the full-scale CDN-dataset fleet, one ECS authoritative
// zone with short TTLs, and the client hostnames.
struct ResolverBed {
  ecsdns::measurement::Testbed bed;
  ecsdns::authoritative::AuthServer* cdn = nullptr;
  ecsdns::measurement::Fleet fleet;
  std::vector<ecsdns::dnscore::Name> hostnames;
  // Expected A record of each hostname.
  std::vector<ecsdns::dnscore::IpAddress> answers;
  std::uint64_t seed = 0;

  // Client traffic of the index-th drive slice.
  ecsdns::measurement::WorkloadOptions slice(std::uint64_t index) const;
};
inline constexpr int kResolverScope = 24;  // the zone's fixed ECS scope
std::unique_ptr<ResolverBed> build_resolver_bed(std::uint64_t seed);

// The live probe: the authoritative behind the UDP server and the query mix.
struct LiveQueries {
  // Query wire per template; bytes 0-1 (the ID) are rewritten per send.
  std::vector<std::vector<std::uint8_t>> wires;
  // Template index for each sequence number (cycled).
  std::vector<std::uint32_t> sequence;
};
inline constexpr int kLiveScopeDelta = 4;
std::unique_ptr<ecsdns::authoritative::AuthServer> make_live_auth();
LiveQueries make_live_queries(std::uint64_t seed);

}  // namespace perfbench
