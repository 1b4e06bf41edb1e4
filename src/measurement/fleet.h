// Resolver fleet builders: populations of recursive resolvers (plus their
// ingress forwarders and hidden-resolver chains) whose behavior mixes are
// calibrated to the counts the paper reports for its two datasets.
#pragma once

#include <string>
#include <vector>

#include "measurement/name_table.h"
#include "measurement/testbed.h"
#include "netsim/rng.h"

namespace ecsdns::measurement {

// One egress resolver of a fleet plus the metadata census tables group by.
struct FleetMember {
  RecursiveResolver* resolver = nullptr;
  IpAddress address;
  // Behavior class tag ("AS-MP", "AS-OK", "AS-IGN", ...), used by the
  // experiments to slice the fleet by ground truth.
  std::string behavior;
  // AS assignment as the whois-equivalent database sees it. The major
  // public service is one AS; other members are spread across many, like
  // the paper's 45 non-Google ASes.
  std::string as_label;
  std::string country;
  std::string city;
  // This member's client population is IPv6 (its ECS options carry
  // family 2); the workload driver honors this.
  bool v6_clients = false;
  // Resolution-path entry points (open ingress forwarders) reaching this
  // egress; empty members are unreachable to active scans.
  std::vector<Forwarder*> forwarders;
  // Hidden resolvers (chain intermediaries), parallel to `forwarders` where
  // a chain has one; nullptr where the forwarder talks to the egress
  // directly.
  std::vector<Forwarder*> hidden;
};

struct Fleet {
  std::vector<FleetMember> members;
  // Interned hostname universe the fleet was built around (probe names and
  // whatever the experiments add). Builders pre-intern their probe names;
  // replay and census code key on the dense NameIds instead of Name copies.
  NameTable names;

  std::size_t total_forwarders() const;
  std::vector<const FleetMember*> in_as(const std::string& as_label) const;
};

// §4/§6.1 "CDN dataset" fleet: the 4147 ECS-enabled non-whitelisted
// resolvers a major CDN observes, with the paper's probing-strategy and
// source-prefix-length mixes:
//   3382 send ECS on 100% of address queries (3067 of them the dominant
//        Chinese AS with jammed /32 prefixes),
//    258 probe specific hostnames with caching disabled,
//     32 probe every 30 minutes with a loopback prefix,
//     88 probe specific hostnames on cache miss,
//    387 show no discernible pattern.
// `scale` divides every count (1 = full size) for quick runs.
struct CdnFleetOptions {
  int scale = 1;
  std::uint64_t seed = 7;
  // Names under the CDN zone that hostname-probers treat as probe names.
  std::vector<Name> probe_names;
  // Include the Table 1 IPv6 rows: ~137 additional resolvers whose client
  // populations are IPv6, announcing /32, /48, /56, /64, and the
  // 64/96/128-alternating combination.
  bool include_v6 = true;
};
Fleet build_cdn_dataset_fleet(Testbed& bed, const CdnFleetOptions& options);

// §4 "Scan dataset" fleet: 1534 ECS-enabled egress resolvers (1256 of a
// major public DNS service + 278 others), each reachable through open
// ingress forwarders, some through hidden-resolver chains. The 278 carry
// the §6.3.2 caching-behavior mix (76 correct, 103 scope-ignoring, 15
// long-prefix, 8 clamp-22, 1 private-block, 75 unreachable for the caching
// study).
struct ScanFleetOptions {
  int scale = 1;
  // Open forwarders per reachable egress resolver (the real ratio is
  // ~1800:1; the association logic only needs a handful).
  int forwarders_per_egress = 4;
  // Fraction of chains routed through a hidden resolver.
  double hidden_chain_fraction = 0.5;
  // Fraction of hidden resolvers placed in a random city — often farther
  // from the forwarder than the egress is (the paper's 8% pathology).
  double hidden_farther_fraction = 0.13;
  // Fraction of hidden resolvers co-located with the egress, which lands
  // the combination exactly on the Figure 4/5 diagonal.
  double hidden_at_egress_fraction = 0.02;
  std::uint64_t seed = 11;
};
Fleet build_scan_dataset_fleet(Testbed& bed, const ScanFleetOptions& options);

}  // namespace ecsdns::measurement
