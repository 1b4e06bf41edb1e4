// CDN user-to-edge-server mapping policies.
//
// A mapping answers: given what the authoritative DNS can see (the query's
// ECS option if any, and the resolver's source address), which edge
// addresses go into the answer, and what ECS scope comes back?
//
// Three ProximityMapping configurations model the CDNs the paper measures:
//   * ProximityMapping with min_ecs_bits=24 and a default-set fallback is
//     "CDN-1" (Figure 6: a cliff when the source prefix drops below /24);
//   * ProximityMapping with min_ecs_bits=21 and resolver-proxy fallback is
//     "CDN-2" (Figure 7: the cliff sits at /21 instead);
//   * unroutable-prefix hashing reproduces the Google behavior of Table 2
//     (loopback ECS prefixes mapped across the globe).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cdn/edge.h"
#include "dnscore/ip.h"
#include "netsim/geodb.h"

namespace ecsdns::cdn {

using dnscore::Prefix;

struct MappingRequest {
  // Validated client subnet from the query's ECS option, if present.
  std::optional<Prefix> ecs;
  // The immediate sender of the query (the recursive resolver).
  IpAddress resolver;
};

struct MappingResult {
  std::vector<IpAddress> addresses;  // answer A records, best first
  int scope = 0;                     // ECS scope to return (0 = any client)
  bool used_ecs = false;             // whether ECS influenced the choice
};

// What to do with an ECS prefix no geolocation exists for — loopback,
// private, link-local, or simply unknown space.
enum class UnroutableHandling {
  // RFC 7871's SHOULD: fall back to the resolver address.
  kTreatAsResolver,
  // The confusion observed in Table 2: deterministically map the prefix
  // bytes onto *some* edge, proximity be damned.
  kHashedConfusion,
};

// What to do when ECS is absent or carries too few bits to be used.
enum class Fallback {
  // Map by the resolver's own location (classic pre-ECS behavior).
  kResolverProxy,
  // Return a small fixed set of "default" edges irrespective of location —
  // the CDN-1 behavior the paper infers from the 5-14 distinct answers.
  kDefaultSet,
};

struct ProximityMappingConfig {
  std::string label = "cdn";
  // ECS is honored only when the source prefix carries at least this many
  // bits; otherwise the fallback engages. (CDN-1: 24, CDN-2: 21.)
  int min_ecs_bits = 24;
  // Mapping granularity: the ECS prefix is truncated to this many bits
  // before geolocation, and this is the scope returned for ECS answers.
  int effective_bits = 24;
  // Number of edge addresses in a tailored answer.
  std::size_t answer_count = 4;
  std::size_t default_set_size = 8;
  UnroutableHandling unroutable = UnroutableHandling::kTreatAsResolver;
  Fallback fallback = Fallback::kResolverProxy;
};

class ProximityMapping {
 public:
  // `geo` resolves prefixes and resolver addresses to coordinates; the
  // policy keeps references — the caller owns both and keeps them alive.
  ProximityMapping(ProximityMappingConfig config, const EdgeFleet& fleet,
                   const netsim::IpGeoDb& geo);

  MappingResult map(const MappingRequest& request) const;

  const ProximityMappingConfig& config() const noexcept { return config_; }

  // Canned configurations for the paper's two measured CDNs plus the
  // Table 2 subject.
  static ProximityMappingConfig cdn1_config();
  static ProximityMappingConfig cdn2_config();
  static ProximityMappingConfig google_like_config();

 private:
  MappingResult map_by_location(const netsim::GeoPoint& where, int scope,
                                bool used_ecs) const;
  MappingResult fallback_result(const MappingRequest& request) const;

  ProximityMappingConfig config_;
  const EdgeFleet& fleet_;
  const netsim::IpGeoDb& geo_;
};

}  // namespace ecsdns::cdn
