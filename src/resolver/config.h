// Resolver ECS behavior configuration.
//
// Every behavior the paper catalogs — compliant or deviant — is a knob
// here, so a single RecursiveResolver engine can impersonate any resolver
// the study observed. Factory presets named after the paper's categories
// build the common configurations.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dnscore/ip.h"
#include "dnscore/name.h"
#include "netsim/geo.h"
#include "resolver/eviction.h"

namespace ecsdns::resolver {

using dnscore::IpAddress;
using dnscore::Name;
using dnscore::Prefix;
using netsim::SimTime;

// §6.1 — when does the resolver attach an ECS option to upstream queries?
enum class ProbingStrategy {
  // Pattern 1: ECS on 100% of A/AAAA queries (whitelist-everything or
  // indiscriminate; the paper cannot distinguish and neither do we).
  kAlways,
  // Pattern 2: ECS consistently for specific "probe hostnames", with
  // caching disabled for those names (repeated queries within TTL).
  kProbeHostnamesNoCache,
  // Pattern 3: an ECS probe at most once per interval (multiple of 30 min),
  // carrying the loopback address; plain queries otherwise.
  kPeriodicLoopbackProbe,
  // Pattern 4: ECS for specific hostnames, but only on a cache miss.
  kProbeHostnamesOnMiss,
  // OpenDNS-style: ECS only toward whitelisted zones.
  kZoneWhitelist,
  // Does not speak ECS at all.
  kNever,
  // No discernible pattern: attaches ECS with a fixed per-query
  // probability (the 387 resolvers the paper could not classify).
  kIrregular,
};

std::string to_string(ProbingStrategy s);

// §6.3 — how does the resolver apply the authoritative scope to caching?
enum class ScopeHandling {
  // Correct: cache at min(scope, source), capped by the privacy limit.
  kHonor,
  // Over half the studied resolvers: reuse cached answers for any client.
  kIgnoreScope,
};

std::string to_string(ScopeHandling s);

// What the resolver puts in the ECS address field when the incoming query
// carried source prefix length 0 (or when probing without client data).
enum class SelfIdentification {
  kOwnPublicAddress,  // the RFC's intent, and the paper's recommendation
  kLoopback,          // the confusing-but-observed 127.0.0.1 behavior
  kPrivateBlock,      // the PowerDNS misconfiguration (10.0.0.0/8)
  kOmitOption,        // send no ECS at all
};

struct ResolverConfig {
  std::string label = "resolver";

  ProbingStrategy probing = ProbingStrategy::kAlways;
  // Probe cadence for kPeriodicLoopbackProbe (the paper saw multiples of
  // 30 minutes).
  SimTime probe_interval = 30 * netsim::kMinute;
  // Names treated as probe hostnames by the kProbeHostnames* strategies; a
  // name matches if it equals an entry or falls under it.
  std::vector<Name> probe_hostnames;
  // Zones toward which kZoneWhitelist sends ECS.
  std::vector<Name> zone_whitelist;
  // ECS probability for kIrregular (deterministically seeded per resolver).
  double irregular_probability = 0.5;
  std::uint64_t irregular_seed = 0;

  // --- source prefix construction (§6.2, Table 1) ---
  int v4_source_bits = 24;  // RFC recommends <= 24
  int v6_source_bits = 56;  // RFC recommends <= 56
  // "Jammed last byte": claim source length 32 while fixing the final
  // octet, effectively revealing 24 bits but advertising 32 (the dominant
  // Chinese-AS behavior in both datasets).
  bool jam_last_octet = false;
  std::uint8_t jam_octet_value = 0x01;
  // Some resolvers alternate between several source lengths (Table 1's
  // combination rows). When non-empty this cycles per upstream ECS query,
  // overriding v4_source_bits/jam_last_octet.
  struct SourceLengthVariant {
    int bits = 24;
    bool jam = false;
  };
  std::vector<SourceLengthVariant> v4_variants;
  // Same alternation for IPv6 prefixes (Table 1's "64,96,128 (IPv6)" row).
  std::vector<int> v6_variants;

  // --- client-supplied ECS handling ---
  // Accept an ECS option arriving with the client query (the 32 resolvers
  // of §6.3.1 that let the authors submit arbitrary prefixes). When false
  // the resolver derives ECS from the immediate sender address — the
  // behavior that makes hidden resolvers poison user mapping (§8.2).
  bool accept_client_ecs = false;
  // Cap applied to client-supplied prefixes and to authoritative scopes.
  // 24 for compliant resolvers, 22 for the clamp-22 deviants, 32 for the
  // long-prefix acceptors that violate the privacy recommendation.
  int max_cache_prefix_v4 = 24;
  int max_cache_prefix_v6 = 56;

  ScopeHandling scope_handling = ScopeHandling::kHonor;
  // Extension (the paper's §9 asks whether any resolver does this): learn
  // the authoritative scope per zone and truncate future source prefixes
  // to it — revealing no more client bits than the zone demonstrably uses.
  bool adapt_source_to_scope = false;
  // The §6.3.2 misconfigured resolver: does not cache (or reuse) responses
  // whose scope is 0.
  bool cache_scope_zero = true;

  SelfIdentification self_identification = SelfIdentification::kOwnPublicAddress;
  // Clients that may have their real subnet forwarded; when non-empty and a
  // client is not covered, the resolver substitutes self-identification
  // (the PowerDNS whitelist behavior of §8.1).
  std::vector<Prefix> client_ecs_whitelist;

  // Violates RFC outright: sends ECS even on queries to root servers
  // (§6.1 found 15 such resolvers in DITL data).
  bool ecs_to_root_servers = false;
  // QNAME minimization (RFC 7816): sends only the label under the current
  // delegation point to root/TLD servers (as an NS query), so
  // infrastructure servers never learn the full hostname — a privacy
  // measure complementary to the ECS hygiene the paper advocates.
  bool qname_minimization = false;
  // Sends ECS on NS queries (answered with zero scope per the RFC).
  bool ecs_on_ns_queries = false;

  // --- cache memory bound ---
  // Default-constructed (unbounded) reproduces the paper's infinite-cache
  // assumption; set capacity_entries + policy to study eviction under ECS
  // blow-up.
  CacheConfig cache;

  // --- presets matching the paper's behavior classes ---
  static ResolverConfig correct();              // §6.3.2 category 1 (76 resolvers)
  static ResolverConfig google_like();          // /24, always-send, correct caching
  static ResolverConfig scope_ignorer();        // §6.3.2 category 2 (103 resolvers)
  static ResolverConfig long_prefix_acceptor(); // §6.3.2 category 3 (15 resolvers)
  static ResolverConfig clamp22();              // §6.3.2 category 4 (8 resolvers)
  static ResolverConfig private_block_bug();    // §6.3.2 category 5 (1 resolver)
  static ResolverConfig jammed_32();            // dominant-AS /32 jammed last byte
  static ResolverConfig periodic_loopback_prober();  // §6.1 pattern 3 (32)
  static ResolverConfig hostname_prober_nocache();   // §6.1 pattern 2 (258)
  static ResolverConfig hostname_prober_onmiss();    // §6.1 pattern 4 (88)
};

}  // namespace ecsdns::resolver
