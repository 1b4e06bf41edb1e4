#include "measurement/fleet.h"

#include <algorithm>

namespace ecsdns::measurement {
namespace {

using netsim::Rng;
using resolver::ProbingStrategy;
using resolver::ScopeHandling;
using resolver::SelfIdentification;

const char* kChineseCities[] = {"Beijing", "Shanghai", "Guangzhou", "Shenzhen",
                                "Chengdu"};
const char* kGlobalCities[] = {"New York", "London",  "Frankfurt", "Tokyo",
                               "Sydney",   "Toronto", "Sao Paulo", "Mumbai",
                               "Warsaw",   "Madrid",  "Seoul",     "Amsterdam"};
// The public service's egress sites (anycast-style footprint).
const char* kMpSites[] = {"Mountain View", "Ashburn", "Frankfurt", "Singapore",
                          "Sao Paulo",     "Taipei",  "Sydney",    "Dublin"};

int scaled(int count, int scale) { return std::max(1, count / scale); }

// Stable pseudo-ASN per AS label so the AsnDb mirrors fleet metadata.
std::uint32_t asn_for(const std::string& as_label) {
  std::uint32_t h = 2166136261u;
  for (const char c : as_label) {
    h = (h ^ static_cast<std::uint8_t>(c)) * 16777619u;
  }
  return 64512u + h % 1000u;  // private-use ASN range
}

FleetMember make_member(Testbed& bed, resolver::ResolverConfig config,
                        const std::string& city, const std::string& behavior,
                        const std::string& country,
                        const std::string& as_label = "") {
  auto& r = bed.add_resolver(std::move(config), city);
  FleetMember m;
  m.resolver = &r;
  m.address = r.address();
  m.behavior = behavior;
  m.as_label = as_label.empty() ? behavior : as_label;
  m.country = country;
  m.city = city;
  bed.attribute(m.address,
                netsim::AsInfo{asn_for(m.as_label), m.as_label, country});
  return m;
}

}  // namespace

std::size_t Fleet::total_forwarders() const {
  std::size_t n = 0;
  for (const auto& m : members) n += m.forwarders.size();
  return n;
}

std::vector<const FleetMember*> Fleet::in_as(const std::string& as_label) const {
  std::vector<const FleetMember*> out;
  for (const auto& m : members) {
    if (m.as_label == as_label) out.push_back(&m);
  }
  return out;
}

Fleet build_cdn_dataset_fleet(Testbed& bed, const CdnFleetOptions& options) {
  Rng rng(options.seed);
  Fleet fleet;
  for (const auto& name : options.probe_names) fleet.names.intern(name);
  const int s = options.scale;

  const auto china_city = [&rng]() {
    return kChineseCities[rng.uniform(std::size(kChineseCities))];
  };
  const auto global_city = [&rng]() {
    return kGlobalCities[rng.uniform(std::size(kGlobalCities))];
  };

  // --- the dominant Chinese AS: 3067 resolvers, always-send ---
  // 2912 jam the last byte of a claimed /32; the rest send true /32.
  const int dominant_jam = scaled(2912, s);
  const int dominant_full = scaled(155, s);
  for (int i = 0; i < dominant_jam + dominant_full; ++i) {
    resolver::ResolverConfig c = resolver::ResolverConfig::jammed_32();
    if (i >= dominant_jam) {
      c = resolver::ResolverConfig::correct();
      c.v4_source_bits = 32;
      c.max_cache_prefix_v4 = 32;
      c.accept_client_ecs = false;
    }
    c.label = "dominant-" + std::to_string(i);
    fleet.members.push_back(
        make_member(bed, std::move(c), china_city(), "AS-CN-dominant", "CN"));
  }

  // --- remaining 1080 resolvers across 82 ASes ---
  // Probing mix: 315 always + 258 hostname/nocache + 32 periodic-loopback +
  // 88 hostname/on-miss + 387 irregular.
  struct ProbeClass {
    int count;
    ProbingStrategy strategy;
  };
  const ProbeClass probe_classes[] = {
      {scaled(315, s), ProbingStrategy::kAlways},
      {scaled(258, s), ProbingStrategy::kProbeHostnamesNoCache},
      {scaled(32, s), ProbingStrategy::kPeriodicLoopbackProbe},
      {scaled(88, s), ProbingStrategy::kProbeHostnamesOnMiss},
      {scaled(387, s), ProbingStrategy::kIrregular},
  };

  // Source-length mix for the non-dominant resolvers (our Table 1 CDN
  // column calibration; see EXPERIMENTS.md for the mapping to the paper).
  struct LengthClass {
    int count;
    std::vector<resolver::ResolverConfig::SourceLengthVariant> variants;
  };
  std::vector<LengthClass> lengths;
  lengths.push_back({scaled(762, s), {{24, false}}});
  lengths.push_back({scaled(60, s), {{18, false}}});
  lengths.push_back({scaled(19, s), {{22, false}}});
  lengths.push_back({scaled(66, s), {{32, false}}});
  lengths.push_back({scaled(90, s), {{32, true}}});
  lengths.push_back({scaled(1, s), {{25, false}}});
  lengths.push_back({scaled(78, s), {{25, false}, {32, true}}});
  lengths.push_back({scaled(3, s), {{24, false}, {32, true}}});
  lengths.push_back({scaled(1, s), {{24, false}, {25, false}, {32, true}}});
  std::size_t length_cursor = 0;
  int length_used = 0;
  const auto next_lengths =
      [&]() -> std::vector<resolver::ResolverConfig::SourceLengthVariant> {
    while (length_cursor < lengths.size() &&
           length_used >= lengths[length_cursor].count) {
      ++length_cursor;
      length_used = 0;
    }
    if (length_cursor >= lengths.size()) return {{24, false}};
    ++length_used;
    return lengths[length_cursor].variants;
  };

  int serial = 0;
  for (const auto& pc : probe_classes) {
    for (int i = 0; i < pc.count; ++i, ++serial) {
      resolver::ResolverConfig c;
      c.probing = pc.strategy;
      c.label = resolver::to_string(pc.strategy) + "-" + std::to_string(serial);
      c.v4_variants = next_lengths();
      switch (pc.strategy) {
        case ProbingStrategy::kProbeHostnamesNoCache:
        case ProbingStrategy::kProbeHostnamesOnMiss:
          c.probe_hostnames = options.probe_names;
          break;
        case ProbingStrategy::kPeriodicLoopbackProbe:
          // "A multiple of 30 minutes": spread 30/60/90 across resolvers.
          c.probe_interval = (30 + 30 * static_cast<int>(rng.uniform(3))) *
                             netsim::kMinute;
          c.self_identification = SelfIdentification::kLoopback;
          break;
        case ProbingStrategy::kIrregular:
          c.irregular_probability = 0.2 + 0.6 * rng.uniform_double();
          c.irregular_seed = rng.next_u64();
          c.probe_hostnames = options.probe_names;
          break;
        default:
          break;
      }
      const bool chinese = rng.chance(0.25);
      fleet.members.push_back(make_member(
          bed, std::move(c), chinese ? china_city() : global_city(),
          "AS-" + std::to_string(100 + serial % 82), chinese ? "CN" : "XX"));
    }
  }

  // --- IPv6-serving resolvers (Table 1's "(IPv6)" rows) ---
  // These resolvers serve IPv6 client populations, so their ECS options
  // carry family 2. Source-length calibration per EXPERIMENTS.md.
  if (options.include_v6) {
    struct V6Class {
      int count;
      std::vector<int> bits;
    };
    const V6Class v6_classes[] = {
        {scaled(44, s), {32}}, {scaled(56, s), {48}}, {scaled(33, s), {56}},
        {scaled(1, s), {64}},  {scaled(3, s), {64, 96, 128}},
    };
    int v6_serial = 0;
    for (const auto& vc : v6_classes) {
      for (int i = 0; i < vc.count; ++i, ++v6_serial) {
        resolver::ResolverConfig c;
        c.probing = ProbingStrategy::kAlways;
        c.label = "v6-" + std::to_string(v6_serial);
        c.v6_source_bits = vc.bits.front();
        if (vc.bits.size() > 1) c.v6_variants = vc.bits;
        // Privacy caps must not clip the announced length for this census.
        c.max_cache_prefix_v6 = 128;
        FleetMember m = make_member(bed, std::move(c), global_city(),
                                    "AS-V6-" + std::to_string(v6_serial % 9), "XX");
        m.v6_clients = true;
        fleet.members.push_back(std::move(m));
      }
    }
  }
  return fleet;
}

Fleet build_scan_dataset_fleet(Testbed& bed, const ScanFleetOptions& options) {
  Rng rng(options.seed);
  Fleet fleet;
  const int s = options.scale;

  struct Spec {
    int count;
    resolver::ResolverConfig config;
    std::string as_label;
    std::string country;
    bool reachable;
    bool mp;  // member of the major public service
    // Members reachable through a single forwarder are discovered by the
    // scan but cannot be studied with the two-forwarder caching technique
    // (the paper's 75 "no appropriate forwarders" resolvers).
    bool single_forwarder = false;
  };
  std::vector<Spec> specs;

  // The major public service: 1256 egress IPs, /24, compliant caching,
  // overrides any client-supplied ECS with the sender's prefix.
  {
    Spec g;
    g.count = scaled(1256, s);
    g.config = resolver::ResolverConfig::google_like();
    g.as_label = "AS-MP";
    g.country = "US";
    g.reachable = true;
    g.mp = true;
    specs.push_back(std::move(g));
  }
  // 278 other egress resolvers with the §6.3.2 caching-behavior mix.
  {
    // 9 of the correct resolvers accept arbitrary client ECS (open to the
    // paper's direct probing technique); the other 67 do not.
    Spec c1;
    c1.count = scaled(9, s);
    c1.config = resolver::ResolverConfig::correct();
    c1.as_label = "AS-OK-open";
    c1.country = "XX";
    c1.reachable = true;
    c1.mp = false;
    specs.push_back(std::move(c1));
    Spec c2;
    c2.count = scaled(67, s);
    c2.config = resolver::ResolverConfig::correct();
    c2.config.accept_client_ecs = false;
    c2.as_label = "AS-OK";
    c2.country = "XX";
    c2.reachable = true;
    c2.mp = false;
    specs.push_back(std::move(c2));
    Spec ign;
    ign.count = scaled(103, s);
    ign.config = resolver::ResolverConfig::scope_ignorer();
    ign.as_label = "AS-IGN";
    ign.country = "CN";
    ign.reachable = true;
    ign.mp = false;
    specs.push_back(std::move(ign));
    Spec lp;
    lp.count = scaled(15, s);
    lp.config = resolver::ResolverConfig::long_prefix_acceptor();
    lp.as_label = "AS-LONG";
    lp.country = "XX";
    lp.reachable = true;
    lp.mp = false;
    specs.push_back(std::move(lp));
    Spec cl;
    cl.count = scaled(8, s);
    cl.config = resolver::ResolverConfig::clamp22();
    cl.as_label = "AS-CLAMP";
    cl.country = "XX";
    cl.reachable = true;
    cl.mp = false;
    specs.push_back(std::move(cl));
    Spec pb;
    pb.count = scaled(1, s);
    pb.config = resolver::ResolverConfig::private_block_bug();
    pb.as_label = "AS-PRIV";
    pb.country = "XX";
    pb.reachable = true;
    pb.mp = false;
    specs.push_back(std::move(pb));
    Spec un;
    un.count = scaled(75, s);
    un.config = resolver::ResolverConfig::correct();
    // Unreachable means unreachable: closed to external queries and client
    // ECS, with no open forwarders pointing at them.
    un.config.accept_client_ecs = false;
    un.as_label = "AS-UNSTUDIED";
    un.country = "XX";
    un.reachable = true;
    un.single_forwarder = true;  // discoverable, but no forwarder *pair*
    un.mp = false;
    specs.push_back(std::move(un));
  }

  // Source-length calibration for the non-MP resolvers (scan column of
  // Table 1): 128 @24, 130 jammed /32 (mostly Chinese), 8 @22, 3 @18,
  // 1 @25, 8 @32. Applied round-robin across the non-MP members.
  struct LenMix {
    int count;
    int bits;
    bool jam;
  };
  // The 8 clamp-22 resolvers are the table's @22 row; they keep their own
  // prefix behavior, so the mix below covers the remaining 270.
  std::vector<LenMix> len_mix = {{scaled(128, s), 24, false}, {scaled(130, s), 32, true},
                                 {scaled(3, s), 18, false},   {scaled(1, s), 25, false},
                                 {scaled(8, s), 32, false}};
  std::size_t mix_cursor = 0;
  int mix_used = 0;
  const auto apply_length = [&](resolver::ResolverConfig& c) {
    if (c.label.rfind("clamp-22", 0) == 0) return;
    while (mix_cursor < len_mix.size() && mix_used >= len_mix[mix_cursor].count) {
      ++mix_cursor;
      mix_used = 0;
    }
    if (mix_cursor >= len_mix.size()) return;
    ++mix_used;
    const auto& m = len_mix[mix_cursor];
    c.v4_source_bits = m.bits;
    c.jam_last_octet = m.jam;
  };

  // Forwarder/hidden address plan: egress e's forwarders share the /16
  // "6x.(e % 250).0.0" while landing in distinct /24s — the layout the §6.3
  // two-forwarder probing technique requires.
  int egress_serial = 0;
  int member_serial = 0;
  for (auto& spec : specs) {
    for (int i = 0; i < spec.count; ++i, ++member_serial) {
      resolver::ResolverConfig config = spec.config;
      config.label += "-" + std::to_string(member_serial);
      if (!spec.mp) apply_length(config);

      // §6.2: 118 of the 130 jammed-/32 senders sit in Chinese ASes.
      std::string country = spec.country;
      if (config.jam_last_octet && rng.chance(118.0 / 130.0)) country = "CN";

      std::string city;
      if (spec.mp) {
        city = kMpSites[rng.uniform(std::size(kMpSites))];
      } else if (country == "CN") {
        city = kChineseCities[rng.uniform(std::size(kChineseCities))];
      } else {
        city = kGlobalCities[rng.uniform(std::size(kGlobalCities))];
      }
      // Spread non-MP members across many ASes (the paper: 45 non-Google
      // ASes, 19 of them Chinese); the public service stays one AS.
      std::string as_label = spec.as_label;
      if (!spec.mp) {
        as_label = country == "CN"
                       ? "AS-CN-" + std::to_string(member_serial % 19)
                       : "AS-GL-" + std::to_string(member_serial % 26);
      }
      FleetMember member = make_member(bed, std::move(config), city,
                                       spec.as_label, country, as_label);

      if (spec.reachable) {
        const int e = egress_serial++;
        const int forwarder_count =
            spec.single_forwarder ? 1 : options.forwarders_per_egress;
        for (int f = 0; f < forwarder_count; ++f) {
          const std::uint32_t fwd_bits =
              ((60u + static_cast<std::uint32_t>(e) / 250) << 24) |
              ((static_cast<std::uint32_t>(e) % 250) << 16) |
              (static_cast<std::uint32_t>(f) << 8) | 0x25u;
          const IpAddress fwd_addr = IpAddress::v4(fwd_bits);
          // Forwarders sit where clients sit: mostly far from the egress.
          const std::string fwd_city = bed.world().random_city(rng).name;

          resolver::Forwarder* hidden = nullptr;
          IpAddress chain_upstream = member.address;
          if (rng.chance(options.hidden_chain_fraction)) {
            const std::uint32_t hid_bits =
                ((70u + static_cast<std::uint32_t>(e) / 250) << 24) |
                ((static_cast<std::uint32_t>(e) % 250) << 16) |
                (static_cast<std::uint32_t>(f) << 8) | 0x25u;
            const IpAddress hid_addr = IpAddress::v4(hid_bits);
            std::string hid_city;
            if (rng.chance(options.hidden_farther_fraction)) {
              // The pathological case: a hidden resolver on another
              // continent (the paper's Santiago-via-Italy combination).
              hid_city = bed.world().random_city(rng).name;
            } else if (rng.chance(options.hidden_at_egress_fraction)) {
              hid_city = member.city;  // co-located with the egress
            } else {
              hid_city = fwd_city;  // co-located with the forwarder
            }
            hidden = &bed.add_forwarder_at(hid_addr, hid_city, member.address);
            chain_upstream = hid_addr;
          }
          member.forwarders.push_back(
              &bed.add_forwarder_at(fwd_addr, fwd_city, chain_upstream));
          member.hidden.push_back(hidden);
        }
      }
      fleet.members.push_back(std::move(member));
    }
  }
  return fleet;
}

}  // namespace ecsdns::measurement
