#include "inputs.h"

#include <string>

#include "authoritative/ecs_policy.h"
#include "dnscore/ecs.h"
#include "dnscore/message.h"
#include "harness.h"

namespace perfbench {

using namespace ecsdns;
using dnscore::IpAddress;
using dnscore::Name;

measurement::PublicResolverCdnConfig fleet_config(std::uint64_t seed) {
  measurement::PublicResolverCdnConfig config;
  config.resolvers = 200000;
  config.min_clients_per_resolver = 2;
  config.max_clients_per_resolver = 64;
  config.min_qps = 0.02;
  config.max_qps = 0.5;
  config.hostnames = 1000;
  config.duration = 20 * netsim::kSecond;
  config.seed = seed;
  return config;
}

measurement::PublicResolverCdnConfig dense_config(std::uint64_t seed) {
  measurement::PublicResolverCdnConfig config;
  config.resolvers = 64;
  // Narrower load and population ranges than the paper's keep the total
  // work of a sweep nearly the same for every seed.
  config.min_clients_per_resolver = 800;
  config.max_clients_per_resolver = 1600;
  config.min_qps = 60;
  config.max_qps = 120;
  // Scopes are drawn per hostname, so with the paper's steep popularity
  // skew the seed's draw for the top few names would decide the whole
  // sweep; a flatter skew averages over many names.
  config.zipf_exponent = 0.6;
  config.duration = 30 * netsim::kSecond;
  config.seed = seed;
  return config;
}

measurement::WorkloadOptions ResolverBed::slice(std::uint64_t index) const {
  measurement::WorkloadOptions options;
  options.hostnames = hostnames;
  options.duration = 5 * netsim::kMinute;
  options.seed = SplitMix(seed ^ (index * 0x9e3779b97f4a7c15ull)).next();
  return options;
}

std::unique_ptr<ResolverBed> build_resolver_bed(std::uint64_t seed) {
  auto out = std::make_unique<ResolverBed>();
  out->seed = seed;
  const Name zone = Name::from_string("cdn.example");
  out->cdn = &out->bed.add_auth(
      "cdn", zone, "Ashburn",
      std::make_unique<authoritative::FixedScopePolicy>(kResolverScope));
  for (int i = 0; i < 64; ++i) {
    const Name host = zone.prepend("h" + std::to_string(i));
    const IpAddress answer =
        IpAddress::v4(203, 0, static_cast<std::uint8_t>(113 + i / 200),
                      static_cast<std::uint8_t>(1 + i % 200));
    out->cdn->find_zone(zone)->add(
        dnscore::ResourceRecord::make_a(host, 20, answer));
    out->hostnames.push_back(host);
    out->answers.push_back(answer);
  }
  measurement::CdnFleetOptions fleet_options;
  fleet_options.scale = 1;
  // The fleet is the system under test and stays fixed; the seed picks
  // the client traffic (ResolverBed::slice).
  fleet_options.probe_names = {out->hostnames[0], out->hostnames[1]};
  out->fleet = measurement::build_cdn_dataset_fleet(out->bed, fleet_options);
  return out;
}

std::unique_ptr<authoritative::AuthServer> make_live_auth() {
  authoritative::AuthConfig config;
  config.label = "perfbench-live";
  config.log_queries = false;  // required when serving from several shards
  auto auth = std::make_unique<authoritative::AuthServer>(
      config, std::make_unique<authoritative::ScopeDeltaPolicy>(kLiveScopeDelta));
  const Name zone = Name::from_string("bench.example");
  auth->add_zone(zone).add(dnscore::ResourceRecord::make_a(
      zone.prepend("www"), 300, IpAddress::v4(203, 0, 113, 10)));
  return auth;
}

LiveQueries make_live_queries(std::uint64_t seed) {
  LiveQueries out;
  const Name qname = Name::from_string("www.bench.example");
  SplitMix rng(seed);
  // Template 0 carries no ECS; the rest carry ECS from distinct /24s.
  constexpr std::uint32_t kEcsTemplates = 511;
  out.wires.push_back(
      dnscore::Message::make_query(1, qname, dnscore::RRType::A).serialize());
  const auto offset = static_cast<std::uint32_t>(rng.below(1 << 16));
  for (std::uint32_t i = 0; i < kEcsTemplates; ++i) {
    auto query = dnscore::Message::make_query(1, qname, dnscore::RRType::A);
    // 10.x.y.0/24 with x.y distinct per template.
    const std::uint32_t block = (10u << 24) | (((offset + i) & 0xffffu) << 8);
    query.set_ecs(dnscore::EcsOption::for_query(
        dnscore::Prefix(IpAddress::v4(block), 24)));
    out.wires.push_back(query.serialize());
  }
  out.sequence.resize(1 << 16);
  for (auto& t : out.sequence) {
    t = rng.below(2) == 0 ? 0
                          : 1 + static_cast<std::uint32_t>(rng.below(kEcsTemplates));
  }
  return out;
}

}  // namespace perfbench
