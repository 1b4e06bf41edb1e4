// §8.2's proposed mitigation, built and measured: "develop trust between
// hidden and egress resolvers so that hidden resolvers would include ECS
// prefixes based on end-client subnets, and egress resolvers would pass
// this information (provided it comes from trusted senders) to the
// authoritative nameservers, rather than replacing it with prefixes based
// on the sender IP addresses."
//
// Setup: the paper's verified worst case — client and forwarder in
// Santiago, hidden resolver in Milan, egress in Santiago. Three regimes:
//   1. no ECS anywhere (pre-ECS baseline: mapping by egress location);
//   2. status quo ECS (egress derives ECS from the hidden resolver's IP:
//      the §8.2 pathology — mapping lands in Italy);
//   3. the trusted chain (hidden stamps the forwarder's subnet, egress
//      trusts it: mapping returns to Santiago).
#include <cstdio>

#include "authoritative/ecs_policy.h"
#include "bench_common.h"
#include "measurement/stats.h"
#include "measurement/testbed.h"

using namespace ecsdns;
using namespace ecsdns::measurement;
using dnscore::Name;

namespace {

struct Regime {
  const char* label;
  dnscore::IpAddress edge;
  std::string edge_city;
  double rtt_ms = 0;
};

}  // namespace

int main(int argc, char** argv) {
  ecsdns::bench::ObsSession obs_session(argc, argv, "sec82_trusted_chain");
  bench::banner("sec82_trusted_chain",
                "Section 8.2 mitigation - trusted hidden-resolver chains");
  (void)argc;
  (void)argv;

  std::vector<Regime> regimes;
  for (int regime = 0; regime < 3; ++regime) {
    Testbed bed;
    auto& fleet = bed.add_global_fleet();
    auto& mapping = bed.add_mapping(cdn::ProximityMapping::cdn2_config(), fleet);
    const Name zone = Name::from_string("cdn.example");
    const Name host = zone.prepend("www");
    auto& auth = bed.add_auth(
        "cdn", zone, "Ashburn",
        std::make_unique<authoritative::CdnMappingPolicy>(mapping));
    auth.find_zone(zone)->add(dnscore::ResourceRecord::make_a(
        host, 20, dnscore::IpAddress::parse("203.0.113.1")));
    (void)auth;

    resolver::ResolverConfig egress_config = resolver::ResolverConfig::google_like();
    if (regime == 0) egress_config.probing = resolver::ProbingStrategy::kNever;
    auto& egress = bed.add_resolver(egress_config, "Santiago");
    if (regime == 2) {
      // Trust the hidden resolver's announcements.
      egress.mutable_config().accept_client_ecs = true;
    }

    resolver::ForwarderConfig hidden_config;
    if (regime == 2) hidden_config.stamp_sender_subnet = true;  // the mitigation
    auto& hidden = bed.add_forwarder_at(dnscore::IpAddress::parse("70.1.0.25"),
                                        "Milan", egress.address(), hidden_config);
    auto& fwd = bed.add_forwarder_at(dnscore::IpAddress::parse("60.1.0.25"),
                                     "Santiago", hidden.address());
    auto& client = bed.add_client("Santiago");

    const auto response = client.query(fwd.address(), host, dnscore::RRType::A);
    Regime r;
    r.label = regime == 0   ? "1. no ECS (map by egress)"
              : regime == 1 ? "2. status quo (ECS = hidden resolver)"
                            : "3. trusted chain (ECS = forwarder subnet)";
    if (response && response->first_address()) {
      r.edge = *response->first_address();
      if (const auto where = bed.network().location_of(r.edge)) {
        r.edge_city = bed.world().nearest(*where).name;
      }
      if (const auto rtt = bed.network().ping(client.address(), r.edge)) {
        r.rtt_ms = static_cast<double>(*rtt) /
                   static_cast<double>(netsim::kMillisecond);
      }
    }
    regimes.push_back(std::move(r));
  }

  TextTable table({"regime", "edge chosen", "edge city", "client RTT"});
  for (const auto& r : regimes) {
    table.add_row({r.label, r.edge.to_string(), r.edge_city,
                   TextTable::num(r.rtt_ms, 1) + " ms"});
  }
  std::printf("client+forwarder: Santiago; hidden resolver: Milan; egress: "
              "Santiago\n\n%s\n",
              table.render().c_str());

  bench::compare("status quo ECS vs no ECS", "ECS *worsens* mapping (8% of combos)",
                 regimes[1].rtt_ms > regimes[0].rtt_ms ? "worsens (reproduced)"
                                                       : "no effect");
  bench::compare("trusted chain restores mapping", "the paper's proposal",
                 regimes[2].edge_city == "Santiago" ? "yes - edge back in Santiago"
                                                    : "NO");
  return 0;
}
