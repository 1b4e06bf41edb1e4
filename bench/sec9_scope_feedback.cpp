// §9 (future work): "engage the same resolver repeatedly in a more
// systematic manner and explore if changing the scope in authoritative
// responses would affect the source prefix length of subsequent queries."
//
// We run exactly that experiment against (a) every stock behavior class
// the paper found in the wild, and (b) our adapt-to-scope extension — a
// resolver that learns each zone's demonstrated granularity. The harness
// reports the source length per round as the authoritative's scope varies.
#include <cstdio>

#include "authoritative/ecs_policy.h"
#include "bench_common.h"
#include "measurement/stats.h"
#include "measurement/testbed.h"

using namespace ecsdns;
using namespace ecsdns::measurement;
using dnscore::Name;

namespace {

// An EcsPolicy whose scope follows a per-round schedule.
class ScheduledScopePolicy : public authoritative::EcsPolicy {
 public:
  explicit ScheduledScopePolicy(std::shared_ptr<int> scope) : scope_(std::move(scope)) {}
  authoritative::EcsDecision decide(const dnscore::Question&,
                                    const dnscore::EcsOption* ecs,
                                    const dnscore::IpAddress&) const override {
    authoritative::EcsDecision d;
    if (!ecs) return d;
    d.include_option = true;
    d.scope = std::min<int>(*scope_, ecs->source_prefix_length());
    return d;
  }

 private:
  std::shared_ptr<int> scope_;
};

}  // namespace

int main(int argc, char** argv) {
  ecsdns::bench::ObsSession obs_session(argc, argv, "sec9_scope_feedback");
  bench::banner("sec9_scope_feedback",
                "Section 9 future work - does returned scope steer source length?");
  (void)argc;
  (void)argv;

  Testbed bed;
  const Name zone = Name::from_string("feedback.example");
  auto scope_knob = std::make_shared<int>(24);
  auto& auth = bed.add_auth("feedback", zone, "Ashburn",
                            std::make_unique<ScheduledScopePolicy>(scope_knob));
  auto& client = bed.add_client("Cleveland");

  struct Subject {
    const char* label;
    resolver::ResolverConfig config;
  };
  std::vector<Subject> subjects;
  subjects.push_back({"correct (stock)", resolver::ResolverConfig::correct()});
  subjects.push_back({"jammed /32 (stock)", resolver::ResolverConfig::jammed_32()});
  subjects.push_back({"clamp-22 (stock)", resolver::ResolverConfig::clamp22()});
  {
    resolver::ResolverConfig adaptive = resolver::ResolverConfig::correct();
    adaptive.adapt_source_to_scope = true;
    adaptive.label = "adaptive";
    subjects.push_back({"adapt-to-scope (extension)", adaptive});
  }

  // Scope schedule: generous, then coarse, then generous again — the last
  // phase exposes the adaptation ratchet.
  const int schedule[] = {24, 24, 16, 16, 16, 24, 24};

  TextTable table({"resolver", "round scopes returned", "source lengths sent",
                   "adapts?"});
  for (auto& subject : subjects) {
    auto& resolver = bed.add_resolver(subject.config, "Chicago");
    std::string scopes, sources;
    const std::size_t log_mark = auth.log().size();
    int round = 0;
    for (const int scope : schedule) {
      *scope_knob = scope;
      // A fresh hostname each round defeats caching; fresh client subnets
      // keep identities distinct.
      const Name host = zone.prepend("r" + std::to_string(round++) + "-" +
                                     std::to_string(auth.log().size()));
      auth.find_zone(zone)->add(dnscore::ResourceRecord::make_a(
          host, 20, dnscore::IpAddress::parse("203.0.113.1")));
      dnscore::Message q = dnscore::Message::make_query(1, host, dnscore::RRType::A);
      q.opt = dnscore::OptRecord{};
      resolver.handle_client_query(q, client.address());
      if (!scopes.empty()) scopes += " ";
      scopes += std::to_string(scope);
    }
    int first_len = -1, last_len = -1;
    for (std::size_t i = log_mark; i < auth.log().size(); ++i) {
      const auto& e = auth.log()[i];
      if (!e.query_ecs) continue;
      if (!sources.empty()) sources += " ";
      sources += std::to_string(e.query_ecs->source_prefix_length());
      if (first_len < 0) first_len = e.query_ecs->source_prefix_length();
      last_len = e.query_ecs->source_prefix_length();
    }
    table.add_row({subject.label, scopes, sources,
                   first_len != last_len ? "YES" : "no"});
  }
  std::printf("%s\n", table.render().c_str());

  bench::compare("stock resolvers adapt source to scope",
                 "unknown (the open question)", "no - lengths are static policy");
  bench::compare("adapt-to-scope extension", "n/a (our extension)",
                 "adapts downward; note the ratchet: scope can never exceed "
                 "the source, so learning only tightens");
  return 0;
}
