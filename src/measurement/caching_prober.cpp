#include "measurement/caching_prober.h"

#include <algorithm>

namespace ecsdns::measurement {
namespace {

using dnscore::EcsOption;
using dnscore::Prefix;

// An EcsPolicy whose scope is a dial the prober turns between trials.
class MutableScopePolicy : public authoritative::EcsPolicy {
 public:
  explicit MutableScopePolicy(std::shared_ptr<int> scope) : scope_(std::move(scope)) {}

  authoritative::EcsDecision decide(const dnscore::Question&,
                                    const EcsOption* ecs,
                                    const IpAddress&) const override {
    authoritative::EcsDecision d;
    if (!ecs) return d;
    d.include_option = true;
    d.scope = *scope_;
    return d;
  }

 private:
  std::shared_ptr<int> scope_;
};

EcsOption marker_ecs(std::uint8_t third_octet, int bits) {
  return EcsOption::for_query(
      Prefix{dnscore::IpAddress::v4(9, 9, third_octet, 16), bits});
}

}  // namespace

std::string to_string(CachingClass c) {
  switch (c) {
    case CachingClass::kCorrect: return "correct";
    case CachingClass::kIgnoresScope: return "ignores-scope";
    case CachingClass::kAcceptsLongPrefixes: return "accepts->24-prefixes";
    case CachingClass::kClamp22: return "clamps-at-22";
    case CachingClass::kPrivatePrefixBug: return "private-prefix-bug";
    case CachingClass::kUnstudied: return "unstudied";
    case CachingClass::kOther: return "other";
  }
  return "?";
}

CachingProber::CachingProber(Testbed& bed) : bed_(bed) {
  zone_ = Name::from_string("cachingprobe.net");
  scope_knob_ = std::make_shared<int>(24);
  auth_ = &bed_.add_auth("caching-probe-auth", zone_, "Cleveland",
                         std::make_unique<MutableScopePolicy>(scope_knob_));
  client_ = &bed_.add_client("Cleveland");
}

void CachingProber::set_scope(int scope) { *scope_knob_ = scope; }

Name CachingProber::fresh_name() {
  const Name qname = zone_.prepend("t" + std::to_string(serial_++));
  auth_->find_zone(zone_)->add(
      dnscore::ResourceRecord::make_a(qname, 300, IpAddress::v4(192, 0, 2, 7)));
  return qname;
}

std::size_t CachingProber::upstream_queries_for(const Name& qname) const {
  std::size_t n = 0;
  for (const auto& e : auth_->log()) {
    if (e.qname == qname) ++n;
  }
  return n;
}

CachingVerdict CachingProber::probe(const FleetMember& member) {
  CachingVerdict v;
  v.egress = member.address;

  // --- Step 1: does the resolver accept arbitrary client ECS? ---
  {
    const Name probe = fresh_name();
    client_->probe(member.address, probe, dnscore::RRType::A, marker_ecs(4, 24));
    for (const auto& e : auth_->log()) {
      if (e.qname != probe || !e.query_ecs) continue;
      const auto src = e.query_ecs->source_prefix();
      if (src && src->address().bytes()[0] == 9 && src->address().bytes()[1] == 9) {
        v.accepts_client_ecs = true;
      }
    }
  }

  // Delivery abstraction: run one two-identity trial for a fresh name and
  // return how many upstream queries our authoritative saw.
  // `same16` identities differ in /24 but share a /16.
  const auto trial = [&](int scope) -> std::size_t {
    set_scope(scope);
    const Name qname = fresh_name();
    if (v.accepts_client_ecs) {
      client_->probe(member.address, qname, dnscore::RRType::A, marker_ecs(4, 24));
      client_->probe(member.address, qname, dnscore::RRType::A, marker_ecs(5, 24));
      return upstream_queries_for(qname);
    }
    // Two-forwarder technique: pick two chains of the same shape (both
    // direct or both via hidden resolvers) so the egress-visible
    // identities land in different /24s of one /16.
    const Forwarder* f1 = nullptr;
    const Forwarder* f2 = nullptr;
    for (std::size_t i = 0; i < member.forwarders.size() && f2 == nullptr; ++i) {
      for (std::size_t j = i + 1; j < member.forwarders.size(); ++j) {
        const bool hi = member.hidden.size() > i && member.hidden[i] != nullptr;
        const bool hj = member.hidden.size() > j && member.hidden[j] != nullptr;
        if (hi == hj) {
          f1 = member.forwarders[i];
          f2 = member.forwarders[j];
          break;
        }
      }
    }
    if (f1 == nullptr || f2 == nullptr) return 0;  // unstudiable
    client_->probe(f1->address(), qname, dnscore::RRType::A);
    client_->probe(f2->address(), qname, dnscore::RRType::A);
    return upstream_queries_for(qname);
  };

  const std::size_t at24 = trial(24);
  const std::size_t at16 = trial(16);
  const std::size_t at0 = trial(0);
  if (at24 == 0) {
    v.cls = CachingClass::kUnstudied;
    return v;
  }
  v.honors_scope24 = at24 == 2;
  v.reuses_scope16 = at16 == 1;
  v.reuses_scope0 = at0 == 1;

  // --- Step 2: prefix-length handling for arbitrary-ECS resolvers ---
  if (v.accepts_client_ecs) {
    set_scope(24);
    const Name qname = fresh_name();
    client_->probe(member.address, qname, dnscore::RRType::A, marker_ecs(4, 28));
  }
  for (const auto& e : auth_->log()) {
    if (!e.query_ecs || e.sender != member.address) continue;
    v.max_source_seen = std::max(v.max_source_seen,
                                 static_cast<int>(e.query_ecs->source_prefix_length()));
    const auto src = e.query_ecs->source_prefix();
    if (src && src->address().is_private()) v.private_prefix_seen = true;
  }

  // Jammed /32 senders advertise 32 bits while revealing 24; do not count
  // the advertised length as "long prefix acceptance" unless the resolver
  // actually relayed client bits past 24.
  bool relayed_long_client_bits = false;
  bool clamped_to_22 = false;
  if (v.accepts_client_ecs) {
    for (const auto& e : auth_->log()) {
      if (!e.query_ecs || e.sender != member.address) continue;
      const auto src = e.query_ecs->source_prefix();
      if (!src || src->address().bytes()[0] != 9) continue;
      if (src->length() > 24) relayed_long_client_bits = true;
      if (src->length() == 22) clamped_to_22 = true;
    }
  }

  // --- classification ---
  if (v.private_prefix_seen && !v.reuses_scope0) {
    v.cls = CachingClass::kPrivatePrefixBug;
  } else if (clamped_to_22) {
    v.cls = CachingClass::kClamp22;
  } else if (relayed_long_client_bits) {
    v.cls = CachingClass::kAcceptsLongPrefixes;
  } else if (!v.honors_scope24) {
    v.cls = CachingClass::kIgnoresScope;
  } else if (v.honors_scope24 && v.reuses_scope16 && v.reuses_scope0) {
    v.cls = CachingClass::kCorrect;
  } else {
    v.cls = CachingClass::kOther;
  }
  return v;
}

std::vector<CachingVerdict> CachingProber::probe_fleet(const Fleet& fleet) {
  std::vector<CachingVerdict> out;
  out.reserve(fleet.members.size());
  for (const auto& member : fleet.members) {
    // Skip members with no delivery path at all.
    if (member.forwarders.empty()) {
      CachingVerdict v;
      v.egress = member.address;
      v.cls = CachingClass::kUnstudied;
      // Direct probing may still work if the resolver accepts client ECS;
      // probe() handles that, so only shortcut when it cannot.
      out.push_back(probe(member));
      out.back().cls = out.back().accepts_client_ecs ? out.back().cls
                                                     : CachingClass::kUnstudied;
      continue;
    }
    out.push_back(probe(member));
  }
  return out;
}

std::map<CachingClass, std::size_t> CachingProber::histogram(
    const std::vector<CachingVerdict>& verdicts) {
  std::map<CachingClass, std::size_t> out;
  for (const auto& v : verdicts) ++out[v.cls];
  return out;
}

}  // namespace ecsdns::measurement
