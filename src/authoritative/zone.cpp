#include "authoritative/zone.h"

#include <stdexcept>

#include "dnscore/contracts.h"

namespace ecsdns::authoritative {

Zone::Zone(Name apex) : apex_(std::move(apex)) {}

void Zone::add(ResourceRecord rr) {
  if (!rr.name.is_subdomain_of(apex_)) {
    throw std::invalid_argument("record " + rr.name.to_string() + " outside zone " +
                                apex_.to_string());
  }
  records_[rr.name].push_back(std::move(rr));
  ++record_count_;
}

void Zone::delegate(const Name& child, const std::vector<ResourceRecord>& ns_records,
                    const std::vector<ResourceRecord>& glue) {
  if (!child.is_subdomain_of(apex_) || child == apex_) {
    throw std::invalid_argument("delegation " + child.to_string() +
                                " not below zone apex " + apex_.to_string());
  }
  delegations_[child] = Delegation{ns_records, glue};
}

ZoneLookupRef Zone::lookup_ref(const Name& qname, RRType qtype) const {
  ZoneLookupRef out;
  if (!qname.is_subdomain_of(apex_)) {
    out.kind = ZoneLookup::Kind::kNotInZone;
    return out;
  }

  // Check delegation cuts between the apex and the qname (walking from the
  // qname up so the deepest cut wins; there is at most one in practice).
  Name walk = qname;
  while (walk != apex_) {
    // The walk stays inside the zone: qname passed the subdomain check and
    // parent() only ever strips leading labels.
    ECSDNS_DCHECK(walk.is_subdomain_of(apex_));
    const auto dit = delegations_.find(walk);
    if (dit != delegations_.end()) {
      out.kind = ZoneLookup::Kind::kDelegation;
      out.records = &dit->second.ns;
      out.glue = &dit->second.glue;
      return out;
    }
    if (walk.is_root()) break;
    walk = walk.parent();
  }

  const auto it = records_.find(qname);
  if (it == records_.end()) {
    out.kind = ZoneLookup::Kind::kNxDomain;
    return out;
  }
  // CNAME takes precedence unless the query asks for CNAME (or ANY).
  if (qtype != RRType::CNAME && qtype != RRType::ANY) {
    for (const auto& rr : it->second) {
      if (rr.type == RRType::CNAME) {
        out.kind = ZoneLookup::Kind::kCname;
        out.cname = &rr;
        return out;
      }
    }
  }
  bool any_of_type = false;
  for (const auto& rr : it->second) {
    // add() rejects out-of-zone records, so the bucket only ever holds
    // records owned by the exact name it is keyed under.
    ECSDNS_DCHECK(rr.name == qname);
    if (rr.type == qtype || qtype == RRType::ANY) any_of_type = true;
  }
  out.records = &it->second;
  out.kind = any_of_type ? ZoneLookup::Kind::kAnswer : ZoneLookup::Kind::kNoData;
  return out;
}

bool Zone::contains(const Name& name) const {
  return records_.find(name) != records_.end();
}

}  // namespace ecsdns::authoritative
