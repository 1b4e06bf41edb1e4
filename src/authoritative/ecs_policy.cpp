#include "authoritative/ecs_policy.h"

#include <algorithm>

namespace ecsdns::authoritative {
namespace {

bool is_address_query(const Question& q) {
  return q.qtype == RRType::A || q.qtype == RRType::AAAA;
}

}  // namespace

EcsDecision ScopeDeltaPolicy::decide(const Question& question, const EcsOption* ecs,
                                     const IpAddress&) const {
  if (!ecs) return {};
  EcsDecision d;
  d.include_option = true;
  if (!is_address_query(question)) {
    d.scope = 0;  // RFC 7871 §7.4: non-address queries answered with scope 0
    return d;
  }
  d.scope = std::max(0, static_cast<int>(ecs->source_prefix_length()) - delta_);
  return d;
}

EcsDecision FixedScopePolicy::decide(const Question& question, const EcsOption* ecs,
                                     const IpAddress&) const {
  if (!ecs) return {};
  EcsDecision d;
  d.include_option = true;
  d.scope = is_address_query(question) ? scope_ : 0;
  return d;
}

bool WhitelistPolicy::is_whitelisted(const IpAddress& sender) const {
  return std::find(whitelist_.begin(), whitelist_.end(), sender) != whitelist_.end();
}

EcsDecision WhitelistPolicy::decide(const Question& question, const EcsOption* ecs,
                                    const IpAddress& sender) const {
  if (is_whitelisted(sender)) return inner_->decide(question, ecs, sender);
  if (fallback_ != nullptr) {
    // Pre-ECS treatment: map by the sender, ignore the option, stay silent.
    EcsDecision d = fallback_->decide(question, nullptr, sender);
    d.include_option = false;
    d.scope = 0;
    return d;
  }
  return {};  // behave as a non-adopter
}

EcsDecision CdnMappingPolicy::decide(const Question& question, const EcsOption* ecs,
                                     const IpAddress& sender) const {
  if (!is_address_query(question)) {
    EcsDecision d;
    d.include_option = ecs != nullptr;
    d.scope = 0;
    return d;
  }
  cdn::MappingRequest request;
  if (ecs) request.ecs = ecs->source_prefix();
  request.resolver = sender;
  const cdn::MappingResult result = mapping_.map(request);
  EcsDecision d;
  d.include_option = ecs != nullptr;
  d.scope = result.scope;
  d.tailored_addresses = result.addresses;
  return d;
}

}  // namespace ecsdns::authoritative
