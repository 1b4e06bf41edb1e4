// Authoritative-side ECS policies: given a question, the query's ECS option
// (null when absent), and the sender, decide whether to include an ECS
// option in the response, with what scope, and whether to tailor the answer
// addresses.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "cdn/mapping.h"
#include "dnscore/ecs.h"
#include "dnscore/ip.h"
#include "dnscore/record.h"

namespace ecsdns::authoritative {

using dnscore::EcsOption;
using dnscore::IpAddress;
using dnscore::Question;
using dnscore::RRType;

struct EcsDecision {
  // Include an ECS option in the response (signals ECS support).
  bool include_option = false;
  int scope = 0;
  // When set, replaces the zone's static A/AAAA answer with these
  // addresses (the CDN tailoring path).
  std::optional<std::vector<IpAddress>> tailored_addresses;
};

class EcsPolicy {
 public:
  virtual ~EcsPolicy() = default;
  // `ecs` is null when the query carries no ECS option.
  virtual EcsDecision decide(const Question& question, const EcsOption* ecs,
                             const IpAddress& sender) const = 0;
};

// A nameserver that has not adopted ECS: options are silently ignored and
// responses carry no ECS (per the RFC, this is what non-adopters do).
class NoEcsPolicy : public EcsPolicy {
 public:
  EcsDecision decide(const Question&, const EcsOption*, const IpAddress&) const override {
    return {};
  }
};

// The scan-experiment policy from §4: answer ECS queries with
// scope = max(source - delta, 0); no option for non-ECS queries. Address
// queries only; NS and other types get scope 0 per RFC 7871 §7.4.
class ScopeDeltaPolicy : public EcsPolicy {
 public:
  explicit ScopeDeltaPolicy(int delta) : delta_(delta) {}
  EcsDecision decide(const Question& question, const EcsOption* ecs,
                     const IpAddress& sender) const override;

 private:
  int delta_;
};

// Always returns the same scope for ECS queries (e.g. a CDN that maps at
// /16 granularity everywhere).
class FixedScopePolicy : public EcsPolicy {
 public:
  explicit FixedScopePolicy(int scope) : scope_(scope) {}
  EcsDecision decide(const Question& question, const EcsOption* ecs,
                     const IpAddress& sender) const override;

 private:
  int scope_;
};

// The major-CDN behavior from the CDN dataset (§4): only pre-approved
// resolvers get ECS treatment; everyone else sees a non-adopter. When a
// `fallback` policy is supplied, non-whitelisted senders still get its
// answer tailoring (a real CDN keeps mapping them by resolver IP) but with
// the ECS option stripped and never echoed.
class WhitelistPolicy : public EcsPolicy {
 public:
  WhitelistPolicy(std::unique_ptr<EcsPolicy> inner, std::vector<IpAddress> whitelist,
                  std::unique_ptr<EcsPolicy> fallback = nullptr)
      : inner_(std::move(inner)),
        fallback_(std::move(fallback)),
        whitelist_(std::move(whitelist)) {}

  EcsDecision decide(const Question& question, const EcsOption* ecs,
                     const IpAddress& sender) const override;

  bool is_whitelisted(const IpAddress& sender) const;
  void add(const IpAddress& resolver) { whitelist_.push_back(resolver); }

 private:
  std::unique_ptr<EcsPolicy> inner_;
  std::unique_ptr<EcsPolicy> fallback_;
  std::vector<IpAddress> whitelist_;
};

// Full CDN tailoring: delegates edge selection to a cdn::ProximityMapping
// and answers with the tailored addresses and the mapping's scope.
class CdnMappingPolicy : public EcsPolicy {
 public:
  explicit CdnMappingPolicy(const cdn::ProximityMapping& mapping) : mapping_(mapping) {}

  EcsDecision decide(const Question& question, const EcsOption* ecs,
                     const IpAddress& sender) const override;

 private:
  const cdn::ProximityMapping& mapping_;
};

}  // namespace ecsdns::authoritative
