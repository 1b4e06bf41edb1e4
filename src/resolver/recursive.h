// The recursive (egress) resolver engine.
//
// Speaks real DNS wire format on the simulated network: accepts client
// queries, performs iterative resolution from root hints (referral walking
// with an NS cache), maintains the RFC 7871 ECS answer cache, and applies
// the configured ECS behavior — compliant or any of the deviant behaviors
// the paper catalogs — when talking to authoritative servers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dnscore/annotations.h"
#include "dnscore/hashing.h"
#include "dnscore/message.h"
#include "netsim/network.h"
#include "obs/metrics.h"
#include "resolver/cache.h"
#include "resolver/config.h"

namespace ecsdns::resolver {

using dnscore::Message;
using dnscore::Question;
using dnscore::RRType;

// What the resolver believes about the client it is acting for — either the
// immediate sender's full address, or a subnet announced via client ECS.
struct ClientIdentity {
  IpAddress address;
  int bits = 32;  // how many leading bits of `address` are meaningful
  bool from_client_ecs = false;
  // The client opted out of ECS (source prefix length 0) and the resolver
  // is configured to honor that by omitting the option upstream.
  bool opted_out = false;
};

// Counters the experiments and tests read.
struct ResolverCounters {
  std::uint64_t client_queries = 0;
  std::uint64_t upstream_queries = 0;
  std::uint64_t upstream_ecs_queries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t negative_cache_hits = 0;
  // Retries without EDNS after a FORMERR (pre-RFC 6891 servers).
  std::uint64_t edns_fallbacks = 0;
  std::uint64_t servfails = 0;
  std::uint64_t referrals_followed = 0;
  std::uint64_t cname_restarts = 0;
};

// Per-resolution working storage (the upstream query and its reply, the
// server order), leased from a thread-local freelist for the length of one
// client query; defined in recursive.cpp.
struct ResolutionScratch;

class RecursiveResolver {
 public:
  RecursiveResolver(ResolverConfig config, netsim::Network& network,
                    IpAddress own_address, std::vector<IpAddress> root_hints);

  const ResolverConfig& config() const noexcept { return config_; }
  ResolverConfig& mutable_config() noexcept { return config_; }
  const IpAddress& address() const noexcept { return own_address_; }

  // Serves one client query end to end into `response`, a message the
  // caller keeps: it is reset as Message::reset_response does and the
  // answers are appended straight into it, so a retained response reaches
  // a steady state with no heap allocation per query. Returns false when
  // the query is dropped (`response` is then unspecified).
  bool handle_client_query_into(const Message& query, const IpAddress& sender,
                                Message& response);
  // Wrapper over handle_client_query_into; nullopt drops the query.
  std::optional<Message> handle_client_query(const Message& query,
                                             const IpAddress& sender);

  // Registers the resolver on the network.
  void attach(const netsim::GeoPoint& location);

  const ResolverCounters& counters() const noexcept { return counters_; }
  EcsCache& cache() noexcept { return cache_; }

 private:
  struct Resolution {
    dnscore::RCode rcode = dnscore::RCode::SERVFAIL;
    // Scope to echo to the client (nullopt: no ECS in the response).
    std::optional<int> echo_scope;
  };

  // `client_ecs` is the client's decoded ECS option, or null.
  ClientIdentity identify_client(const dnscore::EcsOption* client_ecs,
                                 const IpAddress& sender);
  // The ECS option to attach upstream, or nullopt for none, per the
  // probing strategy and prefix policy. `infrastructure_hop` marks queries
  // to root/TLD servers, which compliant resolvers never send ECS to.
  ECSDNS_NOALLOC std::optional<dnscore::EcsOption> upstream_ecs(
      const Question& question, const ClientIdentity& identity,
      bool infrastructure_hop, bool cache_missed);
  // Builds the announced option from a client identity (applies
  // truncation, the jam-last-octet deviation, and — when enabled — the
  // per-zone scope adaptation learned from earlier responses).
  ECSDNS_NOALLOC dnscore::EcsOption build_option(const Question& question,
                                                 const ClientIdentity& identity) const;
  std::optional<ClientIdentity> self_identity() const;

  // Resolves `question`, appending the answer records to `answers`.
  Resolution resolve(const Question& question, const ClientIdentity& identity,
                     ResolutionScratch& scratch,
                     std::vector<dnscore::ResourceRecord>& answers);
  // One iterative descent for a single owner name (no CNAME restarts).
  // Returns true with the final reply in `scratch.response`.
  bool query_authoritatives(const Question& question,
                            const ClientIdentity& identity,
                            ResolutionScratch& scratch);
  // Decodes a reply into `out` and hands the wire buffer back to the pool;
  // false when the bytes do not parse.
  bool parse_reply(std::vector<std::uint8_t>&& wire, Message& out);
  // The servers for the deepest cached delegation covering `qname` (or the
  // root hints): references into the NS cache, valid until it changes.
  struct NsSet {
    const dnscore::Name& zone;  // the delegation point these servers cover
    const std::vector<IpAddress>& addresses;
  };
  ECSDNS_NOALLOC NsSet nameservers_for(const dnscore::Name& qname) const;
  void cache_referral(const Message& response);
  void cache_answer(const Question& question, const ClientIdentity& identity,
                    const Message& response, Resolution& out);
  bool name_matches_probe_list(const dnscore::Name& qname) const;
  bool zone_whitelisted(const dnscore::Name& qname) const;
  bool caching_disabled_for(const dnscore::Name& qname) const;

  ResolverConfig config_;
  netsim::Network& network_;
  IpAddress own_address_;
  std::vector<IpAddress> root_hints_;

  EcsCache cache_;
  struct NsEntry {
    std::vector<IpAddress> addresses;
    SimTime expiry = 0;
  };
  std::unordered_map<dnscore::Name, NsEntry, dnscore::NameHash> ns_cache_;

  // Negative cache (RFC 2308): NXDOMAIN / NoData answers are remembered so
  // repeated misses do not hammer the authoritatives. Negative answers are
  // never client-tailored, so entries are global.
  struct NegativeKey {
    dnscore::Name qname;
    RRType qtype;
    bool operator==(const NegativeKey&) const = default;
  };
  struct NegativeKeyHash {
    std::size_t operator()(const NegativeKey& k) const noexcept {
      return dnscore::hash_combine(k.qname.hash(),
                                   static_cast<std::size_t>(k.qtype));
    }
  };
  struct NegativeEntry {
    dnscore::RCode rcode = dnscore::RCode::NXDOMAIN;
    SimTime expiry = 0;
  };
  std::unordered_map<NegativeKey, NegativeEntry, NegativeKeyHash> negative_cache_;

  // Per-SLD learned authoritative scope (adapt_source_to_scope extension).
  std::unordered_map<dnscore::Name, int, dnscore::NameHash> learned_scope_;

  SimTime last_probe_ = -1;
  std::uint16_t next_id_ = 1;
  ResolverCounters counters_;

  // Registry mirrors (see src/obs): `counters_` stays the per-instance
  // view the tests and experiments read, while the global registry
  // aggregates the same events across every resolver for --metrics-out.
  struct Metrics {
    obs::CounterHandle client_queries;
    obs::CounterHandle upstream_queries;
    obs::CounterHandle upstream_ecs_queries;
    obs::CounterHandle cache_hits;
    obs::CounterHandle negative_cache_hits;
    obs::CounterHandle edns_fallbacks;
    obs::CounterHandle servfails;
    obs::CounterHandle referrals_followed;
    obs::CounterHandle cname_restarts;
  };
  Metrics metrics_;

  // Smoothed per-nameserver RTT (BIND-style server selection): candidates
  // are tried fastest-first, unknown servers optimistically early, and
  // timeouts penalize heavily. Only meaningful when the network runs in
  // serial-clock mode; otherwise every sample is 0 and selection degrades
  // gracefully to referral order.
  std::unordered_map<IpAddress, double, dnscore::IpAddressHash> srtt_us_;
  void note_rtt(const IpAddress& server, double sample_us);
  // Orders `servers` into `out` (contents replaced, capacity reused).
  ECSDNS_NOALLOC void order_by_srtt(const std::vector<IpAddress>& servers,
                                    std::vector<IpAddress>& out) const;
};

}  // namespace ecsdns::resolver
