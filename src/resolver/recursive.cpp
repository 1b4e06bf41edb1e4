#include "resolver/recursive.h"

#include <algorithm>
#include <memory>

#include "netsim/rng.h"
#include "obs/trace.h"

namespace ecsdns::resolver {
namespace {

using dnscore::EcsOption;
using dnscore::Name;
using dnscore::Prefix;
using dnscore::RCode;
using dnscore::ResourceRecord;

constexpr int kMaxReferrals = 16;
constexpr int kMaxCnameRestarts = 8;

}  // namespace

// Everything one resolution level works in. Each member keeps its capacity
// from lease to lease, so once the shapes of a run have been seen the
// exchange allocates nothing.
struct ResolutionScratch {
  // The upstream query, rebuilt in place per hop, and the reply, decoded in
  // place by Message::parse_into. The attach() service uses the pair of
  // its own lease for the client's query and response.
  Message query;
  Message response;
  std::vector<IpAddress> servers;  // candidate order for this hop
  Name::CompressionTable table;    // the attach() service's responses
};

namespace {

// Leases come from a thread-local LIFO freelist. A nested resolution (a
// forwarder relaying to a hidden resolver relaying to this one) takes its
// own entry, so retained scratch grows with the nesting depth, not with the
// number of resolvers.
class ScratchLease {
 public:
  ScratchLease() {
    auto& free = freelist();
    if (free.empty()) {
      scratch_ = std::make_unique<ResolutionScratch>();
    } else {
      scratch_ = std::move(free.back());
      free.pop_back();
    }
  }
  ~ScratchLease() { freelist().push_back(std::move(scratch_)); }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  ResolutionScratch& operator*() const noexcept { return *scratch_; }

 private:
  static std::vector<std::unique_ptr<ResolutionScratch>>& freelist() {
    thread_local std::vector<std::unique_ptr<ResolutionScratch>> free;
    return free;
  }

  std::unique_ptr<ResolutionScratch> scratch_;
};

// Rebuilds `query` in place as make_query(id, qname, qtype) with RD clear,
// an empty OPT record and, when `ecs` is set, that option — the same
// message, and so the same bytes, without a fresh Message per hop.
ECSDNS_NOALLOC void build_query(Message& query, std::uint16_t id, const Name& qname,
                                RRType qtype, const EcsOption* ecs) {
  query.header = dnscore::Header{};
  query.header.id = id;
  query.header.rd = false;
  if (query.questions.size() != 1) {
    query.questions.clear();
    // ecstidy:allow(noalloc): first use of a leased message only; the
    // one-question vector keeps its slot afterwards.
    query.questions.emplace_back();
  }
  query.questions.front() = Question{qname, qtype, dnscore::RRClass::IN};
  query.answers.clear();
  query.authorities.clear();
  query.additional.clear();
  // ecstidy:allow(noalloc): engages the leased query's OPT record on first
  // use; the optional holds it in place, so this never allocates again.
  if (!query.opt) query.opt.emplace();
  dnscore::OptRecord& opt = *query.opt;
  opt.udp_payload_size = 4096;
  opt.extended_rcode = 0;
  opt.version = 0;
  opt.dnssec_ok = false;
  opt.clear_options();
  if (ecs != nullptr) {
    opt.set_option(dnscore::EdnsOptionCode::ECS, ecs->payload().span());
  }
}

}  // namespace

RecursiveResolver::RecursiveResolver(ResolverConfig config, netsim::Network& network,
                                     IpAddress own_address,
                                     std::vector<IpAddress> root_hints)
    : config_(std::move(config)),
      network_(network),
      own_address_(std::move(own_address)),
      root_hints_(std::move(root_hints)),
      cache_(config_.cache) {
  auto& registry = obs::MetricsRegistry::global();
  metrics_.client_queries =
      obs::CounterHandle(registry.counter("resolver.client_queries"));
  metrics_.upstream_queries =
      obs::CounterHandle(registry.counter("resolver.upstream_queries"));
  metrics_.upstream_ecs_queries =
      obs::CounterHandle(registry.counter("resolver.upstream_ecs_queries"));
  metrics_.cache_hits = obs::CounterHandle(registry.counter("resolver.cache_hits"));
  metrics_.negative_cache_hits =
      obs::CounterHandle(registry.counter("resolver.negative_cache_hits"));
  metrics_.edns_fallbacks =
      obs::CounterHandle(registry.counter("resolver.edns_fallbacks"));
  metrics_.servfails = obs::CounterHandle(registry.counter("resolver.servfails"));
  metrics_.referrals_followed =
      obs::CounterHandle(registry.counter("resolver.referrals_followed"));
  metrics_.cname_restarts =
      obs::CounterHandle(registry.counter("resolver.cname_restarts"));
}

void RecursiveResolver::attach(const netsim::GeoPoint& location) {
  network_.attach(own_address_, location,
                  [this](const netsim::Datagram& dgram)
                      -> std::optional<std::vector<std::uint8_t>> {
                    ScratchLease lease;
                    ResolutionScratch& s = *lease;
                    try {
                      Message::parse_into({dgram.payload.data(), dgram.payload.size()},
                                          s.query);
                    } catch (const dnscore::WireFormatError&) {
                      return std::nullopt;
                    }
                    if (!handle_client_query_into(s.query, dgram.src, s.response)) {
                      return std::nullopt;
                    }
                    auto wire = network_.buffer_pool().acquire();
                    dnscore::WireWriter writer(wire);
                    s.response.serialize_into(writer, s.table);
                    return wire;
                  });
}

ClientIdentity RecursiveResolver::identify_client(const EcsOption* ecs,
                                                  const IpAddress& sender) {
  if (config_.accept_client_ecs) {
    if (ecs != nullptr) {
      if (ecs->source_prefix_length() == 0) {
        // RFC 7871 §7.1.2: the client opted out; the resolver must either
        // omit ECS or identify itself.
        if (auto self = self_identity()) return *self;
        return ClientIdentity{sender, sender.bit_length(), false,
                              /*opted_out=*/true};
      }
      if (auto prefix = ecs->source_prefix()) {
        return ClientIdentity{prefix->address(), prefix->length(), true};
      }
    }
  }
  // The common path, and the root of the hidden-resolver pathology (§8.2):
  // identity is the *immediate sender*, whoever that is.
  if (!config_.client_ecs_whitelist.empty()) {
    const bool listed = std::any_of(
        config_.client_ecs_whitelist.begin(), config_.client_ecs_whitelist.end(),
        [&sender](const Prefix& p) { return p.contains(sender); });
    if (!listed) {
      if (auto self = self_identity()) return *self;
    }
  }
  return ClientIdentity{sender, sender.bit_length(), false};
}

std::optional<ClientIdentity> RecursiveResolver::self_identity() const {
  switch (config_.self_identification) {
    case SelfIdentification::kOwnPublicAddress:
      return ClientIdentity{own_address_, own_address_.bit_length(), false};
    case SelfIdentification::kLoopback:
      return ClientIdentity{IpAddress::v4(127, 0, 0, 1), 32, false};
    case SelfIdentification::kPrivateBlock:
      return ClientIdentity{IpAddress::v4(10, 0, 0, 1), 32, false};
    case SelfIdentification::kOmitOption:
      return std::nullopt;
  }
  return std::nullopt;
}

EcsOption RecursiveResolver::build_option(const Question& question,
                                          const ClientIdentity& identity) const {
  const bool v4 = identity.address.is_v4();
  int policy_bits = v4 ? config_.v4_source_bits : config_.v6_source_bits;
  if (config_.adapt_source_to_scope) {
    const auto it = learned_scope_.find(question.qname.second_level_domain());
    if (it != learned_scope_.end() && it->second > 0 && it->second < policy_bits) {
      policy_bits = it->second;
    }
  }
  bool jam = v4 && config_.jam_last_octet;
  if (v4 && !config_.v4_variants.empty()) {
    const auto& variant =
        config_.v4_variants[counters_.upstream_ecs_queries % config_.v4_variants.size()];
    policy_bits = variant.bits;
    jam = variant.jam;
  }
  if (!v4 && !config_.v6_variants.empty()) {
    policy_bits =
        config_.v6_variants[counters_.upstream_ecs_queries % config_.v6_variants.size()];
  }
  if (jam) {
    // "Jammed last byte": claim one more octet than the resolver actually
    // saw, fixing that octet to a constant. A full-address identity reveals
    // 24 bits but advertises 32 (Table 1's "32/jammed last byte" rows). A
    // shorter identity — e.g. a /16 learned from a forwarded ECS option —
    // must be truncated to min(identity.bits, 24) *before* jamming, or the
    // option would fabricate address bits the resolver never saw.
    const int keep = std::min(identity.bits, 24) / 8 * 8;
    auto bytes = dnscore::truncate_address(identity.address, keep).bytes();
    bytes[static_cast<std::size_t>(keep / 8)] = config_.jam_octet_value;
    const IpAddress jammed = IpAddress::v4(bytes[0], bytes[1], bytes[2], bytes[3]);
    return EcsOption::for_query(Prefix{jammed, keep + 8});
  }
  const int bits = std::min(identity.bits, policy_bits);
  return EcsOption::for_query(Prefix{identity.address, bits});
}

bool RecursiveResolver::name_matches_probe_list(const Name& qname) const {
  return std::any_of(config_.probe_hostnames.begin(), config_.probe_hostnames.end(),
                     [&qname](const Name& n) { return qname.is_subdomain_of(n); });
}

bool RecursiveResolver::zone_whitelisted(const Name& qname) const {
  return std::any_of(config_.zone_whitelist.begin(), config_.zone_whitelist.end(),
                     [&qname](const Name& n) { return qname.is_subdomain_of(n); });
}

bool RecursiveResolver::caching_disabled_for(const Name& qname) const {
  return config_.probing == ProbingStrategy::kProbeHostnamesNoCache &&
         name_matches_probe_list(qname);
}

std::optional<EcsOption> RecursiveResolver::upstream_ecs(const Question& question,
                                                         const ClientIdentity& identity,
                                                         bool infrastructure_hop,
                                                         bool cache_missed) {
  if (infrastructure_hop && !config_.ecs_to_root_servers) return std::nullopt;
  const bool address_query =
      question.qtype == RRType::A || question.qtype == RRType::AAAA;
  if (!address_query && question.qtype == RRType::NS && !config_.ecs_on_ns_queries) {
    return std::nullopt;
  }
  if (!address_query && question.qtype != RRType::NS) return std::nullopt;

  switch (config_.probing) {
    case ProbingStrategy::kNever:
      return std::nullopt;
    case ProbingStrategy::kAlways:
      break;
    case ProbingStrategy::kProbeHostnamesNoCache:
      if (!name_matches_probe_list(question.qname)) return std::nullopt;
      break;
    case ProbingStrategy::kProbeHostnamesOnMiss:
      if (!name_matches_probe_list(question.qname) || !cache_missed) {
        return std::nullopt;
      }
      break;
    case ProbingStrategy::kPeriodicLoopbackProbe: {
      const SimTime now = network_.now();
      if (last_probe_ >= 0 && now - last_probe_ < config_.probe_interval) {
        return std::nullopt;
      }
      last_probe_ = now;
      // The probe deliberately reveals nothing: loopback, full length.
      return EcsOption::for_query(Prefix{IpAddress::v4(127, 0, 0, 1), 32});
    }
    case ProbingStrategy::kZoneWhitelist:
      if (!zone_whitelisted(question.qname)) return std::nullopt;
      break;
    case ProbingStrategy::kIrregular: {
      // Deterministic per-(resolver, query-ordinal) coin flip.
      netsim::SplitMix64 coin(config_.irregular_seed ^
                              (0x9e3779b97f4a7c15ull * counters_.upstream_queries));
      const double u = static_cast<double>(coin.next() >> 11) * 0x1.0p-53;
      if (u >= config_.irregular_probability) return std::nullopt;
      break;
    }
  }

  // Client opted out (source 0) with a resolver configured to omit rather
  // than self-identify: honor the opt-out.
  if (identity.opted_out) return std::nullopt;
  return build_option(question, identity);
}

std::optional<Message> RecursiveResolver::handle_client_query(const Message& query,
                                                              const IpAddress& sender) {
  Message response;
  if (!handle_client_query_into(query, sender, response)) return std::nullopt;
  return response;
}

bool RecursiveResolver::handle_client_query_into(const Message& query,
                                                 const IpAddress& sender,
                                                 Message& response) {
  ++counters_.client_queries;
  metrics_.client_queries.inc();
  if (query.questions.empty()) return false;
  const Question& q = query.question();

  auto& tracer = obs::TraceRing::global();
  if (tracer.enabled()) {
    tracer.record({network_.now(), obs::TraceKind::kClientQuery, sender,
                   own_address_, 0, q.qname.to_string()});
  }

  // RFC 7871 §7.1.1: a malformed client ECS option earns a FORMERR.
  std::optional<EcsOption> client_ecs;
  bool malformed = false;
  try {
    client_ecs = query.ecs();
  } catch (const dnscore::WireFormatError&) {
    malformed = true;
  }
  if (client_ecs) malformed = client_ecs->is_malformed(/*in_query=*/true);
  response.reset_response(query);
  if (malformed) {
    response.header.rcode = RCode::FORMERR;
    return true;
  }

  const ClientIdentity identity =
      identify_client(client_ecs ? &*client_ecs : nullptr, sender);

  ScratchLease lease;
  const Resolution resolution = resolve(q, identity, *lease, response.answers);

  response.header.rcode = resolution.rcode;
  std::optional<Prefix> echo_source;
  if (client_ecs && resolution.echo_scope && response.opt) {
    echo_source = client_ecs->source_prefix();
  }
  if (echo_source) {
    // RFC 7871 §7.2.2: the response option echoes the client's FAMILY,
    // SOURCE PREFIX-LENGTH, and address exactly as received — not the
    // resolver's own truncation policy. A source-0 opt-out is echoed as
    // /0 with scope 0; the old behavior of announcing a non-/0 prefix to
    // an opted-out client leaked the resolver's identity policy.
    const int scope = echo_source->length() == 0 ? 0 : *resolution.echo_scope;
    response.set_ecs(EcsOption::for_response(*echo_source, scope));
  }
  if (tracer.enabled()) {
    tracer.record({network_.now(), obs::TraceKind::kClientResponse, own_address_,
                   sender, 0, dnscore::to_string(response.header.rcode)});
  }
  return true;
}

RecursiveResolver::Resolution RecursiveResolver::resolve(
    const Question& question, const ClientIdentity& identity, ResolutionScratch& s,
    std::vector<ResourceRecord>& answers) {
  Resolution out;
  Question current = question;
  const SimTime now = network_.now();

  for (int restart = 0; restart <= kMaxCnameRestarts; ++restart) {
    // 0. Negative cache (RFC 2308).
    {
      const auto it = negative_cache_.find(NegativeKey{current.qname, current.qtype});
      if (it != negative_cache_.end()) {
        if (it->second.expiry > now) {
          ++counters_.negative_cache_hits;
          metrics_.negative_cache_hits.inc();
          out.rcode = it->second.rcode;
          return out;
        }
        negative_cache_.erase(it);
      }
    }
    // 1. Cache.
    if (!caching_disabled_for(current.qname)) {
      std::optional<IpAddress> lookup_client;
      if (config_.scope_handling == ScopeHandling::kIgnoreScope) {
        // Pretend every entry is global by looking entries up with the
        // address they were inserted under. Implemented by storing
        // everything globally in cache_answer(); a plain global lookup
        // suffices here.
        lookup_client = std::nullopt;
      } else {
        lookup_client = identity.address;
      }
      const CacheEntry* hit =
          cache_.lookup(current.qname, current.qtype, lookup_client, now);
      if (hit == nullptr && config_.scope_handling == ScopeHandling::kHonor) {
        // A global entry may still match when no scoped one covers us;
        // lookup() already prefers the most specific, so nothing more to
        // do — hit stays null only if neither matched.
      }
      if (hit != nullptr) {
        // Everything is read out of the entry right here, before anything
        // touches the cache again: the pointer lives in flat-table storage
        // that relocates on the next cache mutation (cache.h), and the
        // CNAME restart below re-enters the cache.
        ++counters_.cache_hits;
        metrics_.cache_hits.inc();
        auto& tracer = obs::TraceRing::global();
        if (tracer.enabled()) {
          tracer.record({now, obs::TraceKind::kCacheHit, identity.address,
                         own_address_, 0, current.qname.to_string()});
        }
        out.rcode = RCode::NOERROR;
        out.echo_scope = hit->scope;
        // CNAME chain may continue from the cached records.
        bool restarted = false;
        if (current.qtype != RRType::CNAME) {
          for (const auto& rr : hit->records) {
            if (rr.type == RRType::CNAME && rr.name == current.qname) {
              bool have_final = false;
              for (const auto& other : hit->records) {
                if (other.type == current.qtype) have_final = true;
              }
              if (!have_final) {
                current.qname = std::get<dnscore::CnameRdata>(rr.rdata).target;
                restarted = true;
              }
              break;
            }
          }
        }
        // Serve the remaining TTL, per standard resolver behavior.
        const auto ttl = static_cast<std::uint32_t>(
            std::max<SimTime>(hit->expiry - now, 0) / netsim::kSecond);
        for (const auto& rr : hit->records) {
          answers.push_back(rr);
          answers.back().ttl = ttl;
        }
        hit = nullptr;
        if (!restarted) return out;
        ++counters_.cname_restarts;
        metrics_.cname_restarts.inc();
        continue;
      }
    }

    // 2. Iterative resolution.
    if (!query_authoritatives(current, identity, s)) {
      ++counters_.servfails;
      metrics_.servfails.inc();
      out.rcode = RCode::SERVFAIL;
      return out;
    }
    const Message& response = s.response;
    cache_answer(current, identity, response, out);
    out.rcode = response.header.rcode;
    answers.insert(answers.end(), response.answers.begin(), response.answers.end());

    // CNAME restart if the answer ends in a dangling CNAME.
    if (current.qtype != RRType::CNAME && !response.answers.empty()) {
      const auto& last = response.answers.back();
      if (last.type == RRType::CNAME) {
        current.qname = std::get<dnscore::CnameRdata>(last.rdata).target;
        ++counters_.cname_restarts;
        metrics_.cname_restarts.inc();
        continue;
      }
    }
    return out;
  }
  out.rcode = RCode::SERVFAIL;  // CNAME chain too long
  return out;
}

void RecursiveResolver::note_rtt(const IpAddress& server, double sample_us) {
  auto [it, inserted] = srtt_us_.try_emplace(server, sample_us);
  if (!inserted) it->second = 0.7 * it->second + 0.3 * sample_us;
}

void RecursiveResolver::order_by_srtt(const std::vector<IpAddress>& servers,
                                      std::vector<IpAddress>& out) const {
  // Unknown servers sort ahead of anything slower than 10 ms so they get
  // probed. A stable insertion sort keeps referral order among ties — the
  // order std::stable_sort gives — without a temporary buffer; a
  // delegation lists at most a handful of servers.
  const auto score = [this](const IpAddress& s) {
    const auto it = srtt_us_.find(s);
    return it == srtt_us_.end() ? 10'000.0 : it->second;
  };
  // ecstidy:allow(noalloc): the leased order buffer grows only on first
  // use or for a wider delegation than any before; refills reuse it.
  out.assign(servers.begin(), servers.end());
  for (std::size_t i = 1; i < out.size(); ++i) {
    const IpAddress moving = out[i];
    const double moving_score = score(moving);
    std::size_t j = i;
    for (; j > 0 && moving_score < score(out[j - 1]); --j) out[j] = out[j - 1];
    out[j] = moving;
  }
}

RecursiveResolver::NsSet RecursiveResolver::nameservers_for(const Name& qname) const {
  // Deepest cached delegation wins.
  static const Name kRoot;
  Name walk = qname;
  const SimTime now = network_.now();
  for (;;) {
    const auto it = ns_cache_.find(walk);
    if (it != ns_cache_.end() && it->second.expiry > now &&
        !it->second.addresses.empty()) {
      return NsSet{it->first, it->second.addresses};
    }
    if (walk.is_root()) break;
    walk = walk.parent();
  }
  return NsSet{kRoot, root_hints_};
}

void RecursiveResolver::cache_referral(const Message& response) {
  const SimTime now = network_.now();
  for (const auto& ns : response.authorities) {
    if (ns.type != RRType::NS) continue;
    NsEntry& entry = ns_cache_[ns.name];
    entry.expiry = now + static_cast<SimTime>(ns.ttl) * netsim::kSecond;
    const auto& target = std::get<dnscore::NsRdata>(ns.rdata).nameserver;
    for (const auto& glue : response.additional) {
      if (glue.name != target) continue;
      if (const auto* a = std::get_if<dnscore::ARdata>(&glue.rdata)) {
        if (std::find(entry.addresses.begin(), entry.addresses.end(), a->address) ==
            entry.addresses.end()) {
          entry.addresses.push_back(a->address);
        }
      }
    }
  }
}

bool RecursiveResolver::parse_reply(std::vector<std::uint8_t>&& wire, Message& out) {
  bool parsed = true;
  try {
    Message::parse_into({wire.data(), wire.size()}, out);
  } catch (const dnscore::WireFormatError&) {
    parsed = false;
  }
  network_.buffer_pool().release(std::move(wire));
  return parsed;
}

bool RecursiveResolver::query_authoritatives(const Question& question,
                                             const ClientIdentity& identity,
                                             ResolutionScratch& s) {
  Message& query = s.query;
  Message& response = s.response;
  for (int hop = 0; hop < kMaxReferrals; ++hop) {
    const NsSet ns_set = nameservers_for(question.qname);
    order_by_srtt(ns_set.addresses, s.servers);
    if (s.servers.empty()) return false;

    // ECS belongs on queries to the servers of the content zone, not on
    // infrastructure hops: roots (zone depth 0) and TLDs (depth 1) are
    // skipped unless the resolver exhibits the §6.1 root-ECS violation.
    const bool infrastructure_hop = ns_set.zone.label_count() < 2;

    // QNAME minimization (RFC 7816): infrastructure hops only learn the
    // next delegation label, asked for as an NS query.
    Name send_qname = question.qname;
    RRType send_qtype = question.qtype;
    if (config_.qname_minimization && infrastructure_hop &&
        question.qname.label_count() > ns_set.zone.label_count() + 1) {
      // The minimal name is the delegation zone plus one more label.
      send_qname = ns_set.zone.prepend(question.qname.label(
          question.qname.label_count() - ns_set.zone.label_count() - 1));
      send_qtype = RRType::NS;
    }

    const std::uint16_t id = next_id_++;
    const std::optional<EcsOption> ecs =
        upstream_ecs(question, identity, infrastructure_hop, /*cache_missed=*/true);
    build_query(query, id, send_qname, send_qtype, ecs ? &*ecs : nullptr);

    // One serialization per hop, reused across every server candidate and
    // the TCP retry (the bytes are identical); the buffer itself is
    // recycled through the network's pool. A one-question query has
    // nothing to compress, so it is written uncompressed and needs no
    // compression table.
    auto query_wire = network_.buffer_pool().acquire();
    {
      dnscore::WireWriter writer(query_wire);
      query.serialize_into(writer, /*compress=*/false);
    }

    bool answered = false;
    for (const auto& server : s.servers) {
      ++counters_.upstream_queries;
      metrics_.upstream_queries.inc();
      if (ecs) {
        ++counters_.upstream_ecs_queries;
        metrics_.upstream_ecs_queries.inc();
      }
      auto& tracer = obs::TraceRing::global();
      if (tracer.enabled()) {
        tracer.record({network_.now(), obs::TraceKind::kUpstreamQuery,
                       own_address_, server, 0,
                       send_qname.to_string() +
                           (ecs ? " " + ecs->to_string() : std::string{})});
      }
      const SimTime sent_at = network_.now();
      auto wire = network_.round_trip(own_address_, server, query_wire);
      note_rtt(server, static_cast<double>(network_.now() - sent_at));
      if (!wire) continue;  // timeout: try the next address
      if (!parse_reply(std::move(*wire), response)) continue;
      if (response.header.tc) {
        // Truncated over UDP: retry the same server over TCP. A truncated
        // answer is never used, so a TCP timeout moves on to the next server.
        ++counters_.upstream_queries;
        metrics_.upstream_queries.inc();
        auto tcp_wire = network_.round_trip(own_address_, server, query_wire,
                                            /*tcp=*/true);
        if (!tcp_wire || !parse_reply(std::move(*tcp_wire), response)) continue;
      }
      if (response.header.rcode == RCode::FORMERR && query.opt) {
        // RFC 6891 §6.2.2 fallback: a pre-EDNS server choked on the OPT
        // record (§6.1 cites these); retry the same server plain. The
        // FORMERR is never the answer, so a retry that times out (or does
        // not parse) moves on to the next server like any other failure.
        ++counters_.edns_fallbacks;
        metrics_.edns_fallbacks.inc();
        ++counters_.upstream_queries;
        metrics_.upstream_queries.inc();
        auto plain_wire = network_.buffer_pool().acquire();
        {
          // The same message without its OPT record; swapping the record
          // aside and back keeps its option buffer.
          std::optional<dnscore::OptRecord> opt;
          opt.swap(query.opt);
          dnscore::WireWriter writer(plain_wire);
          query.serialize_into(writer, /*compress=*/false);
          opt.swap(query.opt);
        }
        auto retry_wire = network_.round_trip(own_address_, server, plain_wire);
        network_.buffer_pool().release(std::move(plain_wire));
        if (!retry_wire || !parse_reply(std::move(*retry_wire), response)) continue;
      }
      answered = true;
      break;
    }
    network_.buffer_pool().release(std::move(query_wire));
    if (!answered) return false;

    if (!response.answers.empty() || response.header.rcode != RCode::NOERROR) {
      return true;
    }
    // A referral has NS records in the authority section; a NoData answer
    // carries at most an SOA there.
    const bool is_referral = std::any_of(
        response.authorities.begin(), response.authorities.end(),
        [](const dnscore::ResourceRecord& rr) { return rr.type == RRType::NS; });
    if (is_referral) {
      ++counters_.referrals_followed;
      metrics_.referrals_followed.inc();
      cache_referral(response);
      continue;  // descend to the delegated servers
    }
    return true;  // authoritative NoData
  }
  return false;
}

void RecursiveResolver::cache_answer(const Question& question,
                                     const ClientIdentity& identity,
                                     const Message& response, Resolution& out) {
  // Negative results go into the RFC 2308 cache; the TTL comes from the
  // authority SOA minimum when present.
  if (response.header.rcode == RCode::NXDOMAIN ||
      (response.header.rcode == RCode::NOERROR && response.answers.empty())) {
    SimTime neg_ttl = 60 * netsim::kSecond;
    for (const auto& rr : response.authorities) {
      if (const auto* soa = std::get_if<dnscore::SoaRdata>(&rr.rdata)) {
        neg_ttl = static_cast<SimTime>(
                      std::min<std::uint32_t>(rr.ttl, soa->minimum)) *
                  netsim::kSecond;
      }
    }
    if (!caching_disabled_for(question.qname) && neg_ttl > 0) {
      negative_cache_[NegativeKey{question.qname, question.qtype}] =
          NegativeEntry{response.header.rcode, network_.now() + neg_ttl};
    }
    return;
  }
  if (response.header.rcode != RCode::NOERROR || response.answers.empty()) return;
  if (caching_disabled_for(question.qname)) {
    if (const auto ecs = response.ecs()) out.echo_scope = ecs->scope_prefix_length();
    return;
  }
  const SimTime now = network_.now();
  const auto ttl_s = response.min_answer_ttl().value_or(0);
  const SimTime ttl = static_cast<SimTime>(ttl_s) * netsim::kSecond;
  if (ttl <= 0) return;

  const std::optional<EcsOption> ecs = response.ecs();
  const int family_cap =
      identity.address.is_v4() ? config_.max_cache_prefix_v4 : config_.max_cache_prefix_v6;

  if (!ecs || config_.scope_handling == ScopeHandling::kIgnoreScope) {
    // No ECS in the response, or a resolver that disregards scope: one
    // global entry serves every client.
    cache_.insert(question.qname, question.qtype, Prefix{}, 0, response.answers, now,
                  ttl);
    if (ecs) out.echo_scope = ecs->scope_prefix_length();
    return;
  }

  const int scope = ecs->scope_prefix_length();
  const int source = ecs->source_prefix_length();
  if (config_.adapt_source_to_scope && scope > 0 && scope < source) {
    // Learn the zone's demonstrated granularity. Note the deliberate
    // ratchet: once we send fewer bits, the returned scope can never
    // exceed them again, so adaptation only ever tightens — the §9
    // experiment quantifies this trade-off.
    auto& learned = learned_scope_[question.qname.second_level_domain()];
    learned = learned == 0 ? scope : std::min(learned, scope);
  }
  if (scope == 0) {
    if (!config_.cache_scope_zero) {
      // The §6.3.2 misconfigured resolver: scope-0 answers are not cached
      // (or reused), forcing an upstream query per client query.
      out.echo_scope = 0;
      return;
    }
    cache_.insert(question.qname, question.qtype, Prefix{}, 0, response.answers, now,
                  ttl);
    out.echo_scope = 0;
    return;
  }

  // Correct resolvers cache at min(scope, source) — a scope longer than the
  // source cannot be trusted beyond the bits actually announced — and apply
  // the privacy cap.
  const int effective = std::min({scope, source, family_cap,
                                  identity.address.bit_length()});
  const Prefix network{identity.address, effective};
  cache_.insert(question.qname, question.qtype, network,
                static_cast<std::uint8_t>(effective), response.answers, now, ttl);
  out.echo_scope = effective;
}

}  // namespace ecsdns::resolver
