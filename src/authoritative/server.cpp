#include "authoritative/server.h"

namespace ecsdns::authoritative {

AuthServer::AuthServer(AuthConfig config, std::unique_ptr<EcsPolicy> policy)
    : config_(std::move(config)), policy_(std::move(policy)) {
  if (!policy_) policy_ = std::make_unique<NoEcsPolicy>();
  auto& registry = obs::MetricsRegistry::global();
  metrics_.queries = obs::CounterHandle(registry.counter("auth.queries"));
  metrics_.ecs_queries = obs::CounterHandle(registry.counter("auth.ecs_queries"));
  metrics_.ecs_responses = obs::CounterHandle(registry.counter("auth.ecs_responses"));
  metrics_.dropped = obs::CounterHandle(registry.counter("auth.dropped"));
}

Zone& AuthServer::add_zone(const Name& apex) {
  zones_.push_back(std::make_unique<Zone>(apex));
  return *zones_.back();
}

Zone* AuthServer::find_zone(const Name& qname) {
  Zone* best = nullptr;
  for (const auto& z : zones_) {
    if (!qname.is_subdomain_of(z->apex())) continue;
    if (best == nullptr || z->apex().label_count() > best->apex().label_count()) {
      best = z.get();
    }
  }
  return best;
}

std::optional<Message> AuthServer::handle(const Message& query,
                                          const IpAddress& sender, SimTime now) {
  Message response;
  if (!handle_into(query, sender, now, response)) return std::nullopt;
  return response;
}

bool AuthServer::handle_into(const Message& query, const IpAddress& sender,
                             SimTime now, Message& response) {
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  metrics_.queries.inc();

  // Decode the query ECS once. An unparseable payload is flagged instead of
  // letting WireFormatError escape into the socket loop.
  std::optional<EcsOption> ecs;
  bool ecs_unparseable = false;
  try {
    ecs = query.ecs();
  } catch (const dnscore::WireFormatError&) {
    ecs_unparseable = true;
  }
  const bool ecs_sent = ecs.has_value() || ecs_unparseable;
  if (ecs_sent) metrics_.ecs_queries.inc();

  // The log entry (and its ECS copy) is only materialized when logging is
  // on; the zero-alloc live path runs with log_queries=false.
  QueryLogEntry entry;
  if (config_.log_queries) {
    entry.time = now;
    entry.sender = sender;
    if (!query.questions.empty()) {
      entry.qname = query.question().qname;
      entry.qtype = query.question().qtype;
    }
    entry.query_ecs = ecs;
  }

  if (config_.drop_ecs_queries && ecs_sent) {
    metrics_.dropped.inc();
    if (config_.log_queries) log_.push_back(std::move(entry));
    return false;  // the buggy silent drop
  }

  answer_into(query, sender, ecs ? &*ecs : nullptr, ecs_unparseable, response);

  if (response.has_ecs()) metrics_.ecs_responses.inc();
  if (config_.log_queries) {
    entry.rcode = response.header.rcode;
    entry.response_ecs = response.ecs();
    log_.push_back(std::move(entry));
  }
  return true;
}

void AuthServer::answer_into(const Message& query, const IpAddress& sender,
                             const EcsOption* ecs, bool ecs_unparseable,
                             Message& response) {
  response.reset_response(query);
  response.header.ra = false;  // authoritative servers do not offer recursion

  if (query.questions.empty() || query.header.opcode != dnscore::Opcode::QUERY) {
    response.header.rcode = query.questions.empty() ? RCode::FORMERR : RCode::NOTIMP;
    return;
  }
  if (query.opt && !config_.edns_supported) {
    // A pre-EDNS server sees unknown trailing data and rejects the query.
    response.opt.reset();
    response.header.rcode = RCode::FORMERR;
    return;
  }
  if (query.opt && query.opt->version != 0) {
    response.header.rcode = RCode::BADVERS;
    return;
  }
  if (ecs_unparseable || (ecs != nullptr && ecs->is_malformed(/*in_query=*/true))) {
    response.header.rcode = RCode::FORMERR;
    return;
  }

  const Question& q = query.question();
  Zone* zone = find_zone(q.qname);
  if (zone == nullptr) {
    response.header.rcode = RCode::REFUSED;
    return;
  }

  const EcsDecision decision = policy_->decide(q, ecs, sender);
  const bool tailored = decision.tailored_addresses && q.qtype == RRType::A;

  response.header.aa = true;
  Name current = q.qname;
  // Chase in-zone CNAME chains the way production servers do, bounded to
  // avoid loops in malformed zones. Every other lookup result ends the
  // chase.
  for (int hop = 0; hop < 8; ++hop) {
    const ZoneLookupRef result = zone->lookup_ref(current, q.qtype);
    if (result.kind == ZoneLookup::Kind::kCname) {
      response.answers.push_back(*result.cname);
      const auto& target = std::get<dnscore::CnameRdata>(result.cname->rdata).target;
      // An out-of-zone target ends the chase: the resolver restarts
      // resolution there.
      if (!target.is_subdomain_of(zone->apex())) break;
      current = target;
      continue;
    }
    if (tailored && (result.kind == ZoneLookup::Kind::kAnswer ||
                     result.kind == ZoneLookup::Kind::kNxDomain)) {
      // Tailoring policies synthesize address answers for any name in the
      // zone (a CDN's wildcard-style hostnames).
      for (const auto& addr : *decision.tailored_addresses) {
        if (!addr.is_v4()) continue;
        response.answers.push_back(
            dnscore::ResourceRecord::make_a(current, config_.tailored_ttl, addr));
      }
      break;
    }
    switch (result.kind) {
      case ZoneLookup::Kind::kAnswer:
        for (const auto& rr : *result.records) {
          if (rr.type == q.qtype || q.qtype == RRType::ANY) {
            response.answers.push_back(rr);
          }
        }
        break;
      case ZoneLookup::Kind::kDelegation:
        response.header.aa = false;
        response.authorities.assign(result.records->begin(), result.records->end());
        response.additional.assign(result.glue->begin(), result.glue->end());
        break;
      case ZoneLookup::Kind::kNxDomain:
        response.header.rcode = RCode::NXDOMAIN;
        [[fallthrough]];
      case ZoneLookup::Kind::kNoData: {
        // RFC 2308: attach the zone SOA so resolvers can negative-cache.
        const ZoneLookupRef soa = zone->lookup_ref(zone->apex(), dnscore::RRType::SOA);
        if (soa.kind == ZoneLookup::Kind::kAnswer) {
          for (const auto& rr : *soa.records) {
            if (rr.type == dnscore::RRType::SOA) {
              response.authorities.push_back(rr);
              break;
            }
          }
        }
        break;
      }
      case ZoneLookup::Kind::kNotInZone:
        response.header.rcode = RCode::REFUSED;
        break;
      case ZoneLookup::Kind::kCname:
        break;  // followed above
    }
    break;
  }

  if (ecs != nullptr && decision.include_option && response.opt) {
    // RFC 7871 §7.2.1: echo the query's option with the policy's scope.
    EcsOption echo = *ecs;
    echo.set_scope_prefix_length(static_cast<std::uint8_t>(decision.scope));
    response.set_ecs(echo);
  }
}

bool AuthServer::serve_wire(std::span<const std::uint8_t> wire,
                            const IpAddress& sender, SimTime now, bool via_tcp,
                            DispatchScratch& scratch,
                            std::vector<std::uint8_t>& out) {
  // The one parser, decoding in place: the scratch query's buffers are
  // reused across packets.
  Message& query = scratch.query;
  try {
    Message::parse_into(wire, query);
  } catch (const dnscore::WireFormatError&) {
    return false;  // unparseable datagram: drop
  }

  Message& response = scratch.response;
  if (!handle_into(query, sender, now, response)) return false;
  {
    dnscore::WireWriter writer(out);
    response.serialize_into(writer, scratch.table);
  }
  // UDP truncation (RFC 1035 §4.2.1 / RFC 6891 §6.2.5): responses beyond
  // the requestor's buffer come back empty with TC set, inviting a TCP
  // retry. The reply is make_response(query) plus aa/rcode/tc, built in
  // the retained response.
  const std::size_t limit = query.opt ? query.opt->udp_payload_size : 512;
  if (!via_tcp && out.size() > limit) {
    const bool aa = response.header.aa;
    const RCode rcode = response.header.rcode;
    response.reset_response(query);
    response.header.aa = aa;
    response.header.rcode = rcode;
    response.header.tc = true;
    dnscore::WireWriter writer(out);
    response.serialize_into(writer, scratch.table);
  }
  return true;
}

void AuthServer::attach(netsim::Network& network, const IpAddress& addr,
                        const netsim::GeoPoint& location) {
  // One scratch per attachment, owned by the service closure — the same
  // reuse discipline as a live socket shard.
  auto scratch = std::make_shared<DispatchScratch>();
  network.attach(addr, location,
                 [this, &network, scratch](const netsim::Datagram& dgram)
                     -> std::optional<std::vector<std::uint8_t>> {
                   auto wire = network.buffer_pool().acquire();
                   if (!serve_wire(dgram.payload, dgram.src, network.now(),
                                   dgram.via_tcp, *scratch, wire)) {
                     network.buffer_pool().release(std::move(wire));
                     return std::nullopt;
                   }
                   return wire;
                 });
}

}  // namespace ecsdns::authoritative
