#include "authoritative/server.h"

#include <algorithm>

#include "dnscore/message_view.h"

namespace ecsdns::authoritative {
namespace {

// Issues that make an ECS option unusable rather than merely non-compliant;
// RFC 7871 §7.1.2 directs servers to FORMERR these.
bool is_malformed(const std::vector<dnscore::EcsIssue>& issues) {
  for (const auto issue : issues) {
    switch (issue) {
      case dnscore::EcsIssue::kUnknownFamily:
      case dnscore::EcsIssue::kSourceLengthTooLong:
      case dnscore::EcsIssue::kAddressLengthMismatch:
      case dnscore::EcsIssue::kNonZeroTrailingBits:
        return true;
      case dnscore::EcsIssue::kScopeLengthTooLong:
      case dnscore::EcsIssue::kScopeNonZeroInQuery:
        // Tolerated: treated as scope 0 on input.
        break;
    }
  }
  return false;
}

}  // namespace

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
  std::optional<EcsOption> ecs_scratch;
  if (!handle_into(query, sender, now, response, ecs_scratch)) return std::nullopt;
  return response;
}

bool AuthServer::handle_into(const Message& query, const IpAddress& sender,
                             SimTime now, Message& response,
                             std::optional<EcsOption>& ecs_scratch) {
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  metrics_.queries.inc();

  // Decode the query ECS once, into the caller's retained slot. A payload
  // too short for its own declared lengths is flagged instead of letting
  // WireFormatError escape into the socket loop.
  bool ecs_present = false;
  bool ecs_unparseable = false;
  if (query.opt) {
    if (const auto* raw = query.opt->find_option(dnscore::EdnsOptionCode::ECS)) {
      try {
        if (!ecs_scratch) ecs_scratch.emplace();
        ecs_scratch->assign_from_payload({raw->payload.data(), raw->payload.size()});
        ecs_present = true;
      } catch (const dnscore::WireFormatError&) {
        ecs_unparseable = true;
      }
    }
  }
  if (!ecs_present) ecs_scratch.reset();
  std::optional<EcsOption>& ecs = ecs_scratch;
  if (ecs_present || ecs_unparseable) metrics_.ecs_queries.inc();

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
    // Captured before answer_into, which stamps the decision scope onto the
    // scratch option for the response echo.
    entry.query_ecs = ecs;
  }

  if (config_.drop_ecs_queries && (ecs_present || ecs_unparseable)) {
    metrics_.dropped.inc();
    if (config_.log_queries) log_.push_back(std::move(entry));
    return false;  // the buggy silent drop
  }

  answer_into(query, sender, ecs, ecs_unparseable, response);

  if (response.has_ecs()) metrics_.ecs_responses.inc();
  if (config_.log_queries) {
    entry.rcode = response.header.rcode;
    entry.response_ecs = response.ecs();
    log_.push_back(std::move(entry));
  }
  return true;
}

void AuthServer::answer_into(const Message& query, const IpAddress& sender,
                             std::optional<EcsOption>& ecs, bool ecs_unparseable,
                             Message& response) {
  // The retained option list survives the reset: every exit below ends by
  // set_ecs (overwriting the slot in place) or clear_ecs.
  response.reset_response(query);
  response.header.ra = false;  // authoritative servers do not offer recursion

  if (query.questions.empty() || query.header.opcode != dnscore::Opcode::QUERY) {
    response.header.rcode = query.questions.empty() ? RCode::FORMERR : RCode::NOTIMP;
    response.clear_ecs();
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
    response.clear_ecs();
    return;
  }
  if (ecs_unparseable ||
      (ecs && is_malformed(ecs->validate(/*in_query=*/true)))) {
    response.header.rcode = RCode::FORMERR;
    response.clear_ecs();
    return;
  }

  const Question& q = query.question();
  Zone* zone = find_zone(q.qname);
  if (zone == nullptr) {
    response.header.rcode = RCode::REFUSED;
    response.clear_ecs();
    return;
  }

  const EcsDecision decision = policy_->decide(q, ecs, sender);

  response.header.aa = true;
  Name current = q.qname;
  // Chase in-zone CNAME chains the way production servers do, bounded to
  // avoid loops in malformed zones.
  for (int hop = 0; hop < 8; ++hop) {
    const ZoneLookupRef result = zone->lookup_ref(current, q.qtype);
    switch (result.kind) {
      case ZoneLookup::Kind::kAnswer:
        if (decision.tailored_addresses && q.qtype == RRType::A) {
          for (const auto& addr : *decision.tailored_addresses) {
            if (!addr.is_v4()) continue;
            response.answers.push_back(
                dnscore::ResourceRecord::make_a(current, config_.tailored_ttl, addr));
          }
        } else {
          for (const auto& rr : *result.records) {
            if (rr.type == q.qtype || q.qtype == RRType::ANY) {
              response.answers.push_back(rr);
            }
          }
        }
        hop = 8;
        break;
      case ZoneLookup::Kind::kCname: {
        response.answers.push_back(*result.cname);
        const auto& target =
            std::get<dnscore::CnameRdata>(result.cname->rdata).target;
        if (!target.is_subdomain_of(zone->apex())) {
          hop = 8;  // out-of-zone target: the resolver restarts resolution
          break;
        }
        current = target;
        break;
      }
      case ZoneLookup::Kind::kDelegation:
        response.header.aa = false;
        response.authorities.assign(result.records->begin(), result.records->end());
        response.additional.assign(result.glue->begin(), result.glue->end());
        hop = 8;
        break;
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
        hop = 8;
        break;
      }
      case ZoneLookup::Kind::kNxDomain:
        // Tailoring policies synthesize address answers for any name in the
        // zone (a CDN's wildcard-style hostnames); static zones NXDOMAIN.
        if (decision.tailored_addresses && q.qtype == RRType::A) {
          for (const auto& addr : *decision.tailored_addresses) {
            if (!addr.is_v4()) continue;
            response.answers.push_back(
                dnscore::ResourceRecord::make_a(current, config_.tailored_ttl, addr));
          }
        } else {
          response.header.rcode = RCode::NXDOMAIN;
          const ZoneLookupRef soa =
              zone->lookup_ref(zone->apex(), dnscore::RRType::SOA);
          if (soa.kind == ZoneLookup::Kind::kAnswer) {
            for (const auto& rr : *soa.records) {
              if (rr.type == dnscore::RRType::SOA) {
                response.authorities.push_back(rr);
                break;
              }
            }
          }
        }
        hop = 8;
        break;
      case ZoneLookup::Kind::kNotInZone:
        response.header.rcode = RCode::REFUSED;
        hop = 8;
        break;
    }
  }

  if (ecs && decision.include_option && response.opt) {
    // Echo the (validated) query option with the policy's scope. Only the
    // scope byte differs from what the client sent, so stamping it onto the
    // scratch option and re-encoding in place is byte-identical to building
    // a fresh for_response() option — without its allocations.
    ecs->set_scope_prefix_length(static_cast<std::uint8_t>(decision.scope));
    response.set_ecs(*ecs);
  } else {
    response.clear_ecs();
  }
}

bool AuthServer::serve_wire(std::span<const std::uint8_t> wire,
                            const IpAddress& sender, SimTime now, bool via_tcp,
                            DispatchScratch& scratch,
                            std::vector<std::uint8_t>& out) {
  // Zero-copy decode: MessageView validates and indexes the packet in
  // place, and only the slices handle_into() actually reads — header, the
  // question, OPT fields, the ECS payload — are materialized into the
  // scratch query (whose buffers are reused across packets). Multi-question
  // messages (which no client of ours produces) take the full-parse
  // fallback.
  Message& query = scratch.query;
  try {
    const dnscore::MessageView view(wire);
    if (view.question_count() <= 1) {
      query.header.id = view.id();
      query.header.qr = view.qr();
      query.header.opcode = view.opcode();
      query.header.aa = view.aa();
      query.header.tc = view.tc();
      query.header.rd = view.rd();
      query.header.ra = view.ra();
      query.header.ad = view.ad();
      query.header.cd = view.cd();
      query.header.rcode = view.rcode();
      query.questions.clear();
      if (view.question_count() == 1) {
        query.questions.push_back(
            dnscore::Question{view.qname(), view.qtype(), view.qclass()});
      }
      query.answers.clear();
      query.authorities.clear();
      query.additional.clear();
      if (view.has_opt()) {
        if (!query.opt) query.opt = dnscore::OptRecord{};
        query.opt->udp_payload_size = view.udp_payload_size();
        query.opt->extended_rcode = view.extended_rcode();
        query.opt->version = view.edns_version();
        query.opt->dnssec_ok = view.dnssec_ok();
        if (view.has_ecs()) {
          const auto ecs_raw = view.ecs_payload();
          auto& slot = query.opt->ensure_option(dnscore::EdnsOptionCode::ECS);
          slot.payload.assign(ecs_raw.begin(), ecs_raw.end());
        } else {
          query.opt->remove_option(dnscore::EdnsOptionCode::ECS);
        }
      } else {
        query.opt.reset();
      }
    } else {
      query = view.to_message();
    }
  } catch (const dnscore::WireFormatError&) {
    return false;  // unparseable datagram: drop
  }

  if (!handle_into(query, sender, now, scratch.response, scratch.ecs)) {
    return false;
  }
  {
    dnscore::WireWriter writer(out);
    scratch.response.serialize_into(writer, scratch.table);
  }
  // UDP truncation (RFC 1035 §4.2.1 / RFC 6891 §6.2.5): responses beyond
  // the requestor's buffer come back empty with TC set, inviting a TCP
  // retry.
  const std::size_t limit = query.opt ? query.opt->udp_payload_size : 512;
  if (!via_tcp && out.size() > limit) {
    Message truncated = Message::make_response(query);
    truncated.header.aa = scratch.response.header.aa;
    truncated.header.rcode = scratch.response.header.rcode;
    truncated.header.tc = true;
    dnscore::WireWriter writer(out);
    truncated.serialize_into(writer, scratch.table);
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
