// The authoritative nameserver engine.
//
// Serves one or more zones with a pluggable ECS policy, answers real wire
// format queries, and keeps the query log that the paper's passive analyses
// (CDN dataset, scan dataset) are computed from.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "authoritative/ecs_policy.h"
#include "authoritative/zone.h"
#include "dnscore/message.h"
#include "netsim/network.h"
#include "obs/metrics.h"

namespace ecsdns::authoritative {

using dnscore::EcsOption;
using dnscore::IpAddress;
using dnscore::Message;
using dnscore::Name;
using dnscore::RCode;
using netsim::SimTime;

// One line of the authoritative query log — the raw material of the CDN and
// Scan datasets.
struct QueryLogEntry {
  SimTime time = 0;
  IpAddress sender;
  Name qname;
  RRType qtype = RRType::A;
  std::optional<EcsOption> query_ecs;
  std::optional<EcsOption> response_ecs;
  RCode rcode = RCode::NOERROR;
};

struct AuthConfig {
  std::string label = "auth";
  // TTL for answers synthesized from a mapping policy (the paper's CDN uses
  // 20 seconds).
  std::uint32_t tailored_ttl = 20;
  // False models a pre-EDNS implementation: any query with an OPT record
  // gets FORMERR (§6.1 cites RFC 6891-unaware servers doing this).
  bool edns_supported = true;
  // True models the buggy implementations that silently drop ECS queries.
  bool drop_ecs_queries = false;
  bool log_queries = true;
};

// Per-caller dispatch state reused across packets: the query/response
// messages and the name-compression table retain their capacity, so a
// steady stream of queries is served with zero heap allocations (pinned by
// tests/test_noalloc_contracts.cpp). After serve_wire accepts a packet,
// `query` equals Message::parse of it. One scratch per attached service or
// live socket shard; never shared across threads.
struct DispatchScratch {
  Message query;
  Message response;
  Name::CompressionTable table;
};

class AuthServer {
 public:
  AuthServer(AuthConfig config, std::unique_ptr<EcsPolicy> policy);

  // Zones are looked up deepest-apex-first, so a server may host both
  // "example.com" and "sub.example.com".
  Zone& add_zone(const Name& apex);
  Zone* find_zone(const Name& qname);

  // Core entry point: answer `query` from `sender` at virtual time `now`.
  // nullopt means the query is dropped (timeout at the sender).
  std::optional<Message> handle(const Message& query, const IpAddress& sender,
                                SimTime now);

  // Allocation-aware core handle() wraps: answers into `response`, reusing
  // its buffers. Returns false when the query is dropped. A structurally
  // unparseable ECS payload answers FORMERR (RFC 7871 §7.1.2) instead of
  // throwing.
  bool handle_into(const Message& query, const IpAddress& sender, SimTime now,
                   Message& response);

  // Wire-to-wire dispatch shared by the simulated attach() service and the
  // live UDP shards: decodes `wire` with Message::parse_into into the
  // scratch query, answers via handle_into, serializes into `out` (contents
  // replaced, capacity reused), and applies RFC 1035 §4.2.1 UDP truncation
  // against the requestor's EDNS buffer size, building the truncated reply
  // in the scratch response. Returns false when the datagram is dropped
  // (unparseable, or a configured silent-drop behavior); `out` is
  // unspecified in that case.
  bool serve_wire(std::span<const std::uint8_t> wire, const IpAddress& sender,
                  SimTime now, bool via_tcp, DispatchScratch& scratch,
                  std::vector<std::uint8_t>& out);

  // Registers this server on the network at `addr`; the service parses and
  // serializes real DNS packets through serve_wire, so the simulated and
  // live paths emit byte-identical responses by construction.
  void attach(netsim::Network& network, const IpAddress& addr,
              const netsim::GeoPoint& location);

  // The query log is single-writer: serving from multiple live shards
  // requires log_queries=false (see docs/live_wire.md).
  const std::vector<QueryLogEntry>& log() const noexcept { return log_; }
  void clear_log() { log_.clear(); }
  std::uint64_t queries_served() const noexcept {
    return queries_served_.load(std::memory_order_relaxed);
  }

  const AuthConfig& config() const noexcept { return config_; }

 private:
  // Answers into `response` (buffers reused, rebuilt from
  // Message::reset_response). `ecs` is the decoded query option (null when
  // absent); `ecs_unparseable` marks a present-but-undecodable option.
  void answer_into(const Message& query, const IpAddress& sender,
                   const EcsOption* ecs, bool ecs_unparseable, Message& response);

  // Registry mirrors (see src/obs): `queries_served_` and the query log
  // remain the per-server API; the registry aggregates across the fleet.
  struct Metrics {
    obs::CounterHandle queries;
    obs::CounterHandle ecs_queries;
    obs::CounterHandle ecs_responses;
    obs::CounterHandle dropped;
  };

  AuthConfig config_;
  std::unique_ptr<EcsPolicy> policy_;
  std::vector<std::unique_ptr<Zone>> zones_;
  std::vector<QueryLogEntry> log_;
  // Relaxed atomic: live shards on separate threads bump this concurrently;
  // exact cross-thread ordering is irrelevant, only the total.
  std::atomic<std::uint64_t> queries_served_{0};
  Metrics metrics_;
};

}  // namespace ecsdns::authoritative
