// Lazy, bounds-checked read-only view over a DNS message in wire form.
//
// MessageView serves readers that only look at the header, the question
// and the ECS option (the forwarder's strip decision, StubClient::probe):
// they construct a view instead of a full Message and skip materializing
// record vectors, Names, and option payloads for sections they never read.
// Services that answer a packet decode it with Message::parse_into into a
// retained message instead (the authoritative's serve_wire, the resolver's
// upstream exchange).
//
// The constructor validates the ENTIRE message eagerly: it runs the one
// wire walk Message::parse_into runs (dnscore/wire_grammar.h) with a sink
// that records offsets instead of materializing, so the view accepts a
// buffer exactly when Message::parse does. qname() and ecs() decode on
// demand from the recorded offsets.
//
// Lifetime: the view borrows the buffer. The caller keeps the wire bytes
// alive and unmodified for as long as the view (or any span returned from
// it) is in use — in this codebase that is trivially true inside a netsim
// service callback, where the datagram payload outlives the synchronous
// handler.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "dnscore/annotations.h"
#include "dnscore/ecs.h"
#include "dnscore/message.h"

namespace ecsdns::dnscore {

class MessageView {
 public:
  // Validates the whole message; throws WireFormatError on any input that
  // Message::parse would reject. The walk is the zero-copy contract: it
  // records offsets and never materializes, so it must not allocate
  // (except to build the diagnostic when throwing on malformed input).
  ECSDNS_NOALLOC explicit MessageView(std::span<const std::uint8_t> wire);

  std::span<const std::uint8_t> wire() const noexcept { return wire_; }

  // --- header ---
  std::uint16_t id() const noexcept { return header_.id; }
  bool qr() const noexcept { return header_.qr; }
  Opcode opcode() const noexcept { return header_.opcode; }
  bool aa() const noexcept { return header_.aa; }
  bool tc() const noexcept { return header_.tc; }
  bool rd() const noexcept { return header_.rd; }
  bool ra() const noexcept { return header_.ra; }
  bool ad() const noexcept { return header_.ad; }
  bool cd() const noexcept { return header_.cd; }
  // Includes the extended-rcode bits from the OPT TTL, like Message.
  RCode rcode() const noexcept { return header_.rcode; }
  bool is_query() const noexcept { return !header_.qr; }
  bool is_response() const noexcept { return header_.qr; }

  std::uint16_t question_count() const noexcept { return qdcount_; }
  std::uint16_t answer_count() const noexcept { return ancount_; }
  std::uint16_t authority_count() const noexcept { return nscount_; }
  // Raw ARCOUNT from the header; includes the OPT pseudo-RR if present.
  std::uint16_t additional_count() const noexcept { return arcount_; }

  // --- first question (the only one DNS software acts on) ---
  // Type/class are pre-decoded; the name is parsed on demand.
  Name qname() const;  // requires question_count() >= 1
  RRType qtype() const noexcept { return qtype_; }
  RRClass qclass() const noexcept { return qclass_; }

  // --- EDNS / ECS ---
  bool has_opt() const noexcept { return has_opt_; }
  std::uint16_t udp_payload_size() const noexcept { return edns_.udp_payload_size; }
  std::uint8_t edns_version() const noexcept { return edns_.version; }
  bool dnssec_ok() const noexcept { return edns_.dnssec_ok; }
  std::uint8_t extended_rcode() const noexcept { return edns_.extended_rcode; }

  // True when an ECS option TLV is present — a pure presence probe, no
  // payload decode (agrees with Message::has_ecs()).
  bool has_ecs() const noexcept { return has_ecs_; }
  // The first ECS option's raw payload (empty span when absent).
  ECSDNS_NOALLOC std::span<const std::uint8_t> ecs_payload() const noexcept;
  // Decodes the ECS option. Throws WireFormatError on a present but
  // structurally short payload — exactly when Message::ecs() would.
  std::optional<EcsOption> ecs() const;

 private:
  // The walk's skipping sink (message_view.cpp).
  struct Walker;

  std::span<const std::uint8_t> wire_;

  Header header_;
  std::uint16_t qdcount_ = 0, ancount_ = 0, nscount_ = 0, arcount_ = 0;

  std::size_t qname_offset_ = 0;
  RRType qtype_ = RRType::A;
  RRClass qclass_ = RRClass::IN;

  bool has_opt_ = false;
  // The OPT record's fixed fields, named as in OptRecord so that
  // walk_opt_body fills either.
  struct EdnsFields {
    std::uint16_t udp_payload_size = 0;
    std::uint8_t extended_rcode = 0;
    std::uint8_t version = 0;
    bool dnssec_ok = false;
  } edns_;

  bool has_ecs_ = false;
  std::size_t ecs_offset_ = 0;
  std::uint16_t ecs_length_ = 0;
};

}  // namespace ecsdns::dnscore
