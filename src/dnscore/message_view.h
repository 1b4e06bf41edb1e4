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
// The constructor walks the ENTIRE message eagerly with exactly the
// validation rules of Message::parse — same reader primitives, same order,
// same WireFormatError conditions — so a wire buffer is accepted by
// MessageView if and only if Message::parse accepts it (the differential
// oracle in tests/ and fuzz/ holds the two implementations to that
// contract). What the walk skips is materialization: it records offsets
// into the buffer instead of building Names, records, and option vectors.
// qname() and ecs() decode on demand from the recorded offsets.
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
  std::uint16_t id() const noexcept { return id_; }
  bool qr() const noexcept { return qr_; }
  Opcode opcode() const noexcept { return opcode_; }
  bool aa() const noexcept { return aa_; }
  bool tc() const noexcept { return tc_; }
  bool rd() const noexcept { return rd_; }
  bool ra() const noexcept { return ra_; }
  bool ad() const noexcept { return ad_; }
  bool cd() const noexcept { return cd_; }
  // Includes the extended-rcode bits from the OPT TTL, like Message.
  RCode rcode() const noexcept { return rcode_; }
  bool is_query() const noexcept { return !qr_; }
  bool is_response() const noexcept { return qr_; }

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
  std::uint16_t udp_payload_size() const noexcept { return udp_payload_size_; }
  std::uint8_t edns_version() const noexcept { return edns_version_; }
  bool dnssec_ok() const noexcept { return dnssec_ok_; }
  std::uint8_t extended_rcode() const noexcept { return extended_rcode_; }

  // True when an ECS option TLV is present — a pure presence probe, no
  // payload decode (agrees with Message::has_ecs()).
  bool has_ecs() const noexcept { return has_ecs_; }
  // The first ECS option's raw payload (empty span when absent).
  ECSDNS_NOALLOC std::span<const std::uint8_t> ecs_payload() const noexcept;
  // Decodes the ECS option. Throws WireFormatError on a present but
  // structurally short payload — exactly when Message::ecs() would.
  std::optional<EcsOption> ecs() const;

 private:
  std::span<const std::uint8_t> wire_;

  std::uint16_t id_ = 0;
  bool qr_ = false, aa_ = false, tc_ = false, rd_ = false, ra_ = false;
  bool ad_ = false, cd_ = false;
  Opcode opcode_ = Opcode::QUERY;
  RCode rcode_ = RCode::NOERROR;
  std::uint16_t qdcount_ = 0, ancount_ = 0, nscount_ = 0, arcount_ = 0;

  std::size_t qname_offset_ = 0;
  RRType qtype_ = RRType::A;
  RRClass qclass_ = RRClass::IN;

  bool has_opt_ = false;
  std::uint16_t udp_payload_size_ = 0;
  std::uint8_t extended_rcode_ = 0;
  std::uint8_t edns_version_ = 0;
  bool dnssec_ok_ = false;

  bool has_ecs_ = false;
  std::size_t ecs_offset_ = 0;
  std::uint16_t ecs_length_ = 0;
};

}  // namespace ecsdns::dnscore
