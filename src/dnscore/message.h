// The complete DNS message (RFC 1035 §4.1) with EDNS0 integration.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dnscore/annotations.h"
#include "dnscore/ecs.h"
#include "dnscore/edns.h"
#include "dnscore/record.h"

namespace ecsdns::dnscore {

struct Header {
  std::uint16_t id = 0;
  bool qr = false;  // response flag
  Opcode opcode = Opcode::QUERY;
  bool aa = false;  // authoritative answer
  bool tc = false;  // truncated
  bool rd = true;   // recursion desired
  bool ra = false;  // recursion available
  bool ad = false;  // authentic data (RFC 4035)
  bool cd = false;  // checking disabled
  RCode rcode = RCode::NOERROR;

  bool operator==(const Header&) const = default;
};

// A parsed or under-construction DNS message. The OPT pseudo-RR is lifted
// out of the additional section into `opt`, so `additional` holds only real
// records; serialization appends OPT last (RFC 6891 §6.1.1).
class Message {
 public:
  Header header;
  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authorities;
  std::vector<ResourceRecord> additional;
  std::optional<OptRecord> opt;

  // --- construction helpers ---
  static Message make_query(std::uint16_t id, const Name& qname, RRType qtype);
  // Builds a response skeleton from a query: copies id, question, opcode,
  // sets QR/RA, and echoes EDNS presence with an empty option list.
  static Message make_response(const Message& query);
  // make_response applied to this retained message: the result equals
  // make_response(query), but the section vectors and the OPT option
  // buffer keep their capacity for the next packet.
  void reset_response(const Message& query);

  const Question& question() const;
  bool is_query() const noexcept { return !header.qr; }
  bool is_response() const noexcept { return header.qr; }

  // --- ECS convenience ---
  // The decoded ECS option, if an OPT record with one is present. Throws
  // WireFormatError on an undecodable payload (EcsOption::parse_payload).
  ECSDNS_NOALLOC std::optional<EcsOption> ecs() const;
  // Installs (or replaces) the ECS option, creating the OPT record if
  // needed (OptRecord::set_option).
  void set_ecs(const EcsOption& ecs);
  // Removes the ECS option; keeps the OPT record (a resolver that strips
  // ECS still speaks EDNS). Returns true if one was removed.
  bool clear_ecs();
  // Pure presence probe on the OPT option list — no payload decode, no
  // allocation. Note: unlike ecs(), this returns true for a present but
  // structurally unparseable option (ecs() throws on those).
  bool has_ecs() const noexcept {
    return opt && opt->find_option(EdnsOptionCode::ECS).has_value();
  }

  // First A/AAAA address in the answer section, if any — the "first answer"
  // the paper's Table 2 methodology pings.
  std::optional<IpAddress> first_address() const;
  // All A/AAAA addresses in the answer section.
  std::vector<IpAddress> all_addresses() const;
  // Minimum answer-section TTL (used as the cache lifetime); nullopt when
  // the answer section is empty.
  std::optional<std::uint32_t> min_answer_ttl() const;

  // --- wire ---
  // `compress` applies RFC 1035 §4.1.4 name compression to owner names,
  // as production servers do; pass false for byte layouts that are easier
  // to inspect by hand.
  ECSDNS_MAY_BLOCK std::vector<std::uint8_t> serialize(bool compress = true) const;
  // Serializes into a caller-supplied writer — the pooled-buffer hot path
  // (no fresh vector per packet). The writer must be empty: compression
  // pointer offsets are writer-relative, so the message has to start at
  // offset 0. Steady-state noalloc: appends reuse pooled capacity and the
  // compression table is bounded by the message's owner names.
  ECSDNS_NOALLOC void serialize_into(WireWriter& writer, bool compress = true) const;
  // Compressed serialization against a caller-owned table (cleared on
  // entry, capacity retained): the per-shard dispatch path reuses one table
  // for every packet so compression itself stops allocating once the
  // table's capacity has converged.
  ECSDNS_NOALLOC void serialize_into(WireWriter& writer,
                                     Name::CompressionTable& table) const;
  ECSDNS_MAY_BLOCK static Message parse(std::span<const std::uint8_t> wire);
  // The one parser, decoding into `out` in place: section vectors and the
  // OPT option buffer keep their capacity, so re-parsing a same-shaped
  // message allocates nothing. Accepts and rejects exactly what parse()
  // does (parse is a wrapper over this); on a throw `out` holds a valid but
  // unspecified message.
  ECSDNS_NOALLOC static void parse_into(std::span<const std::uint8_t> wire,
                                        Message& out);

  // Multi-line dig-style rendering for logs and examples.
  std::string to_string() const;

 private:
  void serialize_body(WireWriter& writer, Name::CompressionTable* table) const;
};

}  // namespace ecsdns::dnscore
