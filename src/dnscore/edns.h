// EDNS0 (RFC 6891): the OPT pseudo-RR and its option list.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dnscore/annotations.h"
#include "dnscore/types.h"
#include "dnscore/wire.h"

namespace ecsdns::dnscore {

// One EDNS option TLV as a value: the generic form typed options (like ECS)
// are encoded to and decoded from, and what OptRecord::add_option takes and
// OptRecord::options() returns.
struct EdnsOption {
  std::uint16_t code = 0;
  std::vector<std::uint8_t> payload;

  bool operator==(const EdnsOption&) const = default;
};

// The decoded OPT pseudo-RR. The OPT record abuses the RR fields: CLASS
// carries the requestor's UDP payload size and TTL packs the extended
// rcode, EDNS version, and DO bit. The options stay in their wire form, one
// TLV buffer (RFC 6891 §6.1.2), so refilling a kept record reuses that one
// buffer's capacity whatever mix of options each packet carries.
struct OptRecord {
  std::uint16_t udp_payload_size = 4096;
  std::uint8_t extended_rcode = 0;  // upper 8 bits of the 12-bit rcode
  std::uint8_t version = 0;
  bool dnssec_ok = false;

  bool operator==(const OptRecord&) const = default;

  // The payload of the first option with `code`, if present: a view into
  // this record, valid until the options change.
  std::optional<std::span<const std::uint8_t>> find_option(
      EdnsOptionCode code) const noexcept;
  // Replaces the first option with `code` where it stands (or appends one)
  // and drops any later duplicates. `payload` must not point into this
  // record.
  void set_option(EdnsOptionCode code, std::span<const std::uint8_t> payload);
  // Appends one option after the present ones; duplicates are kept, as on
  // the wire.
  void add_option(const EdnsOption& option);
  // Removes every option with `code`; returns how many were removed.
  std::size_t remove_option(EdnsOptionCode code);
  // Removes every option; the buffer keeps its capacity.
  void clear_options() noexcept { options_.clear(); }
  // The options in wire order, decoded (tests and diagnostics).
  std::vector<EdnsOption> options() const;

  // Serializes the full OPT RR (root name, TYPE=41, fields, options).
  void serialize(WireWriter& writer) const;
  // Same, but with the extended-rcode TTL bits overridden — lets
  // Message::serialize_into patch the response rcode without copying the
  // whole OptRecord per packet.
  void serialize(WireWriter& writer, std::uint8_t extended_rcode_bits) const;
  // Parses the body of an OPT RR; the caller has already consumed the root
  // name and TYPE and passes the remaining header fields via the reader.
  static OptRecord parse_body(WireReader& reader);
  // In-place variant parse_body wraps: decodes into `out`, reusing its
  // option buffer. Throws like parse_body; `out` is valid but unspecified
  // on a throw.
  ECSDNS_NOALLOC static void parse_body_into(WireReader& reader, OptRecord& out);

 private:
  // Offset of the first option with `code`, or options_.size().
  std::size_t offset_of(std::uint16_t code) const noexcept;
  void insert_option(std::size_t at, std::uint16_t code,
                     std::span<const std::uint8_t> payload);

  // The option TLVs (CODE, LENGTH, payload) in wire order; always well
  // framed.
  std::vector<std::uint8_t> options_;
};

}  // namespace ecsdns::dnscore
