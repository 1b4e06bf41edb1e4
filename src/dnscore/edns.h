// EDNS0 (RFC 6891): the OPT pseudo-RR and its option list.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dnscore/annotations.h"
#include "dnscore/types.h"
#include "dnscore/wire.h"

namespace ecsdns::dnscore {

// One EDNS option TLV. Typed options (like ECS) are encoded to/decoded from
// this generic form by their own modules.
struct EdnsOption {
  std::uint16_t code = 0;
  std::vector<std::uint8_t> payload;

  bool operator==(const EdnsOption&) const = default;
};

// The decoded OPT pseudo-RR. The OPT record abuses the RR fields: CLASS
// carries the requestor's UDP payload size and TTL packs the extended
// rcode, EDNS version, and DO bit.
struct OptRecord {
  std::uint16_t udp_payload_size = 4096;
  std::uint8_t extended_rcode = 0;  // upper 8 bits of the 12-bit rcode
  std::uint8_t version = 0;
  bool dnssec_ok = false;
  std::vector<EdnsOption> options;

  bool operator==(const OptRecord&) const = default;

  // Returns the first option with `code`, if present.
  const EdnsOption* find_option(EdnsOptionCode code) const noexcept;
  EdnsOption* find_option(EdnsOptionCode code) noexcept;
  // Removes every option with `code`; returns how many were removed.
  std::size_t remove_option(EdnsOptionCode code);
  // Returns the option with `code`, creating an empty one if absent and
  // dropping any duplicates. The surviving slot keeps its payload capacity,
  // so refilling it on the packet path is allocation-free in steady state.
  EdnsOption& ensure_option(EdnsOptionCode code);

  // Serializes the full OPT RR (root name, TYPE=41, fields, options).
  void serialize(WireWriter& writer) const;
  // Same, but with the extended-rcode TTL bits overridden — lets
  // Message::serialize_into patch the response rcode without copying the
  // whole OptRecord per packet.
  void serialize(WireWriter& writer, std::uint8_t extended_rcode_bits) const;
  // Parses the body of an OPT RR; the caller has already consumed the root
  // name and TYPE and passes the remaining header fields via the reader.
  static OptRecord parse_body(WireReader& reader);
  // In-place variant parse_body wraps: decodes into `out`, refilling its
  // existing option slots so their payload capacity is reused. Throws like
  // parse_body; `out` is valid but unspecified on a throw.
  ECSDNS_NOALLOC static void parse_body_into(WireReader& reader, OptRecord& out);
};

}  // namespace ecsdns::dnscore
