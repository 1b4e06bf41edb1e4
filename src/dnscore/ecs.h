// The EDNS Client Subnet option (RFC 7871).
//
// Wire format of the option payload (§6):
//
//      +0 (MSB)                            +1 (LSB)
//   +--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+
//   |                   FAMILY                      |
//   +--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+
//   |  SOURCE PREFIX-LENGTH  |  SCOPE PREFIX-LENGTH |
//   +--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+
//   |                 ADDRESS...                    /
//   +--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+--+
//
// ADDRESS is exactly ceil(SOURCE PREFIX-LENGTH / 8) octets; bits past the
// source prefix length MUST be zero.
//
// The struct is deliberately permissive: it can represent non-compliant
// options (the paper catalogs resolvers that emit them), and validate()
// reports every deviation so measurement code can classify behaviors.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dnscore/annotations.h"
#include "dnscore/edns.h"
#include "dnscore/ip.h"
#include "dnscore/types.h"

namespace ecsdns::dnscore {

// Specific compliance problems validate() can flag.
enum class EcsIssue {
  kUnknownFamily,          // FAMILY not 1 (IPv4) or 2 (IPv6)
  kSourceLengthTooLong,    // source prefix exceeds the family bit length
  kScopeLengthTooLong,     // scope prefix exceeds the family bit length
  kAddressLengthMismatch,  // ADDRESS not exactly ceil(source/8) octets
  kNonZeroTrailingBits,    // address bits beyond the source prefix set
  kScopeNonZeroInQuery,    // queries MUST send scope 0 (§6)
};

std::string to_string(EcsIssue issue);

class EcsOption {
 public:
  EcsOption() = default;

  // Compliant query option announcing `prefix` with scope 0.
  static EcsOption for_query(const Prefix& prefix);
  // Compliant response option echoing the query's prefix with the
  // authoritative `scope`.
  static EcsOption for_response(const Prefix& prefix, int scope);
  // The RFC 7871 §7.1.2 opt-out: source prefix length 0, empty address,
  // asking the authoritative not to use (and not to need) client info.
  static EcsOption anonymous(EcsFamily family = EcsFamily::IPv4);

  std::uint16_t family() const noexcept { return family_; }
  std::uint8_t source_prefix_length() const noexcept { return source_; }
  std::uint8_t scope_prefix_length() const noexcept { return scope_; }
  const std::vector<std::uint8_t>& address_bytes() const noexcept { return address_; }

  void set_family(std::uint16_t f) noexcept { family_ = f; }
  void set_source_prefix_length(std::uint8_t s) noexcept { source_ = s; }
  void set_scope_prefix_length(std::uint8_t s) noexcept { scope_ = s; }
  void set_address_bytes(std::vector<std::uint8_t> b) { address_ = std::move(b); }

  // Interprets FAMILY + ADDRESS as a Prefix at the source prefix length.
  // Returns nullopt when the family is unknown or lengths are inconsistent.
  std::optional<Prefix> source_prefix() const;
  // Same but at the scope prefix length (meaningful in responses).
  std::optional<Prefix> scope_prefix() const;

  // Every compliance problem with this option. `in_query` additionally
  // enforces the scope-must-be-zero rule.
  std::vector<EcsIssue> validate(bool in_query) const;
  bool is_valid(bool in_query) const { return validate(in_query).empty(); }
  // True when validate() finds an issue that makes the option unusable
  // rather than merely non-compliant: an unknown family, a source prefix
  // longer than the family, an ADDRESS of the wrong length, or address bits
  // set past the source prefix. RFC 7871 §6 and §7.1.1 direct a receiver to
  // answer FORMERR; the authoritative and the resolver both apply this one
  // rule. An over-long or (in a query) non-zero scope is tolerated and read
  // as scope 0.
  bool is_malformed(bool in_query) const;

  // Re-targets this option at `prefix` with `scope`, reusing the address
  // buffer's capacity: for_query and for_response build on it, and the
  // resolver fills its leased upstream option through it without
  // allocating.
  ECSDNS_NOALLOC void assign_from_prefix(const Prefix& prefix, int scope = 0);

  // Encodes to the generic EDNS option TLV (code 8).
  EdnsOption to_edns() const;
  // Decodes; throws WireFormatError if the payload is structurally
  // unparseable (too short for its own declared lengths). Semantic issues
  // are preserved for validate() instead of throwing, because observing
  // them is the whole point of this library.
  static EcsOption from_edns(const EdnsOption& option);
  // Same decode from the raw option payload (no TLV header). MessageView
  // hands its in-place payload span here, so the two decode paths cannot
  // diverge.
  static EcsOption parse_payload(std::span<const std::uint8_t> payload);
  // In-place variant of parse_payload: decodes into this object, reusing
  // the address buffer's capacity. The packet path decodes every query's
  // ECS into a per-shard scratch option through this, so steady-state
  // dispatch never allocates for it. Throws like parse_payload; fields may
  // be partially overwritten on throw.
  void assign_from_payload(std::span<const std::uint8_t> payload);
  // Appends the option payload wire bytes (no TLV header) into `out`,
  // replacing its contents but reusing its capacity — the in-place dual of
  // to_edns() for Message::set_ecs's retained option slot.
  ECSDNS_NOALLOC void payload_into(std::vector<std::uint8_t>& out) const;

  // e.g. "ECS 1.2.3.0/24 scope 0".
  std::string to_string() const;

  bool operator==(const EcsOption&) const = default;

 private:
  std::uint16_t family_ = static_cast<std::uint16_t>(EcsFamily::IPv4);
  std::uint8_t source_ = 0;
  std::uint8_t scope_ = 0;
  std::vector<std::uint8_t> address_;
};

}  // namespace ecsdns::dnscore
