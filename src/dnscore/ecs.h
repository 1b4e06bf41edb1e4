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
// The class is a plain value (its ADDRESS is stored inline) and
// deliberately permissive: it represents any FAMILY and prefix lengths and
// any ADDRESS of up to 32 octets, the longest any SOURCE PREFIX-LENGTH calls
// for, so non-compliant options (the paper catalogs resolvers that emit
// them) survive decoding and validate() reports every deviation. A longer
// ADDRESS fits no source length and is unparseable.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
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
  // The longest ADDRESS any SOURCE PREFIX-LENGTH calls for: ceil(255 / 8).
  static constexpr std::size_t kMaxAddressOctets = 32;

  // Read-only view of the ADDRESS octets; views compare by content.
  struct AddressView : std::span<const std::uint8_t> {
    bool operator==(const AddressView& other) const noexcept;
  };

  // The encoded option payload (no TLV header), held by value.
  struct Payload {
    std::array<std::uint8_t, 4 + kMaxAddressOctets> bytes{};
    std::size_t size = 0;
    std::span<const std::uint8_t> span() const noexcept { return {bytes.data(), size}; }
  };

  EcsOption() = default;

  // Compliant query option announcing `prefix` with scope 0: the same as
  // for_response(prefix, 0).
  static EcsOption for_query(const Prefix& prefix) { return for_response(prefix, 0); }
  // Compliant response option echoing the query's prefix with the
  // authoritative `scope`.
  static EcsOption for_response(const Prefix& prefix, int scope);
  // The RFC 7871 §7.1.2 opt-out: source prefix length 0, empty address,
  // asking the authoritative not to use (and not to need) client info.
  static EcsOption anonymous(EcsFamily family = EcsFamily::IPv4);

  std::uint16_t family() const noexcept { return family_; }
  std::uint8_t source_prefix_length() const noexcept { return source_; }
  std::uint8_t scope_prefix_length() const noexcept { return scope_; }
  AddressView address_bytes() const noexcept {
    return {{address_.data(), address_length_}};
  }

  void set_family(std::uint16_t f) noexcept { family_ = f; }
  void set_source_prefix_length(std::uint8_t s) noexcept { source_ = s; }
  void set_scope_prefix_length(std::uint8_t s) noexcept { scope_ = s; }
  // Throws std::length_error past kMaxAddressOctets.
  void set_address_bytes(std::span<const std::uint8_t> b);
  void set_address_bytes(std::initializer_list<std::uint8_t> b) {
    set_address_bytes(std::span<const std::uint8_t>(b.begin(), b.size()));
  }

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

  // Encodes to the generic EDNS option TLV (code 8).
  EdnsOption to_edns() const;
  // Decodes; throws WireFormatError if the payload is structurally
  // unparseable (too short for its own declared lengths). Semantic issues
  // are preserved for validate() instead of throwing, because observing
  // them is the whole point of this library.
  static EcsOption from_edns(const EdnsOption& option);
  // Same decode from the raw option payload (no TLV header). Throws
  // WireFormatError on a payload shorter than the fixed 4-octet header or
  // an ADDRESS longer than kMaxAddressOctets. Message and MessageView hand
  // their in-place payload spans here, so the decode paths cannot diverge.
  ECSDNS_NOALLOC static EcsOption parse_payload(std::span<const std::uint8_t> payload);
  // The option payload wire bytes (no TLV header), by value: the allocation-
  // free encoding Message::set_ecs installs.
  ECSDNS_NOALLOC Payload payload() const noexcept;

  // e.g. "ECS 1.2.3.0/24 scope 0".
  std::string to_string() const;

  bool operator==(const EcsOption&) const = default;

 private:
  std::uint16_t family_ = static_cast<std::uint16_t>(EcsFamily::IPv4);
  std::uint8_t source_ = 0;
  std::uint8_t scope_ = 0;
  std::uint8_t address_length_ = 0;
  // Octets past address_length_ stay zero, so the defaulted == compares
  // values.
  std::array<std::uint8_t, kMaxAddressOctets> address_{};
};

static_assert(std::is_trivially_copyable_v<EcsOption>);

}  // namespace ecsdns::dnscore
