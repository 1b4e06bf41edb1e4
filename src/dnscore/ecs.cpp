#include "dnscore/ecs.h"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace ecsdns::dnscore {
namespace {

std::size_t address_octets_for(std::uint8_t source_bits) {
  return (static_cast<std::size_t>(source_bits) + 7) / 8;
}

}  // namespace

std::string to_string(EcsIssue issue) {
  switch (issue) {
    case EcsIssue::kUnknownFamily: return "unknown address family";
    case EcsIssue::kSourceLengthTooLong: return "source prefix length exceeds family";
    case EcsIssue::kScopeLengthTooLong: return "scope prefix length exceeds family";
    case EcsIssue::kAddressLengthMismatch: return "address field length mismatch";
    case EcsIssue::kNonZeroTrailingBits: return "non-zero bits beyond source prefix";
    case EcsIssue::kScopeNonZeroInQuery: return "non-zero scope in query";
  }
  return "unknown issue";
}

EcsOption EcsOption::for_response(const Prefix& prefix, int scope) {
  EcsOption o;
  o.family_ = static_cast<std::uint16_t>(
      prefix.family() == IpFamily::V4 ? EcsFamily::IPv4 : EcsFamily::IPv6);
  o.source_ = static_cast<std::uint8_t>(prefix.length());
  o.scope_ = static_cast<std::uint8_t>(scope);
  o.set_address_bytes(std::span<const std::uint8_t>(prefix.address().bytes())
                          .first(address_octets_for(o.source_)));
  return o;
}

EcsOption EcsOption::anonymous(EcsFamily family) {
  EcsOption o;
  o.family_ = static_cast<std::uint16_t>(family);
  o.source_ = 0;
  o.scope_ = 0;
  return o;
}

bool EcsOption::AddressView::operator==(const AddressView& other) const noexcept {
  return std::ranges::equal(*this, other);
}

void EcsOption::set_address_bytes(std::span<const std::uint8_t> b) {
  if (b.size() > kMaxAddressOctets) {
    throw std::length_error("ECS address longer than " +
                            std::to_string(kMaxAddressOctets) + " octets");
  }
  address_.fill(0);
  std::copy(b.begin(), b.end(), address_.begin());
  address_length_ = static_cast<std::uint8_t>(b.size());
}

std::optional<Prefix> EcsOption::source_prefix() const {
  const int max_bits = family_ == static_cast<std::uint16_t>(EcsFamily::IPv4) ? 32
                       : family_ == static_cast<std::uint16_t>(EcsFamily::IPv6)
                           ? 128
                           : -1;
  if (max_bits < 0 || source_ > max_bits) return std::nullopt;
  if (address_length_ != address_octets_for(source_)) return std::nullopt;
  std::array<std::uint8_t, 16> bytes{};
  std::copy_n(address_.begin(), address_length_, bytes.begin());
  const IpAddress addr = max_bits == 32
                             ? IpAddress::v4(bytes[0], bytes[1], bytes[2], bytes[3])
                             : IpAddress::v6(bytes);
  return Prefix{addr, source_};
}

std::optional<Prefix> EcsOption::scope_prefix() const {
  auto src = source_prefix();
  if (!src) return std::nullopt;
  if (scope_ > src->address().bit_length()) return std::nullopt;
  return Prefix{src->address(), scope_};
}

std::vector<EcsIssue> EcsOption::validate(bool in_query) const {
  std::vector<EcsIssue> issues;
  int max_bits = -1;
  if (family_ == static_cast<std::uint16_t>(EcsFamily::IPv4)) {
    max_bits = 32;
  } else if (family_ == static_cast<std::uint16_t>(EcsFamily::IPv6)) {
    max_bits = 128;
  } else {
    issues.push_back(EcsIssue::kUnknownFamily);
  }
  if (max_bits > 0) {
    if (source_ > max_bits) issues.push_back(EcsIssue::kSourceLengthTooLong);
    if (scope_ > max_bits) issues.push_back(EcsIssue::kScopeLengthTooLong);
  }
  if (address_length_ != address_octets_for(source_)) {
    issues.push_back(EcsIssue::kAddressLengthMismatch);
  } else if (source_ % 8 != 0 && address_length_ != 0) {
    // Bits of the final octet past the source prefix must be zero.
    const std::uint8_t mask = static_cast<std::uint8_t>(0xff >> (source_ % 8));
    if ((address_[address_length_ - 1u] & mask) != 0) {
      issues.push_back(EcsIssue::kNonZeroTrailingBits);
    }
  }
  if (in_query && scope_ != 0) issues.push_back(EcsIssue::kScopeNonZeroInQuery);
  return issues;
}

bool EcsOption::is_malformed(bool in_query) const {
  for (const auto issue : validate(in_query)) {
    switch (issue) {
      case EcsIssue::kUnknownFamily:
      case EcsIssue::kSourceLengthTooLong:
      case EcsIssue::kAddressLengthMismatch:
      case EcsIssue::kNonZeroTrailingBits:
        return true;
      case EcsIssue::kScopeLengthTooLong:
      case EcsIssue::kScopeNonZeroInQuery:
        break;
    }
  }
  return false;
}

EdnsOption EcsOption::to_edns() const {
  const Payload p = payload();
  return {static_cast<std::uint16_t>(EdnsOptionCode::ECS),
          {p.bytes.begin(), p.bytes.begin() + static_cast<std::ptrdiff_t>(p.size)}};
}

EcsOption::Payload EcsOption::payload() const noexcept {
  Payload p{{static_cast<std::uint8_t>(family_ >> 8),
             static_cast<std::uint8_t>(family_), source_, scope_},
            4u + address_length_};
  std::copy_n(address_.begin(), address_length_, p.bytes.begin() + 4);
  return p;
}

EcsOption EcsOption::from_edns(const EdnsOption& option) {
  if (option.code != static_cast<std::uint16_t>(EdnsOptionCode::ECS)) {
    throw WireFormatError("not an ECS option (code " + std::to_string(option.code) + ")");
  }
  return parse_payload({option.payload.data(), option.payload.size()});
}

EcsOption EcsOption::parse_payload(std::span<const std::uint8_t> payload) {
  WireReader r(payload);
  EcsOption o;
  o.family_ = r.u16();
  o.source_ = r.u8();
  o.scope_ = r.u8();
  if (r.remaining() > kMaxAddressOctets) {
    throw WireFormatError("ECS address longer than any source prefix length allows");
  }
  o.set_address_bytes(r.bytes(r.remaining()));
  return o;
}

std::string EcsOption::to_string() const {
  std::string out = "ECS ";
  if (auto p = source_prefix()) {
    out += p->to_string();
  } else {
    out += "family=" + std::to_string(family_) + " source=" + std::to_string(source_) +
           " addr=" + hex_dump(address_bytes());
  }
  out += " scope " + std::to_string(scope_);
  return out;
}

}  // namespace ecsdns::dnscore
