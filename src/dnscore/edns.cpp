#include "dnscore/edns.h"

#include <algorithm>

#include "dnscore/contracts.h"
#include "dnscore/wire_grammar.h"

namespace ecsdns::dnscore {
namespace {

constexpr std::size_t kTlvHeader = 4;  // OPTION-CODE, OPTION-LENGTH

std::uint16_t u16_at(const std::vector<std::uint8_t>& buf, std::size_t at) {
  return static_cast<std::uint16_t>((buf[at] << 8) | buf[at + 1]);
}

// The extent (header plus payload) of the well-framed TLV at `at`.
std::size_t tlv_size(const std::vector<std::uint8_t>& buf, std::size_t at) {
  ECSDNS_DCHECK(at + kTlvHeader <= buf.size());
  return kTlvHeader + u16_at(buf, at + 2);
}

}  // namespace

std::size_t OptRecord::offset_of(std::uint16_t code) const noexcept {
  std::size_t at = 0;
  while (at < options_.size() && u16_at(options_, at) != code) {
    at += tlv_size(options_, at);
  }
  return at;
}

void OptRecord::insert_option(std::size_t at, std::uint16_t code,
                              std::span<const std::uint8_t> payload) {
  ECSDNS_DCHECK(payload.size() <= 0xffff);
  const auto length = static_cast<std::uint16_t>(payload.size());
  const std::uint8_t header[kTlvHeader] = {
      static_cast<std::uint8_t>(code >> 8), static_cast<std::uint8_t>(code),
      static_cast<std::uint8_t>(length >> 8), static_cast<std::uint8_t>(length)};
  // ecstidy:allow(noalloc): grows the buffer only past the longest option
  // list it has held; a kept record refills within its capacity.
  options_.insert(options_.begin() + static_cast<std::ptrdiff_t>(at),
                  kTlvHeader + payload.size(), 0);
  const auto tlv = options_.begin() + static_cast<std::ptrdiff_t>(at);
  std::copy(payload.begin(), payload.end(),
            std::copy(header, header + kTlvHeader, tlv));
}

std::optional<std::span<const std::uint8_t>> OptRecord::find_option(
    EdnsOptionCode code) const noexcept {
  const std::size_t at = offset_of(static_cast<std::uint16_t>(code));
  if (at == options_.size()) return std::nullopt;
  return std::span<const std::uint8_t>(options_).subspan(
      at + kTlvHeader, tlv_size(options_, at) - kTlvHeader);
}

void OptRecord::set_option(EdnsOptionCode code, std::span<const std::uint8_t> payload) {
  // Every option with `code` lies at or past the first one, so after they
  // are all removed the first one's offset is where the new one goes.
  const std::size_t at = offset_of(static_cast<std::uint16_t>(code));
  remove_option(code);
  insert_option(at, static_cast<std::uint16_t>(code), payload);
}

void OptRecord::add_option(const EdnsOption& option) {
  insert_option(options_.size(), option.code, option.payload);
}

std::size_t OptRecord::remove_option(EdnsOptionCode code) {
  const auto wanted = static_cast<std::uint16_t>(code);
  std::size_t removed = 0;
  for (std::size_t at = offset_of(wanted); at < options_.size(); at = offset_of(wanted)) {
    const auto from = options_.begin() + static_cast<std::ptrdiff_t>(at);
    options_.erase(from, from + static_cast<std::ptrdiff_t>(tlv_size(options_, at)));
    ++removed;
  }
  return removed;
}

std::vector<EdnsOption> OptRecord::options() const {
  std::vector<EdnsOption> out;
  for (std::size_t at = 0; at < options_.size(); at += tlv_size(options_, at)) {
    const auto payload =
        options_.begin() + static_cast<std::ptrdiff_t>(at + kTlvHeader);
    out.push_back({u16_at(options_, at),
                   {payload, payload + u16_at(options_, at + 2)}});
  }
  return out;
}

void OptRecord::serialize(WireWriter& writer) const {
  serialize(writer, extended_rcode);
}

void OptRecord::serialize(WireWriter& writer, std::uint8_t extended_rcode_bits) const {
  writer.u8(0);  // root owner name
  writer.u16(static_cast<std::uint16_t>(RRType::OPT));
  writer.u16(udp_payload_size);
  std::uint32_t ttl = static_cast<std::uint32_t>(extended_rcode_bits) << 24;
  ttl |= static_cast<std::uint32_t>(version) << 16;
  if (dnssec_ok) ttl |= 0x8000u;
  writer.u32(ttl);
  ECSDNS_DCHECK(options_.size() <= 0xffff);
  writer.u16(static_cast<std::uint16_t>(options_.size()));
  writer.bytes(options_);
}

OptRecord OptRecord::parse_body(WireReader& reader) {
  OptRecord opt;
  parse_body_into(reader, opt);
  return opt;
}

void OptRecord::parse_body_into(WireReader& reader, OptRecord& opt) {
  // The walk checks the TLV framing first, so the kept buffer only ever
  // holds well framed options.
  const auto options = grammar::walk_opt_body(
      reader, opt, [](std::uint16_t, std::size_t, std::uint16_t) {});
  // ecstidy:allow(noalloc): refills the kept option buffer; it grows only
  // for a longer option list than it has held.
  opt.options_.assign(options.begin(), options.end());
}

}  // namespace ecsdns::dnscore
