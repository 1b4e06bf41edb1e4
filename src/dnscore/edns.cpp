#include "dnscore/edns.h"

#include <algorithm>
#include <utility>

#include "dnscore/contracts.h"

namespace ecsdns::dnscore {

const EdnsOption* OptRecord::find_option(EdnsOptionCode code) const noexcept {
  const auto wanted = static_cast<std::uint16_t>(code);
  for (const auto& opt : options) {
    if (opt.code == wanted) return &opt;
  }
  return nullptr;
}

EdnsOption* OptRecord::find_option(EdnsOptionCode code) noexcept {
  return const_cast<EdnsOption*>(std::as_const(*this).find_option(code));
}

EdnsOption& OptRecord::ensure_option(EdnsOptionCode code) {
  const auto wanted = static_cast<std::uint16_t>(code);
  std::size_t keep = options.size();
  for (std::size_t i = 0; i < options.size(); ++i) {
    if (options[i].code == wanted) {
      keep = i;
      break;
    }
  }
  if (keep == options.size()) {
    options.push_back(EdnsOption{wanted, {}});
    return options.back();
  }
  // Collapse duplicates onto the first slot so set-style callers converge
  // on exactly one option of this code.
  options.erase(std::remove_if(options.begin() + static_cast<std::ptrdiff_t>(keep) + 1,
                               options.end(),
                               [wanted](const EdnsOption& o) { return o.code == wanted; }),
                options.end());
  return options[keep];
}

std::size_t OptRecord::remove_option(EdnsOptionCode code) {
  const auto wanted = static_cast<std::uint16_t>(code);
  const auto removed = std::erase_if(
      options, [wanted](const EdnsOption& o) { return o.code == wanted; });
  return removed;
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
  const std::size_t rdlen_at = writer.reserve_u16();
  const std::size_t rdata_start = writer.size();
  for (const auto& opt : options) {
    ECSDNS_DCHECK(opt.payload.size() <= 0xffff);
    writer.u16(opt.code);
    writer.u16(static_cast<std::uint16_t>(opt.payload.size()));
    writer.bytes({opt.payload.data(), opt.payload.size()});
  }
  ECSDNS_DCHECK(writer.size() - rdata_start <= 0xffff);
  writer.patch_u16(rdlen_at, static_cast<std::uint16_t>(writer.size() - rdata_start));
}

OptRecord OptRecord::parse_body(WireReader& reader) {
  OptRecord opt;
  parse_body_into(reader, opt);
  return opt;
}

void OptRecord::parse_body_into(WireReader& reader, OptRecord& opt) {
  opt.udp_payload_size = reader.u16();
  const std::uint32_t ttl = reader.u32();
  opt.extended_rcode = static_cast<std::uint8_t>(ttl >> 24);
  opt.version = static_cast<std::uint8_t>((ttl >> 16) & 0xff);
  opt.dnssec_ok = (ttl & 0x8000u) != 0;
  const std::uint16_t rdlength = reader.u16();
  const std::size_t end = reader.offset() + rdlength;
  std::size_t count = 0;
  while (reader.offset() < end) {
    if (end - reader.offset() < 4) {
      throw WireFormatError("truncated EDNS option header");
    }
    const std::uint16_t code = reader.u16();
    const std::uint16_t optlen = reader.u16();
    if (reader.offset() + optlen > end) {
      throw WireFormatError("EDNS option overruns OPT rdata");
    }
    const auto raw = reader.bytes(optlen);
    if (count == opt.options.size()) {
      // ecstidy:allow(noalloc): first-use growth — one slot per option the
      // retained record has never held; re-parses reuse the slots.
      opt.options.emplace_back();
    }
    EdnsOption& o = opt.options[count++];
    o.code = code;
    // ecstidy:allow(noalloc): refills the retained slot; grows only when
    // this payload outsizes every earlier one in the slot.
    o.payload.assign(raw.begin(), raw.end());
  }
  // Each TLV was bounds-checked against `end`, so a successful parse lands
  // exactly on the declared RDLENGTH boundary.
  ECSDNS_DCHECK(reader.offset() == end);
  // ecstidy:allow(noalloc): shrinking never allocates; it drops the slots of
  // options this packet did not carry.
  opt.options.resize(count);
}

}  // namespace ecsdns::dnscore
