// The DNS message wire grammar (RFC 1035 §4.1, RFC 6891 §6.1), written once.
//
// Message::parse_into and MessageView run the same walk over the same
// bytes, so they accept and reject exactly the same inputs with the same
// WireFormatError. Every reject rule lives in a walk below (name rules in
// the label walk in name.cpp); what differs between the readers lives in the
// step or sink they pass: RecordBuilder and Message's sink materialize,
// MessageView's sink records offsets and skips.
//
// A sink provides, besides the record steps RecordBuilder shows:
//   counts(SectionCounts, remaining)   after the header
//   question(offset, qname, qtype, qclass)
//   answer(rr), authority(rr), additional(rr)
//   opt(reader) -> extended rcode      reads the OPT body via walk_opt_body
//   finish(header, has_opt)            after the whole message validated
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dnscore/contracts.h"
#include "dnscore/message.h"
#include "dnscore/wire.h"

namespace ecsdns::dnscore::grammar {

// Header flag bits (RFC 1035 §4.1.1, RFC 4035 §3.2 for AD/CD).
inline constexpr std::uint16_t kQrMask = 0x8000;
inline constexpr std::uint16_t kAaMask = 0x0400;
inline constexpr std::uint16_t kTcMask = 0x0200;
inline constexpr std::uint16_t kRdMask = 0x0100;
inline constexpr std::uint16_t kRaMask = 0x0080;
inline constexpr std::uint16_t kAdMask = 0x0020;
inline constexpr std::uint16_t kCdMask = 0x0010;

// ID and flags. The rcode holds the four header bits until an OPT record
// supplies the extended ones.
inline Header read_header(WireReader& r) {
  Header h;
  h.id = r.u16();
  const std::uint16_t flags = r.u16();
  h.qr = (flags & kQrMask) != 0;
  h.opcode = static_cast<Opcode>((flags >> 11) & 0x0f);
  h.aa = (flags & kAaMask) != 0;
  h.tc = (flags & kTcMask) != 0;
  h.rd = (flags & kRdMask) != 0;
  h.ra = (flags & kRaMask) != 0;
  h.ad = (flags & kAdMask) != 0;
  h.cd = (flags & kCdMask) != 0;
  h.rcode = static_cast<RCode>(flags & 0x0f);
  return h;
}

struct SectionCounts {
  std::uint16_t questions = 0;
  std::uint16_t answers = 0;
  std::uint16_t authorities = 0;
  std::uint16_t additional = 0;
};

// The materializing record step: names become Names, and make<T> builds
// the typed rdata alternative (or the ResourceRecord) from its fields.
struct RecordBuilder {
  using Rdata = dnscore::Rdata;

  Name name(WireReader& r) const { return Name::parse(r); }
  template <class T, class... Fields>
  T make(Fields&&... fields) const {
    return T{std::forward<Fields>(fields)...};
  }
  Rdata a(std::span<const std::uint8_t> b) const {
    return ARdata{IpAddress::v4(b[0], b[1], b[2], b[3])};
  }
  Rdata aaaa(std::span<const std::uint8_t> b) const {
    std::array<std::uint8_t, 16> bytes{};
    std::copy(b.begin(), b.end(), bytes.begin());
    return AaaaRdata{IpAddress::v6(bytes)};
  }
  void txt_string(TxtRdata& txt, std::span<const std::uint8_t> s) const {
    txt.strings.emplace_back(reinterpret_cast<const char*>(s.data()), s.size());
  }
  Rdata raw(RRType type, std::span<const std::uint8_t> b) const {
    return RawRdata{static_cast<std::uint16_t>(type),
                    std::vector<std::uint8_t>(b.begin(), b.end())};
  }
};

// The OPT owner rule reads a materialized owner or a skipped one's labels.
inline bool is_root(const Name& owner) noexcept { return owner.is_root(); }
inline bool is_root(std::size_t owner_labels) noexcept { return owner_labels == 0; }

// `rdlength` octets of rdata for `type` (RFC 1035 §3.3, RFC 3596). Names in
// rdata may be compressed, so a name-bearing rdata is checked against
// RDLENGTH after its names are read.
template <class Step>
typename Step::Rdata walk_rdata(RRType type, std::uint16_t rdlength,
                                WireReader& r, const Step& step) {
  const std::size_t end = r.offset() + rdlength;
  const auto within_rdlength = [&](auto rdata) {
    if (r.offset() > end) {
      throw WireFormatError("rdata overruns RDLENGTH in " + to_string(type));
    }
    return rdata;
  };
  switch (type) {
    case RRType::A:
      if (rdlength != 4) throw WireFormatError("A rdata must be 4 octets");
      return step.a(r.bytes(4));
    case RRType::AAAA:
      if (rdlength != 16) throw WireFormatError("AAAA rdata must be 16 octets");
      return step.aaaa(r.bytes(16));
    case RRType::NS:
      return within_rdlength(step.template make<NsRdata>(step.name(r)));
    case RRType::CNAME:
      return within_rdlength(step.template make<CnameRdata>(step.name(r)));
    case RRType::PTR:
      return within_rdlength(step.template make<PtrRdata>(step.name(r)));
    case RRType::MX: {
      const std::uint16_t preference = r.u16();
      return within_rdlength(step.template make<MxRdata>(preference, step.name(r)));
    }
    case RRType::TXT: {
      auto txt = step.template make<TxtRdata>();
      std::size_t consumed = 0;
      while (consumed < rdlength) {
        const std::uint8_t len = r.u8();
        step.txt_string(txt, r.bytes(len));
        consumed += 1u + len;
      }
      if (consumed != rdlength) throw WireFormatError("TXT rdata length mismatch");
      return txt;
    }
    case RRType::SOA: {
      auto mname = step.name(r);
      auto rname = step.name(r);
      std::uint32_t timers[5] = {};  // serial, refresh, retry, expire, minimum
      for (auto& t : timers) t = r.u32();
      return within_rdlength(step.template make<SoaRdata>(
          std::move(mname), std::move(rname), timers[0], timers[1], timers[2],
          timers[3], timers[4]));
    }
    default:
      return step.raw(type, r.bytes(rdlength));
  }
}

// The rest of a resource record once its owner and TYPE are read.
template <class Step, class Owner>
auto walk_record(WireReader& r, const Step& step, Owner owner, RRType type) {
  const auto rrclass = static_cast<RRClass>(r.u16());
  const std::uint32_t ttl = r.u32();
  const std::uint16_t rdlength = r.u16();
  const std::size_t end = r.offset() + rdlength;
  auto rdata = walk_rdata(type, rdlength, r, step);
  // Typed rdata consumes exactly RDLENGTH (checked above) and raw rdata
  // by construction; the seek keeps the section walk on the record grid.
  r.seek(end);
  return step.template make<ResourceRecord>(std::move(owner), type, rrclass,
                                            ttl, std::move(rdata));
}

// A whole resource record (RFC 1035 §4.1.3).
template <class Step>
auto walk_record(WireReader& r, const Step& step) {
  auto owner = step.name(r);
  const auto type = static_cast<RRType>(r.u16());
  return walk_record(r, step, std::move(owner), type);
}

// The OPT body (RFC 6891 §6.1.2-6.1.3): CLASS is the UDP payload size, TTL
// packs the extended rcode, version and DO bit, and RDATA holds option
// TLVs. Stores the fixed fields into `fields` (an OptRecord or the view's
// copy of them), checks the TLV framing, hands each option's code, payload
// offset and length to `on_option`, and returns the RDATA.
template <class Fields, class OnOption>
std::span<const std::uint8_t> walk_opt_body(WireReader& r, Fields& fields,
                                            OnOption&& on_option) {
  constexpr std::size_t kTlvHeader = 4;  // OPTION-CODE, OPTION-LENGTH
  fields.udp_payload_size = r.u16();
  const std::uint32_t ttl = r.u32();
  fields.extended_rcode = static_cast<std::uint8_t>(ttl >> 24);
  fields.version = static_cast<std::uint8_t>((ttl >> 16) & 0xff);
  fields.dnssec_ok = (ttl & 0x8000u) != 0;
  const std::uint16_t rdlength = r.u16();
  const std::size_t start = r.offset();
  const std::size_t end = start + rdlength;
  while (r.offset() < end) {
    if (end - r.offset() < kTlvHeader) {
      throw WireFormatError("truncated EDNS option header");
    }
    const std::uint16_t code = r.u16();
    const std::uint16_t optlen = r.u16();
    if (r.offset() + optlen > end) {
      throw WireFormatError("EDNS option overruns OPT rdata");
    }
    on_option(code, r.offset(), optlen);
    r.skip(optlen);
  }
  // Each TLV was bounds-checked against `end`, so a successful walk lands
  // exactly on the declared RDLENGTH boundary.
  ECSDNS_DCHECK(r.offset() == end);
  r.seek(start);
  return r.bytes(rdlength);
}

// The message: header, section counts, the four sections in order, at
// most one OPT (root owner, additional section only) whose extended rcode
// bits join the header's, and no trailing bytes.
template <class Sink>
void walk_message(WireReader& r, Sink& sink) {
  Header header = read_header(r);
  SectionCounts counts;
  counts.questions = r.u16();
  counts.answers = r.u16();
  counts.authorities = r.u16();
  counts.additional = r.u16();
  sink.counts(counts, r.remaining());
  for (std::uint16_t i = 0; i < counts.questions; ++i) {
    const std::size_t at = r.offset();
    auto qname = sink.name(r);
    const auto qtype = static_cast<RRType>(r.u16());
    const auto qclass = static_cast<RRClass>(r.u16());
    sink.question(at, std::move(qname), qtype, qclass);
  }
  for (std::uint16_t i = 0; i < counts.answers; ++i) {
    sink.answer(walk_record(r, sink));
  }
  for (std::uint16_t i = 0; i < counts.authorities; ++i) {
    sink.authority(walk_record(r, sink));
  }
  bool has_opt = false;
  for (std::uint16_t i = 0; i < counts.additional; ++i) {
    auto owner = sink.name(r);
    const auto type = static_cast<RRType>(r.u16());
    if (type != RRType::OPT) {
      sink.additional(walk_record(r, sink, std::move(owner), type));
      continue;
    }
    if (!is_root(owner)) throw WireFormatError("OPT record with non-root owner");
    if (has_opt) throw WireFormatError("duplicate OPT record");
    has_opt = true;
    const std::uint8_t extended_rcode = sink.opt(r);
    header.rcode = static_cast<RCode>(
        static_cast<std::uint16_t>(header.rcode) |
        static_cast<std::uint16_t>(extended_rcode << 4));
  }
  if (!r.at_end()) throw WireFormatError("trailing bytes after message");
  sink.finish(header, has_opt);
}

}  // namespace ecsdns::dnscore::grammar
