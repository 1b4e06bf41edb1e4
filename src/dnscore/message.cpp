#include "dnscore/message.h"

#include <algorithm>
#include <stdexcept>

#include "dnscore/contracts.h"

namespace ecsdns::dnscore {
namespace {

constexpr std::uint16_t kQrMask = 0x8000;
constexpr std::uint16_t kAaMask = 0x0400;
constexpr std::uint16_t kTcMask = 0x0200;
constexpr std::uint16_t kRdMask = 0x0100;
constexpr std::uint16_t kRaMask = 0x0080;
constexpr std::uint16_t kAdMask = 0x0020;
constexpr std::uint16_t kCdMask = 0x0010;

}  // namespace

Message Message::make_query(std::uint16_t id, const Name& qname, RRType qtype) {
  Message m;
  m.header.id = id;
  m.header.rd = true;
  m.questions.push_back(Question{qname, qtype, RRClass::IN});
  return m;
}

Message Message::make_response(const Message& query) {
  Message m;
  m.reset_response(query);
  return m;
}

void Message::reset_response(const Message& query) {
  header = Header{};
  header.id = query.header.id;
  header.qr = true;
  header.opcode = query.header.opcode;
  header.rd = query.header.rd;
  header.ra = true;
  questions.assign(query.questions.begin(), query.questions.end());
  answers.clear();
  authorities.clear();
  additional.clear();
  if (query.opt) {
    if (!opt) opt.emplace();
    opt->udp_payload_size = 4096;
    opt->extended_rcode = 0;
    opt->version = 0;
    opt->dnssec_ok = false;
    opt->clear_options();
  } else {
    opt.reset();
  }
}

const Question& Message::question() const {
  if (questions.empty()) throw std::logic_error("message has no question");
  return questions.front();
}

std::optional<EcsOption> Message::ecs() const {
  if (!opt) return std::nullopt;
  const auto payload = opt->find_option(EdnsOptionCode::ECS);
  if (!payload) return std::nullopt;
  return EcsOption::parse_payload(*payload);
}

void Message::set_ecs(const EcsOption& ecs) {
  if (!opt) opt = OptRecord{};
  opt->set_option(EdnsOptionCode::ECS, ecs.payload().span());
}

bool Message::clear_ecs() {
  if (!opt) return false;
  return opt->remove_option(EdnsOptionCode::ECS) > 0;
}

std::optional<IpAddress> Message::first_address() const {
  for (const auto& rr : answers) {
    if (const auto* a = std::get_if<ARdata>(&rr.rdata)) return a->address;
    if (const auto* aaaa = std::get_if<AaaaRdata>(&rr.rdata)) return aaaa->address;
  }
  return std::nullopt;
}

std::vector<IpAddress> Message::all_addresses() const {
  std::vector<IpAddress> out;
  for (const auto& rr : answers) {
    if (const auto* a = std::get_if<ARdata>(&rr.rdata)) out.push_back(a->address);
    if (const auto* aaaa = std::get_if<AaaaRdata>(&rr.rdata)) out.push_back(aaaa->address);
  }
  return out;
}

std::optional<std::uint32_t> Message::min_answer_ttl() const {
  std::optional<std::uint32_t> min;
  for (const auto& rr : answers) {
    if (!min || rr.ttl < *min) min = rr.ttl;
  }
  return min;
}

std::vector<std::uint8_t> Message::serialize(bool compress) const {
  WireWriter w;
  serialize_into(w, compress);
  return std::move(w).take();
}

void Message::serialize_into(WireWriter& w, bool compress) const {
  Name::CompressionTable table;
  serialize_body(w, compress ? &table : nullptr);
}

void Message::serialize_into(WireWriter& w, Name::CompressionTable& table) const {
  table.clear();
  serialize_body(w, &table);
}

void Message::serialize_body(WireWriter& w, Name::CompressionTable* tp) const {
  ECSDNS_DCHECK(w.size() == 0);
  w.u16(header.id);
  std::uint16_t flags = 0;
  if (header.qr) flags |= kQrMask;
  flags |= static_cast<std::uint16_t>(static_cast<std::uint16_t>(header.opcode) << 11);
  if (header.aa) flags |= kAaMask;
  if (header.tc) flags |= kTcMask;
  if (header.rd) flags |= kRdMask;
  if (header.ra) flags |= kRaMask;
  if (header.ad) flags |= kAdMask;
  if (header.cd) flags |= kCdMask;
  flags |= static_cast<std::uint16_t>(static_cast<std::uint16_t>(header.rcode) & 0x0f);
  w.u16(flags);
  // Section counts are 16-bit on the wire; a message that outgrew them is a
  // construction bug, not a parse problem.
  ECSDNS_DCHECK(questions.size() <= 0xffff);
  ECSDNS_DCHECK(answers.size() <= 0xffff);
  ECSDNS_DCHECK(authorities.size() <= 0xffff);
  ECSDNS_DCHECK(additional.size() + (opt ? 1 : 0) <= 0xffff);
  w.u16(static_cast<std::uint16_t>(questions.size()));
  w.u16(static_cast<std::uint16_t>(answers.size()));
  w.u16(static_cast<std::uint16_t>(authorities.size()));
  w.u16(static_cast<std::uint16_t>(additional.size() + (opt ? 1 : 0)));
  for (const auto& q : questions) q.serialize(w, tp);
  for (const auto& rr : answers) rr.serialize(w, tp);
  for (const auto& rr : authorities) rr.serialize(w, tp);
  for (const auto& rr : additional) rr.serialize(w, tp);
  if (opt) {
    // Extended rcode bits live in the OPT TTL field (RFC 6891 §6.1.3);
    // passing them as an override avoids copying the OptRecord per packet.
    opt->serialize(w, static_cast<std::uint8_t>(
                          static_cast<std::uint16_t>(header.rcode) >> 4));
  }
}

Message Message::parse(std::span<const std::uint8_t> wire) {
  Message m;
  parse_into(wire, m);
  return m;
}

void Message::parse_into(std::span<const std::uint8_t> wire, Message& m) {
  WireReader r(wire);
  m.header = Header{};
  m.header.id = r.u16();
  const std::uint16_t flags = r.u16();
  m.header.qr = (flags & kQrMask) != 0;
  m.header.opcode = static_cast<Opcode>((flags >> 11) & 0x0f);
  m.header.aa = (flags & kAaMask) != 0;
  m.header.tc = (flags & kTcMask) != 0;
  m.header.rd = (flags & kRdMask) != 0;
  m.header.ra = (flags & kRaMask) != 0;
  m.header.ad = (flags & kAdMask) != 0;
  m.header.cd = (flags & kCdMask) != 0;
  std::uint16_t rcode_bits = flags & 0x0f;

  const std::uint16_t qdcount = r.u16();
  const std::uint16_t ancount = r.u16();
  const std::uint16_t nscount = r.u16();
  const std::uint16_t arcount = r.u16();

  m.questions.clear();
  m.answers.clear();
  m.authorities.clear();
  m.additional.clear();
  // Reserve using a per-entry wire minimum (question 5 octets, record 11)
  // so declared-but-truncated counts cannot drive huge allocations while
  // well-formed messages get at most one vector growth per section — none
  // once a retained message has seen the shape before.
  // ecstidy:allow(noalloc): first-use growth, bounded by the wire size;
  // a retained message re-parsing same-shaped packets never grows.
  m.questions.reserve(std::min<std::size_t>(qdcount, r.remaining() / 5));
  // ecstidy:allow(noalloc): first-use growth, bounded by the wire size.
  m.answers.reserve(std::min<std::size_t>(ancount, r.remaining() / 11));
  // ecstidy:allow(noalloc): first-use growth, bounded by the wire size.
  m.authorities.reserve(std::min<std::size_t>(nscount, r.remaining() / 11));
  // ecstidy:allow(noalloc): first-use growth, bounded by the wire size.
  m.additional.reserve(std::min<std::size_t>(arcount, r.remaining() / 11));

  // ecstidy resolves the qualified element parsers below by name, to this
  // class's MAY_BLOCK parse(); each allow covers that and the append.
  for (std::uint16_t i = 0; i < qdcount; ++i) {
    // ecstidy:allow(noalloc): appends fit the capacity reserved above, and
    // Question::parse allocates only for a name over 46 octets.
    m.questions.push_back(Question::parse(r));
  }
  for (std::uint16_t i = 0; i < ancount; ++i) {
    // ecstidy:allow(noalloc): appends fit the capacity reserved above;
    // ResourceRecord::parse allocates only for long names or TXT/raw rdata.
    m.answers.push_back(ResourceRecord::parse(r));
  }
  for (std::uint16_t i = 0; i < nscount; ++i) {
    // ecstidy:allow(noalloc): appends fit the capacity reserved above;
    // ResourceRecord::parse allocates only for long names or TXT/raw rdata.
    m.authorities.push_back(ResourceRecord::parse(r));
  }
  bool seen_opt = false;
  for (std::uint16_t i = 0; i < arcount; ++i) {
    // OPT must be detected before committing to ResourceRecord::parse so we
    // can decode its overloaded fields.
    const std::size_t mark = r.offset();
    // ecstidy:allow(noalloc): Name::parse, resolved by name to parse();
    // an owner name of up to 46 octets decodes into inline storage.
    const Name owner = Name::parse(r);
    const RRType type = static_cast<RRType>(r.u16());
    if (type == RRType::OPT) {
      if (!owner.is_root()) throw WireFormatError("OPT record with non-root owner");
      if (seen_opt) throw WireFormatError("duplicate OPT record");
      seen_opt = true;
      // ecstidy:allow(noalloc): engages the retained record on first use;
      // the optional holds it in place, so this never allocates again.
      if (!m.opt) m.opt.emplace();
      OptRecord::parse_body_into(r, *m.opt);
      rcode_bits = static_cast<std::uint16_t>(
          rcode_bits | (static_cast<std::uint16_t>(m.opt->extended_rcode) << 4));
    } else {
      r.seek(mark);
      // ecstidy:allow(noalloc): appends fit the capacity reserved above;
      // ResourceRecord::parse allocates only for long names or TXT/raw rdata.
      m.additional.push_back(ResourceRecord::parse(r));
    }
  }
  if (!seen_opt) m.opt.reset();
  m.header.rcode = static_cast<RCode>(rcode_bits);
  if (!r.at_end()) throw WireFormatError("trailing bytes after message");
}

std::string Message::to_string() const {
  std::string out;
  out += ";; " + dnscore::to_string(header.opcode) + " " +
         dnscore::to_string(header.rcode) + " id " + std::to_string(header.id);
  out += header.qr ? " (response)" : " (query)";
  if (header.aa) out += " aa";
  if (header.tc) out += " tc";
  if (header.rd) out += " rd";
  if (header.ra) out += " ra";
  out += "\n";
  if (opt) {
    out += ";; EDNS0 udp=" + std::to_string(opt->udp_payload_size);
    if (auto e = ecs()) out += " " + e->to_string();
    out += "\n";
  }
  out += ";; QUESTION\n";
  for (const auto& q : questions) out += ";  " + q.to_string() + "\n";
  if (!answers.empty()) {
    out += ";; ANSWER\n";
    for (const auto& rr : answers) out += rr.to_string() + "\n";
  }
  if (!authorities.empty()) {
    out += ";; AUTHORITY\n";
    for (const auto& rr : authorities) out += rr.to_string() + "\n";
  }
  if (!additional.empty()) {
    out += ";; ADDITIONAL\n";
    for (const auto& rr : additional) out += rr.to_string() + "\n";
  }
  return out;
}

}  // namespace ecsdns::dnscore
