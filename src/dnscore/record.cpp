#include "dnscore/record.h"

#include "dnscore/wire_grammar.h"

namespace ecsdns::dnscore {

void Question::serialize(WireWriter& writer, Name::CompressionTable* table) const {
  if (table != nullptr) {
    qname.serialize_compressed(writer, *table);
  } else {
    qname.serialize(writer);
  }
  writer.u16(static_cast<std::uint16_t>(qtype));
  writer.u16(static_cast<std::uint16_t>(qclass));
}

std::string Question::to_string() const {
  return qname.to_string() + " " + dnscore::to_string(qclass) + " " +
         dnscore::to_string(qtype);
}

ResourceRecord ResourceRecord::make_a(const Name& name, std::uint32_t ttl,
                                      const IpAddress& address) {
  if (!address.is_v4()) throw WireFormatError("A record requires an IPv4 address");
  return ResourceRecord{name, RRType::A, RRClass::IN, ttl, ARdata{address}};
}

ResourceRecord ResourceRecord::make_aaaa(const Name& name, std::uint32_t ttl,
                                         const IpAddress& address) {
  if (!address.is_v6()) throw WireFormatError("AAAA record requires an IPv6 address");
  return ResourceRecord{name, RRType::AAAA, RRClass::IN, ttl, AaaaRdata{address}};
}

ResourceRecord ResourceRecord::make_cname(const Name& name, std::uint32_t ttl,
                                          const Name& target) {
  return ResourceRecord{name, RRType::CNAME, RRClass::IN, ttl, CnameRdata{target}};
}

ResourceRecord ResourceRecord::make_ns(const Name& name, std::uint32_t ttl,
                                       const Name& nameserver) {
  return ResourceRecord{name, RRType::NS, RRClass::IN, ttl, NsRdata{nameserver}};
}

ResourceRecord ResourceRecord::make_txt(const Name& name, std::uint32_t ttl,
                                        const std::string& text) {
  return ResourceRecord{name, RRType::TXT, RRClass::IN, ttl, TxtRdata{{text}}};
}

ResourceRecord ResourceRecord::make_soa(const Name& name, std::uint32_t ttl,
                                        const Name& mname, const Name& rname,
                                        std::uint32_t serial, std::uint32_t minimum) {
  return ResourceRecord{name, RRType::SOA, RRClass::IN, ttl,
                        SoaRdata{mname, rname, serial, 7200, 3600, 1209600, minimum}};
}

void ResourceRecord::serialize(WireWriter& writer,
                               Name::CompressionTable* table) const {
  if (table != nullptr) {
    name.serialize_compressed(writer, *table);
  } else {
    name.serialize(writer);
  }
  writer.u16(static_cast<std::uint16_t>(type));
  writer.u16(static_cast<std::uint16_t>(rrclass));
  writer.u32(ttl);
  const std::size_t rdlen_at = writer.reserve_u16();
  const std::size_t start = writer.size();
  serialize_rdata(rdata, writer);
  writer.patch_u16(rdlen_at, static_cast<std::uint16_t>(writer.size() - start));
}

ResourceRecord ResourceRecord::parse(WireReader& reader) {
  return grammar::walk_record(reader, grammar::RecordBuilder{});
}

std::string ResourceRecord::to_string() const {
  return name.to_string() + " " + std::to_string(ttl) + " " +
         dnscore::to_string(rrclass) + " " + dnscore::to_string(type) + " " +
         rdata_to_string(rdata);
}

}  // namespace ecsdns::dnscore
