// Question and resource-record structures (RFC 1035 §4.1.2, §4.1.3).
#pragma once

#include <cstdint>
#include <string>

#include "dnscore/name.h"
#include "dnscore/rdata.h"
#include "dnscore/types.h"

namespace ecsdns::dnscore {

struct Question {
  Name qname;
  RRType qtype = RRType::A;
  RRClass qclass = RRClass::IN;

  bool operator==(const Question&) const = default;

  void serialize(WireWriter& writer,
                 Name::CompressionTable* table = nullptr) const;
  std::string to_string() const;
};

struct ResourceRecord {
  Name name;
  RRType type = RRType::A;
  RRClass rrclass = RRClass::IN;
  std::uint32_t ttl = 0;
  Rdata rdata;

  bool operator==(const ResourceRecord&) const = default;

  static ResourceRecord make_a(const Name& name, std::uint32_t ttl,
                               const IpAddress& address);
  static ResourceRecord make_aaaa(const Name& name, std::uint32_t ttl,
                                  const IpAddress& address);
  static ResourceRecord make_cname(const Name& name, std::uint32_t ttl,
                                   const Name& target);
  static ResourceRecord make_ns(const Name& name, std::uint32_t ttl,
                                const Name& nameserver);
  static ResourceRecord make_txt(const Name& name, std::uint32_t ttl,
                                 const std::string& text);
  static ResourceRecord make_soa(const Name& name, std::uint32_t ttl,
                                 const Name& mname, const Name& rname,
                                 std::uint32_t serial, std::uint32_t minimum);

  // Serializes the record; when `table` is non-null the owner name is
  // compressed against it (rdata names stay uncompressed, which is always
  // legal).
  void serialize(WireWriter& writer,
                 Name::CompressionTable* table = nullptr) const;
  static ResourceRecord parse(WireReader& reader);
  // Zone-file-style line: "name ttl IN TYPE rdata".
  std::string to_string() const;
};

}  // namespace ecsdns::dnscore
