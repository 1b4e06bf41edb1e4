// Zone text parser tests.
#include <gtest/gtest.h>

#include "authoritative/zone_text.h"

namespace ecsdns::authoritative {
namespace {

using dnscore::IpAddress;
using dnscore::Name;
using dnscore::RRType;

const Name kOrigin = Name::from_string("example.com");

TEST(ZoneText, ParsesBasicRecords) {
  const auto records = parse_zone_text(kOrigin, R"(
$TTL 600
@        IN SOA ns1 admin 2024010101 7200 3600 1209600 300
@        IN NS  ns1
ns1      IN A   192.0.2.53
www  120 IN A   192.0.2.80
www      IN AAAA 2001:db8::80
alias    IN CNAME www
@        IN MX  10 mail
@        IN TXT "v=spf1 -all"
)");
  ASSERT_EQ(records.size(), 8u);
  EXPECT_EQ(records[0].type, RRType::SOA);
  EXPECT_EQ(records[0].ttl, 600u);
  EXPECT_EQ(std::get<dnscore::SoaRdata>(records[0].rdata).minimum, 300u);
  EXPECT_EQ(records[2].name, Name::from_string("ns1.example.com"));
  EXPECT_EQ(records[3].ttl, 120u);
  EXPECT_EQ(std::get<dnscore::ARdata>(records[3].rdata).address,
            IpAddress::parse("192.0.2.80"));
  EXPECT_EQ(std::get<dnscore::CnameRdata>(records[5].rdata).target,
            Name::from_string("www.example.com"));
  EXPECT_EQ(std::get<dnscore::MxRdata>(records[6].rdata).preference, 10);
  EXPECT_EQ(std::get<dnscore::TxtRdata>(records[7].rdata).strings[0], "v=spf1 -all");
}

TEST(ZoneText, AbsoluteNamesKeepTheirZone) {
  const auto records =
      parse_zone_text(kOrigin, "www IN CNAME edge.cdn.net.\n");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(std::get<dnscore::CnameRdata>(records[0].rdata).target,
            Name::from_string("edge.cdn.net"));
}

TEST(ZoneText, IndentedLineReusesOwner) {
  const auto records = parse_zone_text(kOrigin,
                                       "www IN A 192.0.2.1\n"
                                       "    IN A 192.0.2.2\n");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].name, Name::from_string("www.example.com"));
}

TEST(ZoneText, CommentsAndBlanksIgnored)  {
  const auto records = parse_zone_text(kOrigin, R"(
; a full-line comment

www IN A 192.0.2.1 ; trailing comment
)");
  ASSERT_EQ(records.size(), 1u);
}

TEST(ZoneText, ClassAndTtlOptional) {
  const auto records = parse_zone_text(kOrigin, "www A 192.0.2.1\n", 77);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].ttl, 77u);
}

TEST(ZoneText, AtSignIsOrigin) {
  const auto records = parse_zone_text(kOrigin, "@ IN A 192.0.2.1\n");
  EXPECT_EQ(records[0].name, kOrigin);
}

TEST(ZoneText, ErrorsCarryLineNumbers) {
  try {
    parse_zone_text(kOrigin, "www IN A 192.0.2.1\nbroken IN A\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(ZoneText, RejectsGarbage) {
  EXPECT_THROW(parse_zone_text(kOrigin, "www IN FROB 1.2.3.4\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_zone_text(kOrigin, "$GENERATE 1-10 x A 1.2.3.4\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_zone_text(kOrigin, "www IN TXT \"unterminated\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_zone_text(kOrigin, "$TTL\n"), std::invalid_argument);
  EXPECT_THROW(parse_zone_text(kOrigin, "  IN A 1.2.3.4\n"),
               std::invalid_argument);  // first record without owner
  EXPECT_THROW(parse_zone_text(kOrigin, "www IN MX 10\n"), std::invalid_argument);
}

TEST(ZoneText, LoadsIntoZone) {
  Zone zone(kOrigin);
  load_zone_text(zone, R"(
@   IN SOA ns1 admin 1 7200 3600 1209600 60
www IN A 192.0.2.1
)");
  EXPECT_EQ(zone.record_count(), 2u);
  const auto result = zone.lookup_ref(Name::from_string("www.example.com"), RRType::A);
  EXPECT_EQ(result.kind, ZoneLookup::Kind::kAnswer);
}

TEST(ZoneText, ParsedZoneServesNegativeTtl) {
  // End-to-end: the SOA minimum from the text drives negative caching.
  Zone zone(kOrigin);
  load_zone_text(zone, "@ IN SOA ns1 admin 1 7200 3600 1209600 42\n");
  const auto soa = zone.lookup_ref(kOrigin, RRType::SOA);
  ASSERT_EQ(soa.kind, ZoneLookup::Kind::kAnswer);
  EXPECT_EQ(std::get<dnscore::SoaRdata>(soa.records->front().rdata).minimum, 42u);
}

}  // namespace
}  // namespace ecsdns::authoritative
