// EDNS0 OPT record and RFC 7871 ECS option tests, including the validation
// paths the measurement code depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "dnscore/ecs.h"
#include "dnscore/edns.h"
#include "netsim/rng.h"

namespace ecsdns::dnscore {
namespace {

TEST(OptRecord, SerializeParseRoundTrip) {
  OptRecord opt;
  opt.udp_payload_size = 1232;
  opt.dnssec_ok = true;
  opt.add_option(EdnsOption{8, {0, 1, 24, 0, 1, 2, 3}});
  opt.add_option(EdnsOption{10, {0xde, 0xad}});

  WireWriter w;
  opt.serialize(w);
  WireReader r({w.data().data(), w.data().size()});
  EXPECT_EQ(r.u8(), 0);  // root name
  EXPECT_EQ(r.u16(), static_cast<std::uint16_t>(RRType::OPT));
  const OptRecord back = OptRecord::parse_body(r);
  EXPECT_EQ(back.udp_payload_size, 1232);
  EXPECT_TRUE(back.dnssec_ok);
  ASSERT_EQ(back.options().size(), 2u);
  EXPECT_EQ(back.options()[0].code, 8);
  EXPECT_EQ(back.options()[1].payload.size(), 2u);
}

TEST(OptRecord, FindAndRemoveOption) {
  OptRecord opt;
  opt.add_option(EdnsOption{8, {}});
  opt.add_option(EdnsOption{10, {}});
  EXPECT_TRUE(opt.find_option(EdnsOptionCode::ECS).has_value());
  EXPECT_EQ(opt.remove_option(EdnsOptionCode::ECS), 1u);
  EXPECT_FALSE(opt.find_option(EdnsOptionCode::ECS).has_value());
  EXPECT_EQ(opt.remove_option(EdnsOptionCode::ECS), 0u);
}

TEST(OptRecord, RejectsTruncatedOption) {
  WireWriter w;
  w.u16(4096);
  w.u32(0);
  w.u16(3);  // rdlength too small for an option header
  w.u8(0);
  w.u8(8);
  w.u8(0);
  WireReader r({w.data().data(), w.data().size()});
  EXPECT_THROW(OptRecord::parse_body(r), WireFormatError);
}

TEST(EcsOption, ForQueryBuildsCompliantOption) {
  const auto ecs = EcsOption::for_query(Prefix::parse("1.2.3.0/24"));
  EXPECT_EQ(ecs.family(), 1);
  EXPECT_EQ(ecs.source_prefix_length(), 24);
  EXPECT_EQ(ecs.scope_prefix_length(), 0);
  EXPECT_EQ(ecs.address_bytes().size(), 3u);  // ceil(24/8)
  EXPECT_TRUE(ecs.is_valid(/*in_query=*/true));
  EXPECT_EQ(ecs.source_prefix(), Prefix::parse("1.2.3.0/24"));
}

TEST(EcsOption, NonOctetLengths) {
  // /21: 3 address octets, low 3 bits of the last octet zero.
  const auto ecs = EcsOption::for_query(Prefix{IpAddress::parse("10.20.31.7"), 21});
  EXPECT_EQ(ecs.address_bytes().size(), 3u);
  EXPECT_TRUE(ecs.is_valid(true));
  EXPECT_EQ(ecs.source_prefix()->to_string(), "10.20.24.0/21");
}

TEST(EcsOption, V6Option) {
  const auto ecs = EcsOption::for_query(Prefix::parse("2001:db8::/56"));
  EXPECT_EQ(ecs.family(), 2);
  EXPECT_EQ(ecs.address_bytes().size(), 7u);
  EXPECT_TRUE(ecs.is_valid(true));
}

TEST(EcsOption, AnonymousOptOut) {
  const auto ecs = EcsOption::anonymous();
  EXPECT_EQ(ecs.source_prefix_length(), 0);
  EXPECT_TRUE(ecs.address_bytes().empty());
  EXPECT_TRUE(ecs.is_valid(true));
  EXPECT_EQ(ecs.source_prefix()->length(), 0);
}

TEST(EcsOption, EdnsRoundTrip) {
  const auto in = EcsOption::for_response(Prefix::parse("100.64.7.0/24"), 16);
  const auto out = EcsOption::from_edns(in.to_edns());
  EXPECT_EQ(out, in);
  EXPECT_EQ(out.scope_prefix_length(), 16);
  EXPECT_EQ(out.scope_prefix()->to_string(), "100.64.0.0/16");
}

TEST(EcsOption, FromEdnsRejectsWrongCode) {
  EXPECT_THROW(EcsOption::from_edns(EdnsOption{10, {}}), WireFormatError);
}

TEST(EcsOption, FromEdnsRejectsTruncatedHeader) {
  EXPECT_THROW(EcsOption::from_edns(EdnsOption{8, {0, 1, 24}}), WireFormatError);
}

TEST(EcsOption, ValidateFlagsScopeInQuery) {
  auto ecs = EcsOption::for_query(Prefix::parse("1.2.3.0/24"));
  ecs.set_scope_prefix_length(24);
  const auto issues = ecs.validate(true);
  EXPECT_NE(std::find(issues.begin(), issues.end(), EcsIssue::kScopeNonZeroInQuery),
            issues.end());
  EXPECT_TRUE(ecs.validate(false).empty());  // fine in a response
}

TEST(EcsOption, ValidateFlagsAddressLengthMismatch) {
  auto ecs = EcsOption::for_query(Prefix::parse("1.2.3.0/24"));
  ecs.set_address_bytes({1, 2, 3, 4});  // one byte too many for /24
  const auto issues = ecs.validate(true);
  EXPECT_NE(std::find(issues.begin(), issues.end(),
                      EcsIssue::kAddressLengthMismatch),
            issues.end());
  EXPECT_FALSE(ecs.source_prefix().has_value());
}

// 32 octets is the longest ADDRESS any SOURCE PREFIX-LENGTH calls for: a
// 32-octet ADDRESS under a /24 still decodes, re-encodes exactly and is
// flagged as a length mismatch; one octet more is unparseable.
TEST(EcsOption, AddressBeyond32OctetsIsUnparseable) {
  EdnsOption raw{8, {0, 1, 24, 0}};
  raw.payload.resize(4 + EcsOption::kMaxAddressOctets, 0x5a);
  const auto ecs = EcsOption::from_edns(raw);
  EXPECT_EQ(ecs.address_bytes().size(), 32u);
  EXPECT_EQ(ecs.to_edns(), raw);
  const auto issues = ecs.validate(/*in_query=*/true);
  EXPECT_NE(std::find(issues.begin(), issues.end(),
                      EcsIssue::kAddressLengthMismatch),
            issues.end());
  EXPECT_TRUE(ecs.is_malformed(/*in_query=*/true));
  raw.payload.push_back(0x5a);
  EXPECT_THROW(EcsOption::from_edns(raw), WireFormatError);
  EcsOption built;
  EXPECT_THROW(built.set_address_bytes(std::vector<std::uint8_t>(33)), std::length_error);
}

TEST(EcsOption, ValidateFlagsTrailingBits) {
  auto ecs = EcsOption::for_query(Prefix::parse("1.2.3.0/24"));
  ecs.set_source_prefix_length(23);  // now bit 24 of "3" is past the prefix
  const auto issues = ecs.validate(true);
  EXPECT_NE(std::find(issues.begin(), issues.end(), EcsIssue::kNonZeroTrailingBits),
            issues.end());
}

TEST(EcsOption, ValidateFlagsUnknownFamilyAndLongSource) {
  EcsOption ecs;
  ecs.set_family(9);
  auto issues = ecs.validate(true);
  EXPECT_NE(std::find(issues.begin(), issues.end(), EcsIssue::kUnknownFamily),
            issues.end());

  auto ecs2 = EcsOption::for_query(Prefix::parse("1.2.3.4/32"));
  ecs2.set_source_prefix_length(40);
  issues = ecs2.validate(true);
  EXPECT_NE(std::find(issues.begin(), issues.end(), EcsIssue::kSourceLengthTooLong),
            issues.end());
}

TEST(EcsOption, ScopeLongerThanSourceToleratedInResponse) {
  // RFC 7871 §7.1.3 allows SCOPE > SOURCE in a response (the answer covers
  // a *wider* network than asked about is the common case, but narrower is
  // legal too); only scope beyond the family's bit length is malformed.
  auto ecs = EcsOption::for_response(Prefix::parse("1.2.3.0/24"), 32);
  EXPECT_TRUE(ecs.validate(false).empty());
  ecs.set_scope_prefix_length(40);  // past the v4 family limit
  const auto issues = ecs.validate(false);
  EXPECT_NE(std::find(issues.begin(), issues.end(), EcsIssue::kScopeLengthTooLong),
            issues.end());
}

TEST(EcsOption, FromEdnsRejectsAllSubHeaderPayloads) {
  // The fixed header is 4 octets (family, source, scope); anything shorter
  // must throw, not read past the payload.
  for (std::size_t len = 0; len < 4; ++len) {
    EdnsOption opt{8, std::vector<std::uint8_t>(len, 0)};
    EXPECT_THROW(EcsOption::from_edns(opt), WireFormatError) << "len=" << len;
  }
  // Exactly 4 octets is a legal source-0 option.
  EXPECT_NO_THROW(EcsOption::from_edns(EdnsOption{8, {0, 1, 0, 0}}));
}

TEST(EcsOption, NonOctetSourceMasksOnlyTrailingBits) {
  // source 20: the low nibble of the third octet is past the prefix. 0xAB
  // has trailing bits set (0x0B); 0xA0 does not — validate must test the
  // masked bits exactly, not the whole final octet.
  EcsOption dirty;
  dirty.set_family(1);
  dirty.set_source_prefix_length(20);
  dirty.set_address_bytes({10, 1, 0xAB});
  const auto issues = dirty.validate(true);
  EXPECT_NE(std::find(issues.begin(), issues.end(), EcsIssue::kNonZeroTrailingBits),
            issues.end());

  EcsOption clean;
  clean.set_family(1);
  clean.set_source_prefix_length(20);
  clean.set_address_bytes({10, 1, 0xA0});
  EXPECT_TRUE(clean.validate(true).empty());
}

// Fuzz: arbitrary option payloads either decode (possibly into an invalid
// option that validate() flags) or throw WireFormatError — never crash,
// and never produce an option whose re-encoding diverges from its fields.
class EcsPayloadFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EcsPayloadFuzz, DecodeValidateReencodeNeverCrash) {
  ecsdns::netsim::Rng rng(GetParam());
  for (int iter = 0; iter < 3000; ++iter) {
    EdnsOption raw;
    raw.code = static_cast<std::uint16_t>(EdnsOptionCode::ECS);
    raw.payload.resize(rng.uniform(24));
    for (auto& b : raw.payload) b = static_cast<std::uint8_t>(rng.uniform(256));
    try {
      const EcsOption ecs = EcsOption::from_edns(raw);
      (void)ecs.validate(true);
      (void)ecs.validate(false);
      (void)ecs.source_prefix();
      (void)ecs.scope_prefix();
      (void)ecs.to_string();
      // Re-encoding reproduces the exact payload we decoded.
      EXPECT_EQ(ecs.to_edns().payload, raw.payload);
    } catch (const WireFormatError&) {
      // Structurally unparseable (shorter than the fixed header): fine.
      EXPECT_LT(raw.payload.size(), 4u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcsPayloadFuzz, ::testing::Values(3, 11, 29));

// Property sweep: every v4 source length builds a valid option that
// round-trips, with the right address field size.
class EcsLengths : public ::testing::TestWithParam<int> {};

TEST_P(EcsLengths, RoundTripsAndValidates) {
  const int len = GetParam();
  const auto ecs =
      EcsOption::for_query(Prefix{IpAddress::parse("203.119.87.213"), len});
  EXPECT_TRUE(ecs.is_valid(true)) << len;
  EXPECT_EQ(ecs.address_bytes().size(), static_cast<std::size_t>((len + 7) / 8));
  const auto back = EcsOption::from_edns(ecs.to_edns());
  EXPECT_EQ(back, ecs);
  EXPECT_EQ(back.source_prefix()->length(), len);
}

INSTANTIATE_TEST_SUITE_P(AllV4Lengths, EcsLengths, ::testing::Range(0, 33));

}  // namespace
}  // namespace ecsdns::dnscore
