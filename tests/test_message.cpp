// Full-message wire tests: header flags, section handling, OPT lifting,
// extended rcode, ECS helpers, and robustness against garbage input.
#include <gtest/gtest.h>

#include "dnscore/message.h"
#include "netsim/rng.h"

namespace ecsdns::dnscore {
namespace {

TEST(Message, QueryRoundTrip) {
  Message q = Message::make_query(0x1234, Name::from_string("www.example.com"),
                                  RRType::A);
  const auto wire = q.serialize();
  const Message back = Message::parse({wire.data(), wire.size()});
  EXPECT_EQ(back.header.id, 0x1234);
  EXPECT_FALSE(back.header.qr);
  EXPECT_TRUE(back.header.rd);
  ASSERT_EQ(back.questions.size(), 1u);
  EXPECT_EQ(back.question().qname, Name::from_string("www.example.com"));
  EXPECT_EQ(back.question().qtype, RRType::A);
}

TEST(Message, ResponseWithAllSections) {
  Message q = Message::make_query(7, Name::from_string("a.example.com"), RRType::A);
  Message r = Message::make_response(q);
  r.header.aa = true;
  r.answers.push_back(ResourceRecord::make_a(Name::from_string("a.example.com"), 60,
                                             IpAddress::parse("1.1.1.1")));
  r.authorities.push_back(ResourceRecord::make_ns(
      Name::from_string("example.com"), 3600, Name::from_string("ns1.example.com")));
  r.additional.push_back(ResourceRecord::make_a(Name::from_string("ns1.example.com"),
                                                3600, IpAddress::parse("2.2.2.2")));
  const auto wire = r.serialize();
  const Message back = Message::parse({wire.data(), wire.size()});
  EXPECT_TRUE(back.header.qr);
  EXPECT_TRUE(back.header.aa);
  EXPECT_EQ(back.answers.size(), 1u);
  EXPECT_EQ(back.authorities.size(), 1u);
  EXPECT_EQ(back.additional.size(), 1u);
  EXPECT_EQ(back.first_address(), IpAddress::parse("1.1.1.1"));
  EXPECT_EQ(back.min_answer_ttl(), 60u);
}

TEST(Message, OptIsLiftedOutOfAdditional) {
  Message q = Message::make_query(9, Name::from_string("x.org"), RRType::AAAA);
  q.opt = OptRecord{};
  q.opt->udp_payload_size = 1400;
  const auto wire = q.serialize();
  const Message back = Message::parse({wire.data(), wire.size()});
  ASSERT_TRUE(back.opt.has_value());
  EXPECT_EQ(back.opt->udp_payload_size, 1400);
  EXPECT_TRUE(back.additional.empty());
}

TEST(Message, DuplicateOptRejected) {
  Message q = Message::make_query(9, Name::from_string("x.org"), RRType::A);
  q.opt = OptRecord{};
  auto wire = q.serialize();
  // Append a second OPT record manually and bump ARCOUNT.
  WireWriter extra;
  OptRecord{}.serialize(extra);
  wire.insert(wire.end(), extra.data().begin(), extra.data().end());
  wire[11] = 2;  // ARCOUNT low byte
  EXPECT_THROW(Message::parse({wire.data(), wire.size()}), WireFormatError);
}

TEST(Message, ExtendedRcodeRoundTrip) {
  Message q = Message::make_query(1, Name::from_string("x.org"), RRType::A);
  q.opt = OptRecord{};
  Message r = Message::make_response(q);
  ASSERT_TRUE(r.opt.has_value());
  r.header.rcode = RCode::BADVERS;  // 16: needs the OPT extended bits
  const auto wire = r.serialize();
  const Message back = Message::parse({wire.data(), wire.size()});
  EXPECT_EQ(back.header.rcode, RCode::BADVERS);
}

TEST(Message, EcsHelpers) {
  Message q = Message::make_query(2, Name::from_string("x.org"), RRType::A);
  EXPECT_FALSE(q.has_ecs());
  q.set_ecs(EcsOption::for_query(Prefix::parse("9.9.9.0/24")));
  ASSERT_TRUE(q.has_ecs());
  EXPECT_EQ(q.ecs()->source_prefix(), Prefix::parse("9.9.9.0/24"));
  // Replacing installs exactly one option.
  q.set_ecs(EcsOption::for_query(Prefix::parse("8.8.8.0/24")));
  EXPECT_EQ(q.opt->options().size(), 1u);
  EXPECT_TRUE(q.clear_ecs());
  EXPECT_FALSE(q.has_ecs());
  EXPECT_TRUE(q.opt.has_value());  // EDNS presence survives
  EXPECT_FALSE(q.clear_ecs());
}

TEST(Message, HasEcsIsAPresenceProbe) {
  Message q = Message::make_query(2, Name::from_string("x.org"), RRType::A);
  q.opt = OptRecord{};
  // A structurally short ECS payload: present on the wire, undecodable.
  q.opt->add_option(EdnsOption{
      static_cast<std::uint16_t>(EdnsOptionCode::ECS), {0x00, 0x01}});
  EXPECT_TRUE(q.has_ecs());              // probe sees the TLV
  EXPECT_THROW(q.ecs(), WireFormatError);  // decode rejects it
  // A non-ECS option does not trip the probe.
  Message other = Message::make_query(3, Name::from_string("x.org"), RRType::A);
  other.opt = OptRecord{};
  other.opt->add_option(EdnsOption{10 /* COOKIE */, {1, 2, 3, 4}});
  EXPECT_FALSE(other.has_ecs());
}

// set_ecs over an option list of ECS, COOKIE, ECS: the first ECS option is
// rewritten where it stands (here growing from a v4 to a v6 payload),
// COOKIE stays second, and the later duplicate is dropped.
TEST(Message, SetEcsRewritesFirstEcsInPlaceAndDropsDuplicates) {
  Message q = Message::make_query(0x0a0b, Name::from_string("x.org"), RRType::A);
  q.opt = OptRecord{};
  q.opt->add_option(EcsOption::for_query(Prefix::parse("192.0.2.0/24")).to_edns());
  q.opt->add_option(EdnsOption{10 /* COOKIE */, {1, 2, 3, 4, 5, 6, 7, 8}});
  q.opt->add_option(EcsOption::for_query(Prefix::parse("198.51.100.0/24")).to_edns());
  q.set_ecs(EcsOption::for_query(Prefix::parse("2001:db8:7::/48")));
  const std::vector<std::uint8_t> want = {
      0x0a, 0x0b, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
      0x01, 0x78, 0x03, 0x6f, 0x72, 0x67, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00,
      0x00, 0x29, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x1a, 0x00, 0x08,
      0x00, 0x0a, 0x00, 0x02, 0x30, 0x00, 0x20, 0x01, 0x0d, 0xb8, 0x00, 0x07,
      0x00, 0x0a, 0x00, 0x08, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08};
  EXPECT_EQ(q.serialize(/*compress=*/false), want);
}

TEST(Message, EcsSurvivesWire) {
  Message q = Message::make_query(3, Name::from_string("x.org"), RRType::A);
  q.set_ecs(EcsOption::for_query(Prefix::parse("100.64.5.0/24")));
  const auto wire = q.serialize();
  const Message back = Message::parse({wire.data(), wire.size()});
  ASSERT_TRUE(back.has_ecs());
  EXPECT_EQ(back.ecs()->source_prefix(), Prefix::parse("100.64.5.0/24"));
}

TEST(Message, TrailingGarbageRejected) {
  Message q = Message::make_query(4, Name::from_string("x.org"), RRType::A);
  auto wire = q.serialize();
  wire.push_back(0x00);
  EXPECT_THROW(Message::parse({wire.data(), wire.size()}), WireFormatError);
}

TEST(Message, TruncatedHeaderRejected) {
  const std::uint8_t tiny[] = {0, 1, 2};
  EXPECT_THROW(Message::parse({tiny, 3}), WireFormatError);
}

TEST(Message, QuestionThrowsWhenEmpty) {
  Message m;
  EXPECT_THROW(m.question(), std::logic_error);
}

TEST(Message, AllAddressesCollectsBothFamilies) {
  Message m;
  m.answers.push_back(ResourceRecord::make_a(Name::from_string("x.org"), 60,
                                             IpAddress::parse("1.2.3.4")));
  m.answers.push_back(ResourceRecord::make_aaaa(Name::from_string("x.org"), 60,
                                                IpAddress::parse("2001:db8::1")));
  m.answers.push_back(ResourceRecord::make_cname(Name::from_string("x.org"), 60,
                                                 Name::from_string("y.org")));
  EXPECT_EQ(m.all_addresses().size(), 2u);
  EXPECT_EQ(m.first_address(), IpAddress::parse("1.2.3.4"));
}

TEST(Message, ToStringMentionsSections) {
  Message q = Message::make_query(5, Name::from_string("www.example.com"), RRType::A);
  q.set_ecs(EcsOption::for_query(Prefix::parse("1.2.3.0/24")));
  const std::string s = q.to_string();
  EXPECT_NE(s.find("QUESTION"), std::string::npos);
  EXPECT_NE(s.find("www.example.com"), std::string::npos);
  EXPECT_NE(s.find("ECS 1.2.3.0/24"), std::string::npos);
}

// Robustness: random byte blobs never crash the parser — they either parse
// (unlikely) or throw WireFormatError.
class GarbageParse : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GarbageParse, NeverCrashes) {
  netsim::Rng rng(GetParam());
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> blob(rng.uniform(128));
    for (auto& b : blob) b = static_cast<std::uint8_t>(rng.uniform(256));
    try {
      (void)Message::parse({blob.data(), blob.size()});
    } catch (const WireFormatError&) {
      // expected for almost all inputs
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GarbageParse, ::testing::Values(1, 7, 31, 127));

// Property: mutating single bytes of a valid message never crashes the
// parser (it may still parse successfully, which is fine).
TEST(GarbageParseMutation, SingleByteFlipsAreSafe) {
  Message q = Message::make_query(6, Name::from_string("www.example.com"), RRType::A);
  q.set_ecs(EcsOption::for_query(Prefix::parse("10.0.0.0/8")));
  const auto wire = q.serialize();
  for (std::size_t i = 0; i < wire.size(); ++i) {
    for (const std::uint8_t v : {std::uint8_t{0x00}, std::uint8_t{0xff},
                                 std::uint8_t{0xc0}}) {
      auto mutated = wire;
      mutated[i] = v;
      try {
        (void)Message::parse({mutated.data(), mutated.size()});
      } catch (const WireFormatError&) {
      }
    }
  }
}

}  // namespace
}  // namespace ecsdns::dnscore
