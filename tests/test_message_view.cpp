// MessageView: lazy zero-copy accessors, rejection parity with
// Message::parse, and the full-corpus differential oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>

#include "dnscore/message_view.h"
#include "fuzz/oracles.h"

namespace ecsdns::dnscore {
namespace {

std::vector<std::uint8_t> wire_of(const Message& m, bool compress = true) {
  return m.serialize(compress);
}

TEST(MessageView, HeaderAndQuestionOfQuery) {
  Message q = Message::make_query(0xbeef, Name::from_string("www.example.com"),
                                  RRType::AAAA);
  const auto wire = wire_of(q);
  const MessageView view({wire.data(), wire.size()});
  EXPECT_EQ(view.id(), 0xbeef);
  EXPECT_FALSE(view.qr());
  EXPECT_TRUE(view.is_query());
  EXPECT_TRUE(view.rd());
  EXPECT_EQ(view.opcode(), Opcode::QUERY);
  EXPECT_EQ(view.rcode(), RCode::NOERROR);
  EXPECT_EQ(view.question_count(), 1u);
  EXPECT_EQ(view.qname(), Name::from_string("www.example.com"));
  EXPECT_EQ(view.qtype(), RRType::AAAA);
  EXPECT_EQ(view.qclass(), RRClass::IN);
  EXPECT_FALSE(view.has_opt());
  EXPECT_FALSE(view.has_ecs());
  EXPECT_TRUE(view.ecs_payload().empty());
  EXPECT_EQ(view.ecs(), std::nullopt);
}

TEST(MessageView, SectionCountsKeepOptInArcount) {
  Message q = Message::make_query(7, Name::from_string("a.example"), RRType::A);
  Message r = Message::make_response(q);
  r.answers.push_back(ResourceRecord::make_a(Name::from_string("a.example"), 60,
                                             IpAddress::parse("1.2.3.4")));
  r.authorities.push_back(ResourceRecord::make_ns(
      Name::from_string("example"), 300, Name::from_string("ns.example")));
  r.additional.push_back(ResourceRecord::make_a(Name::from_string("ns.example"),
                                                300, IpAddress::parse("5.6.7.8")));
  r.opt = OptRecord{};
  const auto wire = wire_of(r);
  const MessageView view({wire.data(), wire.size()});
  EXPECT_TRUE(view.is_response());
  EXPECT_EQ(view.answer_count(), 1u);
  EXPECT_EQ(view.authority_count(), 1u);
  // Raw ARCOUNT: the real additional record plus the OPT pseudo-RR.
  EXPECT_EQ(view.additional_count(), 2u);
  EXPECT_TRUE(view.has_opt());
}

TEST(MessageView, EdnsFieldsMatchOptRecord) {
  Message q = Message::make_query(3, Name::from_string("x.org"), RRType::A);
  q.opt = OptRecord{};
  q.opt->udp_payload_size = 1232;
  q.opt->dnssec_ok = true;
  const auto wire = wire_of(q);
  const MessageView view({wire.data(), wire.size()});
  ASSERT_TRUE(view.has_opt());
  EXPECT_EQ(view.udp_payload_size(), 1232);
  EXPECT_TRUE(view.dnssec_ok());
  EXPECT_EQ(view.edns_version(), 0);
  EXPECT_EQ(view.extended_rcode(), 0);
}

TEST(MessageView, ExtendedRcodeFoldedIntoRcode) {
  Message q = Message::make_query(1, Name::from_string("x.org"), RRType::A);
  q.opt = OptRecord{};
  Message r = Message::make_response(q);
  r.header.rcode = RCode::BADVERS;  // needs the OPT extended-rcode bits
  const auto wire = wire_of(r);
  const MessageView view({wire.data(), wire.size()});
  EXPECT_EQ(view.rcode(), RCode::BADVERS);
  EXPECT_NE(view.extended_rcode(), 0);
}

TEST(MessageView, EcsDecodedLazily) {
  Message q = Message::make_query(5, Name::from_string("x.org"), RRType::A);
  q.set_ecs(EcsOption::for_query(Prefix::parse("100.64.5.0/24")));
  const auto wire = wire_of(q);
  const MessageView view({wire.data(), wire.size()});
  ASSERT_TRUE(view.has_ecs());
  EXPECT_FALSE(view.ecs_payload().empty());
  const auto ecs = view.ecs();
  ASSERT_TRUE(ecs.has_value());
  EXPECT_EQ(ecs->source_prefix(), Prefix::parse("100.64.5.0/24"));
  EXPECT_EQ(ecs, q.ecs());
}

TEST(MessageView, PresentButShortEcsProbesTrueDecodesThrow) {
  Message q = Message::make_query(6, Name::from_string("x.org"), RRType::A);
  q.opt = OptRecord{};
  // Two bytes cannot hold family + source + scope: presence probe says yes,
  // decode throws — mirroring Message::has_ecs() vs Message::ecs().
  q.opt->add_option(EdnsOption{
      static_cast<std::uint16_t>(EdnsOptionCode::ECS), {0x00, 0x01}});
  const auto wire = wire_of(q);
  const MessageView view({wire.data(), wire.size()});
  EXPECT_TRUE(view.has_ecs());
  EXPECT_EQ(view.ecs_payload().size(), 2u);
  EXPECT_THROW(view.ecs(), WireFormatError);
  const Message full = Message::parse({wire.data(), wire.size()});
  EXPECT_TRUE(full.has_ecs());
  EXPECT_THROW(full.ecs(), WireFormatError);
}

TEST(MessageView, QnameThrowsWithoutQuestion) {
  Message m;  // zero questions is a legal wire message
  const auto wire = wire_of(m);
  const MessageView view({wire.data(), wire.size()});
  EXPECT_EQ(view.question_count(), 0u);
  EXPECT_THROW(view.qname(), std::logic_error);
}

TEST(MessageView, QnameDecodesThroughCompressionPointers) {
  Message q = Message::make_query(8, Name::from_string("deep.www.example.com"),
                                  RRType::A);
  Message r = Message::make_response(q);
  r.answers.push_back(ResourceRecord::make_a(
      Name::from_string("deep.www.example.com"), 60, IpAddress::parse("1.1.1.1")));
  const auto wire = wire_of(r, /*compress=*/true);
  const MessageView view({wire.data(), wire.size()});
  EXPECT_EQ(view.qname(), Name::from_string("deep.www.example.com"));
}

TEST(MessageView, RejectsWhatMessageParseRejects) {
  // Truncated header.
  const std::uint8_t tiny[] = {0, 1, 2};
  EXPECT_THROW(MessageView({tiny, 3}), WireFormatError);
  // Trailing garbage.
  Message q = Message::make_query(4, Name::from_string("x.org"), RRType::A);
  auto wire = wire_of(q);
  wire.push_back(0x00);
  EXPECT_THROW(MessageView({wire.data(), wire.size()}), WireFormatError);
  // Duplicate OPT.
  Message o = Message::make_query(9, Name::from_string("x.org"), RRType::A);
  o.opt = OptRecord{};
  auto dup = wire_of(o);
  WireWriter extra;
  OptRecord{}.serialize(extra);
  dup.insert(dup.end(), extra.data().begin(), extra.data().end());
  dup[11] = 2;  // ARCOUNT low byte
  EXPECT_THROW(MessageView({dup.data(), dup.size()}), WireFormatError);
}

// The contract the whole zero-copy path rests on: MessageView and
// Message::parse accept/reject every checked-in corpus input identically
// and agree on all shared fields. check_message_view aborts on divergence.
TEST(MessageViewCorpus, DifferentialOracleOnMessageCorpus) {
  const std::filesystem::path dir =
      std::filesystem::path(ECSDNS_CORPUS_DIR) / "message";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t ran = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    ASSERT_TRUE(in) << entry.path();
    const std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
    SCOPED_TRACE(entry.path().string());
    fuzz::check_message_view(reinterpret_cast<const std::uint8_t*>(raw.data()),
                             raw.size());
    ++ran;
  }
  EXPECT_GT(ran, 0u) << "empty corpus directory: " << dir;
}

}  // namespace
}  // namespace ecsdns::dnscore
