// Output-side name compression (RFC 1035 §4.1.4): correctness, size wins,
// and round-trip properties against our own decompressor.
#include <gtest/gtest.h>

#include "dnscore/message.h"
#include "netsim/rng.h"

namespace ecsdns::dnscore {
namespace {

TEST(Compression, SecondOccurrenceBecomesPointer) {
  Name::CompressionTable table;
  WireWriter w;
  const Name a = Name::from_string("www.example.com");
  a.serialize_compressed(w, table);
  const std::size_t first_len = w.size();
  EXPECT_EQ(first_len, a.wire_length());
  a.serialize_compressed(w, table);
  // The repeat is a bare 2-byte pointer.
  EXPECT_EQ(w.size(), first_len + 2);
  // And it decodes back to the same name.
  WireReader r({w.data().data(), w.data().size()});
  r.seek(first_len);
  EXPECT_EQ(Name::parse(r), a);
}

TEST(Compression, SharedSuffixReusesTail) {
  // The table indexes into the names' buffers, so they must outlive it.
  const Name a = Name::from_string("a.example.com");
  const Name b = Name::from_string("b.example.com");
  Name::CompressionTable table;
  WireWriter w;
  a.serialize_compressed(w, table);
  const std::size_t len_first = w.size();
  b.serialize_compressed(w, table);
  // "b" label (2 bytes) + pointer (2 bytes) = 4.
  EXPECT_EQ(w.size(), len_first + 4);
  WireReader r({w.data().data(), w.data().size()});
  r.seek(len_first);
  EXPECT_EQ(Name::parse(r), Name::from_string("b.example.com"));
}

TEST(Compression, CaseInsensitiveSuffixMatch) {
  const Name www = Name::from_string("www.EXAMPLE.com");
  const Name api = Name::from_string("api.example.COM");
  Name::CompressionTable table;
  WireWriter w;
  www.serialize_compressed(w, table);
  const std::size_t len_first = w.size();
  api.serialize_compressed(w, table);
  EXPECT_EQ(w.size(), len_first + 4 + 2);  // "api" + pointer
}

TEST(Compression, RootSerializesAsZeroByte) {
  Name::CompressionTable table;
  WireWriter w;
  Name{}.serialize_compressed(w, table);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w.data()[0], 0);
}

TEST(Compression, MessageShrinksAndRoundTrips) {
  Message m = Message::make_query(7, Name::from_string("www.example.com"), RRType::A);
  Message r = Message::make_response(m);
  r.header.aa = true;
  for (int i = 0; i < 6; ++i) {
    r.answers.push_back(ResourceRecord::make_a(
        Name::from_string("www.example.com"), 20,
        IpAddress::v4(95, 0, 0, static_cast<std::uint8_t>(i + 1))));
  }
  const auto compressed = r.serialize(true);
  const auto plain = r.serialize(false);
  EXPECT_LT(compressed.size(), plain.size());
  // Six owner-name repeats at 17 bytes each collapse to 2-byte pointers.
  EXPECT_EQ(plain.size() - compressed.size(), 6 * (17 - 2));
  EXPECT_EQ(Message::parse({compressed.data(), compressed.size()}).serialize(false),
            Message::parse({plain.data(), plain.size()}).serialize(false));
}

bool messages_equal(const Message& a, const Message& b) {
  return a.serialize(false) == b.serialize(false);
}

// Property: compressed messages with many overlapping names always parse
// back to the identical message.
class CompressionRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompressionRoundTrip, RandomMessagesSurvive) {
  netsim::Rng rng(GetParam());
  const std::vector<Name> zones = {Name::from_string("example.com"),
                                   Name::from_string("cdn.example.com"),
                                   Name::from_string("example.net")};
  for (int iter = 0; iter < 100; ++iter) {
    Message m = Message::make_query(
        static_cast<std::uint16_t>(rng.uniform(65536)),
        rng.pick(zones).prepend("h" + std::to_string(rng.uniform(4))), RRType::A);
    Message r = Message::make_response(m);
    const int answers = 1 + static_cast<int>(rng.uniform(5));
    for (int i = 0; i < answers; ++i) {
      const Name owner =
          rng.pick(zones).prepend("h" + std::to_string(rng.uniform(4)));
      if (rng.chance(0.3)) {
        r.answers.push_back(ResourceRecord::make_cname(
            owner, 60, rng.pick(zones).prepend("target")));
      } else {
        r.answers.push_back(ResourceRecord::make_a(
            owner, 60, IpAddress::v4(static_cast<std::uint32_t>(rng.next_u64()))));
      }
    }
    if (rng.chance(0.5)) {
      r.authorities.push_back(ResourceRecord::make_ns(rng.pick(zones), 3600,
                                                      rng.pick(zones).prepend("ns1")));
    }
    const auto wire = r.serialize(true);
    const Message back = Message::parse({wire.data(), wire.size()});
    EXPECT_TRUE(messages_equal(back, r)) << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressionRoundTrip, ::testing::Values(1, 2, 9, 77));

}  // namespace
}  // namespace ecsdns::dnscore
