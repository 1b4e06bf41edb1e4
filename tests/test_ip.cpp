// Unit and parameterized tests for IP addresses and prefixes.
#include <gtest/gtest.h>

#include "dnscore/ip.h"

namespace ecsdns::dnscore {
namespace {

TEST(IpAddress, ParseV4) {
  const auto a = IpAddress::parse("192.168.1.20");
  EXPECT_TRUE(a.is_v4());
  EXPECT_EQ(a.to_string(), "192.168.1.20");
  EXPECT_EQ(a.v4_bits(), 0xc0a80114u);
  EXPECT_EQ(a, IpAddress::v4(192, 168, 1, 20));
  EXPECT_EQ(IpAddress::v4(0xc0a80114u), a);
}

TEST(IpAddress, RejectsBadV4) {
  EXPECT_THROW(IpAddress::parse("1.2.3"), std::invalid_argument);
  EXPECT_THROW(IpAddress::parse("1.2.3.4.5"), std::invalid_argument);
  EXPECT_THROW(IpAddress::parse("256.1.1.1"), std::invalid_argument);
  EXPECT_THROW(IpAddress::parse("1.2.3.x"), std::invalid_argument);
  EXPECT_THROW(IpAddress::parse(""), std::invalid_argument);
  EXPECT_THROW(IpAddress::parse("1..2.3"), std::invalid_argument);
}

TEST(IpAddress, ParseV6) {
  const auto a = IpAddress::parse("2001:db8::1");
  EXPECT_TRUE(a.is_v6());
  EXPECT_EQ(a.to_string(), "2001:db8::1");
  EXPECT_EQ(IpAddress::parse("::"), IpAddress::v6({}));
  EXPECT_EQ(IpAddress::parse("::1").to_string(), "::1");
  EXPECT_EQ(IpAddress::parse("fe80::").to_string(), "fe80::");
  EXPECT_EQ(IpAddress::parse("1:2:3:4:5:6:7:8").to_string(), "1:2:3:4:5:6:7:8");
  // Zero-run compression picks the longest run.
  EXPECT_EQ(IpAddress::parse("1:0:0:2:0:0:0:3").to_string(), "1:0:0:2::3");
}

TEST(IpAddress, RejectsBadV6) {
  EXPECT_THROW(IpAddress::parse("1::2::3"), std::invalid_argument);
  EXPECT_THROW(IpAddress::parse(":1:2:3:4:5:6:7"), std::invalid_argument);
  EXPECT_THROW(IpAddress::parse("1:2:3:4:5:6:7"), std::invalid_argument);
  EXPECT_THROW(IpAddress::parse("1:2:3:4:5:6:7:8:9"), std::invalid_argument);
  EXPECT_THROW(IpAddress::parse("12345::"), std::invalid_argument);
}

TEST(IpAddress, V4BitsThrowsOnV6) {
  EXPECT_THROW(IpAddress::parse("::1").v4_bits(), std::logic_error);
}

struct ClassificationCase {
  const char* text;
  bool loopback;
  bool priv;
  bool link_local;
  bool unroutable;
};

// Prints a case as its address text. The default printer dumps the raw
// bytes, pointer and padding included, which makes the discovered test
// names differ from one build or run to the next.
void PrintTo(const ClassificationCase& c, std::ostream* os) { *os << c.text; }

class Classification : public ::testing::TestWithParam<ClassificationCase> {};

TEST_P(Classification, Matches) {
  const auto& c = GetParam();
  const auto a = IpAddress::parse(c.text);
  EXPECT_EQ(a.is_loopback(), c.loopback) << c.text;
  EXPECT_EQ(a.is_private(), c.priv) << c.text;
  EXPECT_EQ(a.is_link_local(), c.link_local) << c.text;
  EXPECT_EQ(a.is_unroutable(), c.unroutable) << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Classification,
    ::testing::Values(
        ClassificationCase{"127.0.0.1", true, false, false, true},
        ClassificationCase{"127.255.0.9", true, false, false, true},
        ClassificationCase{"10.1.2.3", false, true, false, true},
        ClassificationCase{"172.16.0.1", false, true, false, true},
        ClassificationCase{"172.31.255.255", false, true, false, true},
        ClassificationCase{"172.32.0.1", false, false, false, false},
        ClassificationCase{"192.168.44.1", false, true, false, true},
        ClassificationCase{"169.254.252.9", false, false, true, true},
        ClassificationCase{"0.0.0.0", false, false, false, true},
        ClassificationCase{"8.8.8.8", false, false, false, false},
        ClassificationCase{"::1", true, false, false, true},
        ClassificationCase{"fe80::1", false, false, true, true},
        ClassificationCase{"2001:db8::1", false, false, false, false}));

TEST(Prefix, TruncationZeroesHostBits) {
  const Prefix p{IpAddress::parse("192.168.1.77"), 24};
  EXPECT_EQ(p.to_string(), "192.168.1.0/24");
  EXPECT_EQ(Prefix(IpAddress::parse("10.1.2.3"), 0).to_string(), "0.0.0.0/0");
  const Prefix p22{IpAddress::parse("9.9.7.1"), 22};
  EXPECT_EQ(p22.to_string(), "9.9.4.0/22");
  const Prefix p25{IpAddress::parse("1.2.3.129"), 25};
  EXPECT_EQ(p25.to_string(), "1.2.3.128/25");
}

TEST(Prefix, EqualityIsBlockEquality) {
  EXPECT_EQ(Prefix(IpAddress::parse("10.0.0.1"), 24),
            Prefix(IpAddress::parse("10.0.0.200"), 24));
  EXPECT_NE(Prefix(IpAddress::parse("10.0.0.1"), 24),
            Prefix(IpAddress::parse("10.0.0.1"), 25));
}

TEST(Prefix, Containment) {
  const Prefix p = Prefix::parse("10.1.0.0/16");
  EXPECT_TRUE(p.contains(IpAddress::parse("10.1.200.3")));
  EXPECT_FALSE(p.contains(IpAddress::parse("10.2.0.1")));
  EXPECT_TRUE(p.contains(Prefix::parse("10.1.2.0/24")));
  EXPECT_TRUE(p.contains(p));
  EXPECT_FALSE(p.contains(Prefix::parse("10.0.0.0/8")));
  EXPECT_FALSE(p.contains(IpAddress::parse("::1")));  // family mismatch
}

TEST(Prefix, V6Containment) {
  const Prefix p = Prefix::parse("2001:db8::/32");
  EXPECT_TRUE(p.contains(IpAddress::parse("2001:db8:1::5")));
  EXPECT_FALSE(p.contains(IpAddress::parse("2001:db9::1")));
}

TEST(Prefix, InvalidLengths) {
  EXPECT_THROW(Prefix(IpAddress::parse("1.2.3.4"), 33), std::invalid_argument);
  EXPECT_THROW(Prefix(IpAddress::parse("1.2.3.4"), -1), std::invalid_argument);
  EXPECT_THROW(Prefix(IpAddress::parse("::1"), 129), std::invalid_argument);
  EXPECT_NO_THROW(Prefix(IpAddress::parse("::1"), 128));
}

TEST(Prefix, ParseText) {
  EXPECT_EQ(Prefix::parse("1.2.3.0/24").length(), 24);
  EXPECT_THROW(Prefix::parse("1.2.3.0"), std::invalid_argument);
}

// Property: truncation is idempotent and monotone over every length.
class TruncateAll : public ::testing::TestWithParam<int> {};

TEST_P(TruncateAll, IdempotentAndContained) {
  const int len = GetParam();
  const auto addr = IpAddress::parse("203.119.87.213");
  const auto t = truncate_address(addr, len);
  EXPECT_EQ(truncate_address(t, len), t);
  EXPECT_TRUE(Prefix(addr, len).contains(addr));
  if (len > 0) {
    EXPECT_TRUE(Prefix(addr, len - 1).contains(Prefix(addr, len)));
  }
}

INSTANTIATE_TEST_SUITE_P(AllV4Lengths, TruncateAll, ::testing::Range(0, 33));

}  // namespace
}  // namespace ecsdns::dnscore
