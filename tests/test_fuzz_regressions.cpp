// Permanent regression tests for fuzz findings, plus full corpus replay.
//
// Each embedded input below reproduced a real bug through the shared
// oracles in fuzz/oracles.h before its fix; running the oracle (which
// aborts on failure) keeps the bug fixed. New crashers get appended here
// minimized, per fuzz/README.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

#include "fuzz/oracles.h"

namespace {

using namespace ecsdns;

std::vector<std::uint8_t> bytes(std::initializer_list<std::uint8_t> b) {
  return std::vector<std::uint8_t>(b);
}

std::vector<std::uint8_t> from_text(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

// A wire-format name whose label contains a literal '.'. Before the fix,
// Name::to_string() emitted "a.b.example" unescaped, which from_string()
// re-parsed as a three-label name — breaking from_string(to_string(n)) == n.
TEST(FuzzRegressions, NameLabelWithLiteralDot) {
  const auto input = bytes({3, 'a', '.', 'b', 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 0});
  fuzz::check_name(input.data(), input.size());
}

// A label containing a backslash exercises the other escaped character.
TEST(FuzzRegressions, NameLabelWithBackslash) {
  const auto input = bytes({3, 'a', '\\', 'b', 0});
  fuzz::check_name(input.data(), input.size());
}

// A TTL with more digits than a uint64 made the old std::stoul-based
// number parser throw std::out_of_range, violating zone_text's documented
// "throws std::invalid_argument" contract.
TEST(FuzzRegressions, ZoneTextHugeTtl) {
  const auto input = from_text("@ 999999999999999999999999 IN A 192.0.2.1\n");
  fuzz::check_zone_text(input.data(), input.size());
}

// A TTL just past 2^32-1 must also be a clean rejection (the old parser
// silently truncated values that fit in unsigned long).
TEST(FuzzRegressions, ZoneTextTtlPastU32) {
  const auto input = from_text("$TTL 4294967296\n@ IN A 192.0.2.1\n");
  fuzz::check_zone_text(input.data(), input.size());
}

// An owner label over 63 octets made Name::from_string's WireFormatError
// escape parse_zone_text undeclared; it must surface as invalid_argument.
TEST(FuzzRegressions, ZoneTextOversizedOwnerLabel) {
  const auto input = from_text(std::string(70, 'x') + " IN A 192.0.2.1\n");
  fuzz::check_zone_text(input.data(), input.size());
}

// Replays every checked-in seed through the same oracle the fuzzers run.
class CorpusReplay : public ::testing::TestWithParam<const char*> {};

TEST_P(CorpusReplay, AllSeedsPass) {
  const std::string target = GetParam();
  // serve_wire shares the message corpus, as its fuzz target does.
  const std::filesystem::path dir = std::filesystem::path(ECSDNS_CORPUS_DIR) /
                                    (target == "serve_wire" ? "message" : target);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t ran = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    ASSERT_TRUE(in) << entry.path();
    const std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
    const auto* data = reinterpret_cast<const std::uint8_t*>(raw.data());
    SCOPED_TRACE(entry.path().string());
    if (target == "message") fuzz::check_message(data, raw.size());
    else if (target == "serve_wire") fuzz::check_serve_wire(data, raw.size());
    else if (target == "name") fuzz::check_name(data, raw.size());
    else if (target == "edns_ecs") fuzz::check_edns_ecs(data, raw.size());
    else fuzz::check_zone_text(data, raw.size());
    ++ran;
  }
  EXPECT_GT(ran, 0u) << "empty corpus directory: " << dir;
}

INSTANTIATE_TEST_SUITE_P(Targets, CorpusReplay,
                         ::testing::Values("message", "name", "edns_ecs",
                                           "zone_text", "serve_wire"));

}  // namespace
