// Unit tests for the bounds-checked wire codec.
#include <gtest/gtest.h>

#include "dnscore/wire.h"

namespace ecsdns::dnscore {
namespace {

TEST(WireWriter, WritesBigEndian) {
  WireWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  const auto& b = w.data();
  ASSERT_EQ(b.size(), 7u);
  EXPECT_EQ(b[0], 0xab);
  EXPECT_EQ(b[1], 0x12);
  EXPECT_EQ(b[2], 0x34);
  EXPECT_EQ(b[3], 0xde);
  EXPECT_EQ(b[4], 0xad);
  EXPECT_EQ(b[5], 0xbe);
  EXPECT_EQ(b[6], 0xef);
}

TEST(WireWriter, PatchU16) {
  WireWriter w;
  w.u8(0x01);
  const auto slot = w.reserve_u16();
  w.u8(0x02);
  w.patch_u16(slot, 0xbeef);
  EXPECT_EQ(w.data()[1], 0xbe);
  EXPECT_EQ(w.data()[2], 0xef);
  EXPECT_EQ(w.data()[3], 0x02);
}

TEST(WireWriter, ExternalModeWritesIntoCallerBuffer) {
  std::vector<std::uint8_t> buf = {0xde, 0xad};  // stale contents
  buf.reserve(64);
  const auto* storage = buf.data();
  {
    WireWriter w(buf);
    EXPECT_EQ(w.size(), 0u);  // adoption clears the target
    w.u16(0x1234);
    w.u8(0x56);
  }
  ASSERT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf[0], 0x12);
  EXPECT_EQ(buf[1], 0x34);
  EXPECT_EQ(buf[2], 0x56);
  // Small writes into a pre-reserved buffer reuse its storage.
  EXPECT_EQ(buf.data(), storage);
}

TEST(WireWriter, ExternalModePatchesInPlace) {
  std::vector<std::uint8_t> buf;
  WireWriter w(buf);
  const auto slot = w.reserve_u16();
  w.u8(0x99);
  w.patch_u16(slot, 0xcafe);
  ASSERT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf[0], 0xca);
  EXPECT_EQ(buf[1], 0xfe);
  EXPECT_EQ(buf[2], 0x99);
}

TEST(WireWriter, OwnedModeTakeMovesBufferOut) {
  WireWriter w;
  w.u32(0x01020304);
  const auto out = std::move(w).take();
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], 0x01);
  EXPECT_EQ(out[3], 0x04);
}

TEST(WireReader, RoundTripsScalars) {
  WireWriter w;
  w.u8(7);
  w.u16(65535);
  w.u32(1u << 31);
  WireReader r({w.data().data(), w.data().size()});
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 65535);
  EXPECT_EQ(r.u32(), 1u << 31);
  EXPECT_TRUE(r.at_end());
}

TEST(WireReader, ThrowsOnTruncation) {
  const std::uint8_t one[] = {0x42};
  WireReader r({one, 1});
  EXPECT_EQ(r.u8(), 0x42);
  EXPECT_THROW(r.u8(), WireFormatError);
  WireReader r2({one, 1});
  EXPECT_THROW(r2.u16(), WireFormatError);
  EXPECT_THROW(r2.u32(), WireFormatError);
  EXPECT_THROW(r2.bytes(2), WireFormatError);
  EXPECT_THROW(r2.skip(2), WireFormatError);
}

TEST(WireReader, SeekBounds) {
  const std::uint8_t buf[] = {1, 2, 3};
  WireReader r({buf, 3});
  r.seek(3);  // one-past-end is allowed (cursor at end)
  EXPECT_TRUE(r.at_end());
  EXPECT_THROW(r.seek(4), WireFormatError);
}

TEST(WireReader, SeekOnEmptyBuffer) {
  WireReader r({static_cast<const std::uint8_t*>(nullptr), 0});
  EXPECT_TRUE(r.at_end());
  r.seek(0);  // one-past-end of an empty buffer is offset 0
  EXPECT_TRUE(r.at_end());
  EXPECT_THROW(r.seek(1), WireFormatError);
  EXPECT_THROW(r.u8(), WireFormatError);
}

TEST(WireReader, ReadsAfterSeekToEndThrow) {
  const std::uint8_t buf[] = {1, 2, 3};
  WireReader r({buf, 3});
  r.seek(3);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_THROW(r.u8(), WireFormatError);
  EXPECT_THROW(r.u16(), WireFormatError);
  EXPECT_THROW(r.bytes(1), WireFormatError);
  EXPECT_THROW(r.skip(1), WireFormatError);
  EXPECT_EQ(r.bytes(0).size(), 0u);  // zero-length read stays legal at end
  // A failed read leaves the cursor usable.
  r.seek(2);
  EXPECT_EQ(r.u8(), 3);
}

TEST(WireReader, BytesReturnsView) {
  const std::uint8_t buf[] = {9, 8, 7, 6};
  WireReader r({buf, 4});
  const auto view = r.bytes(3);
  EXPECT_EQ(view.size(), 3u);
  EXPECT_EQ(view[2], 7);
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(HexDump, Formats) {
  const std::uint8_t buf[] = {0x00, 0xff, 0x1a};
  EXPECT_EQ(hex_dump({buf, 3}), "00 ff 1a");
  EXPECT_EQ(hex_dump({buf, 0}), "");
}

}  // namespace
}  // namespace ecsdns::dnscore
