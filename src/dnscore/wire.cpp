#include "dnscore/wire.h"

#include "dnscore/contracts.h"

namespace ecsdns::dnscore {

void WireReader::require(std::size_t n) const {
  ECSDNS_DCHECK(pos_ <= data_.size());
  if (remaining() < n) {
    throw WireFormatError("truncated message: need " + std::to_string(n) +
                          " bytes at offset " + std::to_string(pos_) +
                          ", have " + std::to_string(remaining()));
  }
}

std::uint8_t WireReader::u8() {
  require(1);
  return data_[pos_++];
}

std::uint16_t WireReader::u16() {
  require(2);
  const std::uint16_t v = static_cast<std::uint16_t>(
      (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 4;
  return v;
}

std::span<const std::uint8_t> WireReader::bytes(std::size_t n) {
  require(n);
  auto out = data_.subspan(pos_, n);
  pos_ += n;
  ECSDNS_DCHECK(pos_ <= data_.size());
  return out;
}

void WireReader::skip(std::size_t n) {
  require(n);
  pos_ += n;
  ECSDNS_DCHECK(pos_ <= data_.size());
}

void WireReader::seek(std::size_t offset) {
  if (offset > data_.size()) {
    throw WireFormatError("seek beyond buffer: " + std::to_string(offset));
  }
  pos_ = offset;
}

// The appends below are the one sanctioned growth site on the noalloc
// packet path: in external (pooled) mode the buffer arrived from a
// BufferPool with capacity converged on the run's packet sizes, so the
// steady state never reallocates — run.allocations in the perf gate
// enforces that dynamically.

// ecstidy:allow(noalloc): amortized append into a pooled buffer whose
// capacity has converged; steady state never grows (perf gate enforces).
void WireWriter::u8(std::uint8_t v) { buf_->push_back(v); }

void WireWriter::u16(std::uint16_t v) {
  // ecstidy:allow(noalloc): amortized append into pooled capacity (see u8).
  buf_->push_back(static_cast<std::uint8_t>(v >> 8));
  // ecstidy:allow(noalloc): amortized append into pooled capacity (see u8).
  buf_->push_back(static_cast<std::uint8_t>(v & 0xff));
}

void WireWriter::u32(std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    // ecstidy:allow(noalloc): amortized append into pooled capacity (see u8).
    buf_->push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
  }
}

void WireWriter::bytes(std::span<const std::uint8_t> b) {
  // ecstidy:allow(noalloc): amortized append into pooled capacity (see u8).
  buf_->insert(buf_->end(), b.begin(), b.end());
}

std::size_t WireWriter::reserve_u16() {
  const std::size_t at = buf_->size();
  // ecstidy:allow(noalloc): amortized append into pooled capacity (see u8).
  buf_->push_back(0);
  // ecstidy:allow(noalloc): amortized append into pooled capacity (see u8).
  buf_->push_back(0);
  return at;
}

void WireWriter::patch_u16(std::size_t offset, std::uint16_t v) {
  // Patching a slot that was never reserved is a caller bug, not bad input.
  ECSDNS_CHECK(offset + 2 <= buf_->size());
  (*buf_)[offset] = static_cast<std::uint8_t>(v >> 8);
  (*buf_)[offset + 1] = static_cast<std::uint8_t>(v & 0xff);
}

std::string hex_dump(std::span<const std::uint8_t> data) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 3);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i != 0) out.push_back(' ');
    out.push_back(kHex[data[i] >> 4]);
    out.push_back(kHex[data[i] & 0xf]);
  }
  return out;
}

}  // namespace ecsdns::dnscore
