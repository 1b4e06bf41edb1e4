// Bounds-checked big-endian wire codec used by all DNS serialization.
//
// DNS is a binary big-endian protocol (RFC 1035 §3). Every parse in this
// library goes through WireReader, which throws WireFormatError instead of
// reading out of bounds, and every serialization goes through WireWriter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dnscore/annotations.h"

namespace ecsdns::dnscore {

// Thrown on any malformed wire input: truncated fields, label overruns,
// compression-pointer loops, invalid option payloads, and the like.
class WireFormatError : public std::runtime_error {
 public:
  explicit WireFormatError(const std::string& what) : std::runtime_error(what) {}
};

// Sequential reader over an immutable byte buffer. The reader never owns the
// bytes; callers keep the buffer alive for the reader's lifetime.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::size_t offset() const noexcept { return pos_; }
  std::size_t size() const noexcept { return data_.size(); }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool at_end() const noexcept { return pos_ == data_.size(); }

  // Readers are on the zero-copy hot path (every MessageView construction
  // goes through them); they only allocate when building the diagnostic for
  // a WireFormatError throw.
  ECSDNS_NOALLOC std::uint8_t u8();
  ECSDNS_NOALLOC std::uint16_t u16();
  ECSDNS_NOALLOC std::uint32_t u32();
  // Reads exactly n bytes, throwing if fewer remain.
  ECSDNS_NOALLOC std::span<const std::uint8_t> bytes(std::size_t n);
  ECSDNS_NOALLOC void skip(std::size_t n);
  // Repositions the cursor (used to follow DNS name-compression pointers).
  ECSDNS_NOALLOC void seek(std::size_t offset);

 private:
  ECSDNS_NOALLOC void require(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// Append-only big-endian writer. Supports patching previously written 16-bit
// fields, which DNS needs for RDLENGTH and for message section counts.
//
// The writer targets either its own internal vector (default constructor)
// or a caller-supplied one (the pooled-buffer hot path: a recycled buffer's
// capacity is reused instead of growing a fresh vector per packet). In
// external mode the target is cleared on adoption and must outlive the
// writer; the bytes land directly in the caller's vector, so there is
// nothing to take() back out.
class WireWriter {
 public:
  WireWriter() noexcept : buf_(&owned_) {}
  explicit WireWriter(std::vector<std::uint8_t>& external) noexcept
      : buf_(&external) {
    buf_->clear();
  }

  WireWriter(const WireWriter&) = delete;
  WireWriter& operator=(const WireWriter&) = delete;

  std::size_t size() const noexcept { return buf_->size(); }
  const std::vector<std::uint8_t>& data() const noexcept { return *buf_; }
  // Moves the target buffer out. In external mode this steals the caller's
  // vector — prefer reading the vector directly there.
  std::vector<std::uint8_t> take() && { return std::move(*buf_); }

  // Appends are amortized-noalloc: in external (pooled-buffer) mode the
  // target's capacity has converged on the run's packet sizes, so the
  // steady state never grows. The perf gate's allocation counter enforces
  // this dynamically; the annotation keeps new calls on the path honest.
  ECSDNS_NOALLOC void u8(std::uint8_t v);
  ECSDNS_NOALLOC void u16(std::uint16_t v);
  ECSDNS_NOALLOC void u32(std::uint32_t v);
  ECSDNS_NOALLOC void bytes(std::span<const std::uint8_t> b);

  // Reserves a 16-bit slot and returns its offset for later patching.
  ECSDNS_NOALLOC std::size_t reserve_u16();
  ECSDNS_NOALLOC void patch_u16(std::size_t offset, std::uint16_t v);

 private:
  std::vector<std::uint8_t> owned_;
  std::vector<std::uint8_t>* buf_;
};

// Renders bytes as lowercase hex pairs separated by spaces; debugging aid.
std::string hex_dump(std::span<const std::uint8_t> data);

}  // namespace ecsdns::dnscore
