// One minimal malformed DNS message per reject rule of the wire grammar
// (src/dnscore/wire_grammar.h and the name walk in name.cpp), plus a
// truncated header. Each is paired with its one-byte-fixed neighbour,
// which both readers accept. tests/test_message_view.cpp holds
// Message::parse and MessageView to the same what() on every entry, and
// gen_corpus writes each malformed message as a seed under
// fuzz/corpus/message/.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace ecsdns::fuzz {

struct WireReject {
  std::string name;  // corpus seed stem
  std::string what;  // the WireFormatError::what() both readers throw
  std::vector<std::uint8_t> broken;
  // The fix: broken[fix_at] = fix_to, or one byte appended when fix_at is
  // broken.size().
  std::size_t fix_at = 0;
  std::uint8_t fix_to = 0;

  std::vector<std::uint8_t> fixed() const {
    std::vector<std::uint8_t> out = broken;
    if (fix_at == out.size()) {
      out.push_back(fix_to);
    } else {
      out.at(fix_at) = fix_to;
    }
    return out;
  }
};

namespace wire_reject_bytes {

using Bytes = std::vector<std::uint8_t>;

inline Bytes cat(std::initializer_list<Bytes> parts) {
  Bytes out;
  for (const Bytes& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

// A response header (QR, RD) with the four section counts.
inline Bytes header(std::uint8_t qd, std::uint8_t an, std::uint8_t ns,
                    std::uint8_t ar) {
  return {0x12, 0x34, 0x81, 0x00, 0, qd, 0, an, 0, ns, 0, ar};
}

// Question "a." A IN; placed first, its name sits at offset 12 and its
// root octet at 14.
inline Bytes question_a() { return {1, 'a', 0, 0, 1, 0, 1}; }

inline Bytes label(std::uint8_t len, char fill) {
  Bytes out(1u + len, static_cast<std::uint8_t>(fill));
  out[0] = len;
  return out;
}

// A record owned by the root: TYPE, class IN, TTL 60, RDLENGTH, rdata.
// Placed first after the header, its RDLENGTH low octet is at offset 22.
inline Bytes root_record(std::uint16_t type, std::uint8_t rdlength,
                         const Bytes& rdata) {
  return cat({{0, static_cast<std::uint8_t>(type >> 8),
               static_cast<std::uint8_t>(type), 0, 1, 0, 0, 0, 60, 0, rdlength},
              rdata});
}

// An OPT pseudo-RR owned by the root with an RDLENGTH and option bytes.
// Placed first after the header, its RDLENGTH low octet is at offset 22.
inline Bytes opt(std::uint8_t rdlength, const Bytes& options) {
  return cat({{0, 0, 41, 0x10, 0x00, 0, 0, 0, 0, 0, rdlength}, options});
}

}  // namespace wire_reject_bytes

inline std::vector<WireReject> wire_reject_cases() {
  using namespace wire_reject_bytes;
  std::vector<WireReject> cases;

  // Name rules.
  // The second question's pointer targets itself (offset 19); fixed, it
  // targets the first question's name.
  cases.push_back({"reject_pointer_not_backwards",
                   "compression pointer does not point backwards",
                   cat({header(2, 0, 0, 0), question_a(), {0xc0, 19, 0, 1, 0, 1}}),
                   20, 12});
  {
    // 66 questions; each after the first is a pointer to the one before,
    // so the last one's name takes 65 jumps (the bound is 64). Fixed, the
    // last pointer skips one link.
    Bytes wire = cat({header(66, 0, 0, 0), question_a()});
    std::size_t previous = 12;
    for (int q = 1; q <= 65; ++q) {
      const std::size_t at = wire.size();
      wire.insert(wire.end(), {static_cast<std::uint8_t>(0xc0 | (previous >> 8)),
                               static_cast<std::uint8_t>(previous & 0xff), 0, 1, 0, 1});
      previous = at;
    }
    const std::size_t last = wire.size() - 6;
    cases.push_back({"reject_pointer_loop", "compression pointer loop", wire,
                     last + 1, static_cast<std::uint8_t>((last - 12) & 0xff)});
  }
  // Label type 01 is reserved (RFC 6891 §5 retired extended labels).
  cases.push_back({"reject_reserved_label_type", "reserved label type 0x1",
                   cat({header(1, 0, 0, 0), {0x41, 'a', 0, 0, 1, 0, 1}}), 12, 0x01});
  {
    // A 62-octet label, then a pointer to three 63-octet labels: 255
    // packed octets, one past the limit. Fixed, the pointer skips the
    // first of the three.
    const Bytes wire = cat({header(2, 0, 0, 0), label(63, 'a'), label(63, 'b'),
                            label(63, 'c'), {0, 0, 1, 0, 1}, label(62, 'd'),
                            {0xc0, 12, 0, 1, 0, 1}});
    cases.push_back({"reject_name_over_255", "decompressed name exceeds 255 octets",
                     wire, wire.size() - 5, 12 + 64});
  }

  // Rdata rules: each fix sets RDLENGTH (offset 22) to what the rdata holds.
  cases.push_back({"reject_a_rdata_length", "A rdata must be 4 octets",
                   cat({header(0, 1, 0, 0), root_record(1, 3, {192, 0, 2, 1})}),
                   22, 4});
  cases.push_back({"reject_aaaa_rdata_length", "AAAA rdata must be 16 octets",
                   cat({header(0, 1, 0, 0), root_record(28, 15, Bytes(16, 0x20))}),
                   22, 16});
  cases.push_back({"reject_txt_length_mismatch", "TXT rdata length mismatch",
                   cat({header(0, 1, 0, 0), root_record(16, 3, {3, 'a', 'b', 'c'})}),
                   22, 4});
  cases.push_back({"reject_rdata_overruns_rdlength", "rdata overruns RDLENGTH in NS",
                   cat({header(0, 1, 0, 0), root_record(2, 2, {1, 'b', 0})}), 22, 3});

  // Message rules.
  // The OPT owner points at the question's name; fixed, at its root octet.
  cases.push_back({"reject_opt_non_root_owner", "OPT record with non-root owner",
                   cat({header(1, 0, 0, 1), question_a(),
                        {0xc0, 12, 0, 41, 0x10, 0x00, 0, 0, 0, 0, 0, 0}}),
                   20, 14});
  // Fixed, the second record's TYPE becomes 99, an unmodelled type.
  cases.push_back({"reject_duplicate_opt", "duplicate OPT record",
                   cat({header(0, 0, 0, 2), opt(0, {}), opt(0, {})}), 25, 99});
  // Two questions under QDCOUNT 1; fixed, QDCOUNT 2.
  cases.push_back({"reject_trailing_bytes", "trailing bytes after message",
                   cat({header(1, 0, 0, 0), question_a(), question_a()}), 5, 2});

  // EDNS rules: each fix sets the OPT RDLENGTH to what the options hold.
  cases.push_back({"reject_truncated_option_header", "truncated EDNS option header",
                   cat({header(0, 0, 0, 1), opt(3, {0, 10, 0, 0})}), 22, 4});
  cases.push_back({"reject_option_overruns_opt", "EDNS option overruns OPT rdata",
                   cat({header(0, 0, 0, 1), opt(4, {0, 10, 0, 1, 0xab})}), 22, 5});

  // One octet short of a header; fixed, the octet is there.
  {
    Bytes wire = header(0, 0, 0, 0);
    wire.pop_back();
    cases.push_back({"reject_truncated_header",
                     "truncated message: need 2 bytes at offset 10, have 1", wire,
                     wire.size(), 0});
  }
  return cases;
}

}  // namespace ecsdns::fuzz
