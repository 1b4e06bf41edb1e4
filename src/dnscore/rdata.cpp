#include "dnscore/rdata.h"

#include "dnscore/wire_grammar.h"

namespace ecsdns::dnscore {

RRType rdata_type(const Rdata& rdata) {
  return std::visit(
      [](const auto& r) -> RRType {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, ARdata>) return RRType::A;
        else if constexpr (std::is_same_v<T, AaaaRdata>) return RRType::AAAA;
        else if constexpr (std::is_same_v<T, NsRdata>) return RRType::NS;
        else if constexpr (std::is_same_v<T, CnameRdata>) return RRType::CNAME;
        else if constexpr (std::is_same_v<T, PtrRdata>) return RRType::PTR;
        else if constexpr (std::is_same_v<T, MxRdata>) return RRType::MX;
        else if constexpr (std::is_same_v<T, TxtRdata>) return RRType::TXT;
        else if constexpr (std::is_same_v<T, SoaRdata>) return RRType::SOA;
        else return static_cast<RRType>(r.type);
      },
      rdata);
}

Rdata parse_rdata(RRType type, std::uint16_t rdlength, WireReader& reader) {
  return grammar::walk_rdata(type, rdlength, reader, grammar::RecordBuilder{});
}

void serialize_rdata(const Rdata& rdata, WireWriter& writer) {
  std::visit(
      [&writer](const auto& r) {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, ARdata>) {
          writer.bytes({r.address.bytes().data(), 4});
        } else if constexpr (std::is_same_v<T, AaaaRdata>) {
          writer.bytes({r.address.bytes().data(), 16});
        } else if constexpr (std::is_same_v<T, NsRdata>) {
          r.nameserver.serialize(writer);
        } else if constexpr (std::is_same_v<T, CnameRdata>) {
          r.target.serialize(writer);
        } else if constexpr (std::is_same_v<T, PtrRdata>) {
          r.target.serialize(writer);
        } else if constexpr (std::is_same_v<T, MxRdata>) {
          writer.u16(r.preference);
          r.exchange.serialize(writer);
        } else if constexpr (std::is_same_v<T, TxtRdata>) {
          for (const auto& s : r.strings) {
            if (s.size() > 255) throw WireFormatError("TXT string exceeds 255 octets");
            writer.u8(static_cast<std::uint8_t>(s.size()));
            writer.bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
          }
        } else if constexpr (std::is_same_v<T, SoaRdata>) {
          r.mname.serialize(writer);
          r.rname.serialize(writer);
          writer.u32(r.serial);
          writer.u32(r.refresh);
          writer.u32(r.retry);
          writer.u32(r.expire);
          writer.u32(r.minimum);
        } else {
          writer.bytes({r.data.data(), r.data.size()});
        }
      },
      rdata);
}

std::string rdata_to_string(const Rdata& rdata) {
  return std::visit(
      [](const auto& r) -> std::string {
        using T = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<T, ARdata>) {
          return r.address.to_string();
        } else if constexpr (std::is_same_v<T, AaaaRdata>) {
          return r.address.to_string();
        } else if constexpr (std::is_same_v<T, NsRdata>) {
          return r.nameserver.to_string();
        } else if constexpr (std::is_same_v<T, CnameRdata>) {
          return r.target.to_string();
        } else if constexpr (std::is_same_v<T, PtrRdata>) {
          return r.target.to_string();
        } else if constexpr (std::is_same_v<T, MxRdata>) {
          return std::to_string(r.preference) + " " + r.exchange.to_string();
        } else if constexpr (std::is_same_v<T, TxtRdata>) {
          std::string out;
          for (const auto& s : r.strings) {
            if (!out.empty()) out.push_back(' ');
            out += '"' + s + '"';
          }
          return out;
        } else if constexpr (std::is_same_v<T, SoaRdata>) {
          return r.mname.to_string() + " " + r.rname.to_string() + " " +
                 std::to_string(r.serial) + " " + std::to_string(r.refresh) + " " +
                 std::to_string(r.retry) + " " + std::to_string(r.expire) + " " +
                 std::to_string(r.minimum);
        } else {
          return "\\# " + std::to_string(r.data.size()) + " " +
                 hex_dump({r.data.data(), r.data.size()});
        }
      },
      rdata);
}

}  // namespace ecsdns::dnscore
