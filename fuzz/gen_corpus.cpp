// Writes the checked-in seed corpus under fuzz/corpus/<target>/.
//
// Seeds come from the library's own serializers so every structured input
// starts the fuzzer inside the interesting part of the grammar, plus a few
// hand-crafted wire sequences (pointer loops, truncations) that no
// serializer will produce. Output is fully deterministic: re-running the
// generator must reproduce the checked-in corpus byte for byte.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "dnscore/ecs.h"
#include "dnscore/edns.h"
#include "dnscore/ip.h"
#include "dnscore/message.h"
#include "dnscore/name.h"
#include "dnscore/record.h"
#include "dnscore/wire.h"
#include "wire_rejects.h"

namespace {

using namespace ecsdns::dnscore;

std::filesystem::path g_root;

void write_seed(const std::string& target, const std::string& name,
                const std::vector<std::uint8_t>& bytes) {
  const auto dir = g_root / target;
  std::filesystem::create_directories(dir);
  const auto path = dir / name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", path.string().c_str());
    std::exit(1);
  }
}

void write_seed(const std::string& target, const std::string& name,
                const std::string& text) {
  write_seed(target, name, std::vector<std::uint8_t>(text.begin(), text.end()));
}

std::vector<std::uint8_t> name_wire(const Name& n) {
  WireWriter w;
  n.serialize(w);
  return w.data();
}

void message_seeds() {
  // Plain A query.
  const auto q = Message::make_query(0x1234, Name::from_string("www.example.com"),
                                     RRType::A);
  write_seed("message", "query_a.bin", q.serialize(false));

  // Query carrying a compliant ECS option.
  auto ecs_q = Message::make_query(0x4242, Name::from_string("cdn.example.net"),
                                   RRType::AAAA);
  ecs_q.set_ecs(EcsOption::for_query(Prefix::parse("203.0.113.0/24")));
  write_seed("message", "query_ecs.bin", ecs_q.serialize(false));

  // Response with answers, authority, additional, OPT with ECS scope, and
  // name compression in the layout.
  auto resp = Message::make_response(ecs_q);
  resp.header.aa = true;
  resp.answers.push_back(ResourceRecord::make_cname(
      Name::from_string("cdn.example.net"), 300,
      Name::from_string("edge.cdn.example.net")));
  resp.answers.push_back(ResourceRecord::make_a(
      Name::from_string("edge.cdn.example.net"), 60, IpAddress::parse("198.51.100.7")));
  resp.authorities.push_back(ResourceRecord::make_ns(
      Name::from_string("example.net"), 86400, Name::from_string("ns1.example.net")));
  resp.additional.push_back(ResourceRecord::make_a(
      Name::from_string("ns1.example.net"), 86400, IpAddress::parse("192.0.2.53")));
  resp.set_ecs(EcsOption::for_response(Prefix::parse("203.0.113.0/24"), 20));
  write_seed("message", "response_ecs_compressed.bin", resp.serialize(true));

  // Extended rcode: BADVERS needs the OPT high bits.
  auto badvers = Message::make_response(q);
  badvers.header.rcode = RCode::BADVERS;
  badvers.opt = OptRecord{};
  write_seed("message", "response_badvers.bin", badvers.serialize(false));

  // SOA + MX + TXT rdata coverage.
  auto mixed = Message::make_response(q);
  mixed.authorities.push_back(ResourceRecord::make_soa(
      Name::from_string("example.com"), 3600, Name::from_string("ns1.example.com"),
      Name::from_string("hostmaster.example.com"), 2026080601, 300));
  mixed.additional.push_back(ResourceRecord{
      Name::from_string("example.com"), RRType::MX, RRClass::IN, 3600,
      MxRdata{10, Name::from_string("mail.example.com")}});
  mixed.additional.push_back(
      ResourceRecord::make_txt(Name::from_string("example.com"), 3600, "v=spf1 -all"));
  write_seed("message", "response_soa_mx_txt.bin", mixed.serialize(true));

  // Truncations the parser must reject cleanly.
  auto bytes = q.serialize(false);
  bytes.resize(11);  // mid-header
  write_seed("message", "truncated_header.bin", bytes);
  bytes = q.serialize(false);
  bytes.resize(bytes.size() - 3);  // mid-question
  write_seed("message", "truncated_question.bin", bytes);

  // One seed per reject rule of the wire grammar.
  for (const auto& reject : ecsdns::fuzz::wire_reject_cases()) {
    write_seed("message", reject.name + ".bin", reject.broken);
  }
}

void name_seeds() {
  write_seed("name", "root.bin", name_wire(Name()));
  write_seed("name", "www_example.bin", name_wire(Name::from_string("www.example.com")));
  // Labels containing a literal dot and a backslash (escaped in text form).
  write_seed("name", "escaped_label.bin",
             name_wire(Name::from_string("host\\.internal.example\\\\.com")));
  // Maximum label (63 octets).
  write_seed("name", "max_label.bin",
             name_wire(Name::from_string(std::string(63, 'a') + ".example")));
  // Name close to the 255-octet wire cap: four 61-octet labels -> 249.
  {
    std::string text;
    for (int i = 0; i < 4; ++i) {
      if (i) text += '.';
      text += std::string(61, static_cast<char>('a' + i));
    }
    write_seed("name", "near_max_name.bin", name_wire(Name::from_string(text)));
  }
  // Hand-crafted pointer loop: label "abc", then a pointer back to offset 0.
  write_seed("name", "pointer_loop.bin",
             std::vector<std::uint8_t>{3, 'a', 'b', 'c', 0xc0, 0x00});
  // Forward/self pointer at the start (must be rejected: backwards only).
  write_seed("name", "self_pointer.bin", std::vector<std::uint8_t>{0xc0, 0x00});
  // Label length running past the buffer.
  write_seed("name", "overrun_label.bin", std::vector<std::uint8_t>{9, 'a', 'b'});
}

void edns_ecs_seeds() {
  // ECS payloads (interpretation (a) of the target).
  write_seed("edns_ecs", "ecs_v4_query.bin",
             EcsOption::for_query(Prefix::parse("203.0.113.0/24")).to_edns().payload);
  write_seed("edns_ecs", "ecs_v6_query.bin",
             EcsOption::for_query(Prefix::parse("2001:db8::/32")).to_edns().payload);
  write_seed("edns_ecs", "ecs_response_scope.bin",
             EcsOption::for_response(Prefix::parse("198.51.100.0/22"), 16).to_edns().payload);
  write_seed("edns_ecs", "ecs_anonymous.bin",
             EcsOption::anonymous().to_edns().payload);
  {
    // Non-compliant but parseable: scope > source, non-zero trailing bits.
    EcsOption odd;
    odd.set_source_prefix_length(12);
    odd.set_scope_prefix_length(31);
    odd.set_address_bytes({0xde, 0xad});
    write_seed("edns_ecs", "ecs_noncompliant.bin", odd.to_edns().payload);
  }
  // Declared source length needs more address bytes than present.
  write_seed("edns_ecs", "ecs_truncated_address.bin",
             std::vector<std::uint8_t>{0x00, 0x01, 0x18, 0x00, 0xc0});
  {
    // One ADDRESS octet past EcsOption::kMaxAddressOctets: unparseable.
    std::vector<std::uint8_t> oversize{0x00, 0x01, 0x18, 0x00};
    oversize.resize(oversize.size() + EcsOption::kMaxAddressOctets + 1, 0xc0);
    write_seed("edns_ecs", "ecs_address_33_octets.bin", oversize);
  }

  // OPT RR bodies (interpretation (b)): serialize() output minus the root
  // owner + TYPE prefix parse_body does not consume.
  const auto opt_body = [](const OptRecord& opt) {
    WireWriter w;
    opt.serialize(w);
    return std::vector<std::uint8_t>(w.data().begin() + 3, w.data().end());
  };
  {
    OptRecord opt;
    opt.udp_payload_size = 1232;
    opt.add_option(EcsOption::for_query(Prefix::parse("192.0.2.0/24")).to_edns());
    write_seed("edns_ecs", "opt_body_ecs.bin", opt_body(opt));
  }
  {
    OptRecord opt;
    opt.extended_rcode = 1;  // BADVERS high bits
    opt.version = 0;
    opt.dnssec_ok = true;
    opt.add_option(EdnsOption{10, {1, 2, 3, 4, 5, 6, 7, 8}});  // COOKIE
    write_seed("edns_ecs", "opt_body_cookie_do.bin", opt_body(opt));
  }
  {
    // A duplicate ECS option around a COOKIE: parse_body keeps all three in
    // wire order.
    OptRecord opt;
    opt.add_option(EcsOption::for_query(Prefix::parse("192.0.2.0/24")).to_edns());
    opt.add_option(EdnsOption{10, {1, 2, 3, 4, 5, 6, 7, 8}});  // COOKIE
    opt.add_option(EcsOption::for_query(Prefix::parse("2001:db8::/48")).to_edns());
    write_seed("edns_ecs", "opt_body_ecs_cookie_ecs.bin", opt_body(opt));
  }
}

void zone_text_seeds() {
  write_seed("zone_text", "basic.zone", std::string(
      "$TTL 3600\n"
      "@ IN SOA ns1 hostmaster 2026080601 7200 900 1209600 300\n"
      "@ IN NS ns1\n"
      "ns1 IN A 192.0.2.53\n"
      "www 300 IN A 198.51.100.7\n"
      "www IN AAAA 2001:db8::7\n"));
  write_seed("zone_text", "owner_reuse.zone", std::string(
      "alpha IN A 192.0.2.1\n"
      "      IN A 192.0.2.2   ; indented: reuses owner\n"
      "      IN MX 10 mail.example.org.\n"));
  write_seed("zone_text", "txt_quoted.zone", std::string(
      "@ IN TXT \"v=spf1 include:_spf.example.com ~all\"\n"
      "@ IN TXT \"spaces ; and a fake comment\"\n"));
  write_seed("zone_text", "absolute_names.zone", std::string(
      "host.example.org. IN CNAME target.example.org.\n"
      "ptr.example.org. IN PTR host.example.org.\n"));
  write_seed("zone_text", "bad_ttl.zone",
             std::string("@ 4294967296999 IN A 192.0.2.1\n"));
  write_seed("zone_text", "bad_name.zone",
             std::string(std::string(70, 'x') + " IN A 192.0.2.1\n"));
}

}  // namespace

int main(int argc, char** argv) {
  g_root = argc > 1 ? std::filesystem::path(argv[1]) : "fuzz/corpus";
  message_seeds();
  name_seeds();
  edns_ecs_seeds();
  zone_text_seeds();
  std::printf("corpus written under %s\n", g_root.string().c_str());
  return 0;
}
