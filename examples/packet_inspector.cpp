// Scenario: a wire-format debugging tool. Give it the hex bytes of a DNS
// message (e.g. copied out of a packet capture) as arguments, or as `-` to
// read them from stdin; with no arguments it demonstrates itself on a
// self-crafted ECS exchange.
//
//   packet_inspector 2b 7e 01 00 ...
//   echo "2b 7e 01 00 ..." | packet_inspector -
//
// It pretty-prints the message, decodes any EDNS0/ECS content, and runs
// the RFC 7871 validator over the ECS option — turning the library's
// parser into the kind of lint tool §9 says the developer community needs.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "dnscore/message.h"

using namespace ecsdns::dnscore;

namespace {

std::vector<std::uint8_t> read_hex(std::istream& in) {
  std::vector<std::uint8_t> bytes;
  std::string token;
  while (in >> token) {
    if (token.size() > 2) {
      // Allow long runs like "2b7e0100": split into pairs.
      for (std::size_t i = 0; i + 1 < token.size(); i += 2) {
        bytes.push_back(static_cast<std::uint8_t>(
            std::stoul(token.substr(i, 2), nullptr, 16)));
      }
    } else {
      bytes.push_back(static_cast<std::uint8_t>(std::stoul(token, nullptr, 16)));
    }
  }
  return bytes;
}

void inspect(const std::vector<std::uint8_t>& wire) {
  std::printf("input: %zu bytes\n", wire.size());
  Message m;
  try {
    m = Message::parse({wire.data(), wire.size()});
  } catch (const WireFormatError& e) {
    std::printf("MALFORMED: %s\n", e.what());
    return;
  }
  std::printf("%s", m.to_string().c_str());
  if (const auto ecs = m.ecs()) {
    std::printf("\nECS option detail:\n");
    std::printf("  family       : %u\n", ecs->family());
    std::printf("  source length: %u\n", ecs->source_prefix_length());
    std::printf("  scope length : %u\n", ecs->scope_prefix_length());
    std::printf("  address bytes: %s\n",
                hex_dump({ecs->address_bytes().data(), ecs->address_bytes().size()})
                    .c_str());
    const auto issues = ecs->validate(m.is_query());
    if (issues.empty()) {
      std::printf("  RFC 7871     : compliant\n");
    } else {
      for (const auto issue : issues) {
        std::printf("  RFC 7871     : VIOLATION - %s\n", to_string(issue).c_str());
      }
    }
    if (const auto prefix = ecs->source_prefix()) {
      if (prefix->is_unroutable()) {
        std::printf("  WARNING      : unroutable prefix; CDNs may map this\n"
                    "                 query to an arbitrary far-away edge\n");
      }
    }
  } else if (m.opt) {
    std::printf("\nEDNS0 present, no ECS option.\n");
  } else {
    std::printf("\nno EDNS0.\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    if (std::string(argv[1]) == "-") {
      inspect(read_hex(std::cin));
    } else {
      std::string hex;
      for (int i = 1; i < argc; ++i) hex += std::string(argv[i]) + " ";
      std::istringstream in(hex);
      inspect(read_hex(in));
    }
    return 0;
  }
  std::printf("no input; demonstrating on a crafted exchange.\n\n");
  std::printf("---- a compliant query ----\n");
  Message q = Message::make_query(0x1d0c, Name::from_string("www.example.com"),
                                  RRType::A);
  q.set_ecs(EcsOption::for_query(Prefix::parse("198.51.100.0/24")));
  inspect(q.serialize());

  std::printf("\n---- a deviant query (scope set, loopback prefix) ----\n");
  Message bad = Message::make_query(0x1d0d, Name::from_string("www.example.com"),
                                    RRType::A);
  EcsOption ecs = EcsOption::for_query(Prefix{IpAddress::parse("127.0.0.1"), 32});
  ecs.set_scope_prefix_length(24);  // queries MUST send scope 0
  bad.set_ecs(ecs);
  inspect(bad.serialize());
  return 0;
}
