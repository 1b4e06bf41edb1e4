// Shared fuzzing oracles.
//
// Each check_* function is the whole body of one fuzz target AND the replay
// logic behind tests/test_fuzz_regressions.cpp, so a corpus crasher and its
// regression test exercise byte-identical code. The contract is uniform:
//
//   * rejecting the input with the parser's documented exception type is a
//     normal outcome and returns quietly;
//   * anything else the oracle cannot prove — a round-trip mismatch, an
//     undocumented exception escaping, a serializer throwing on a value its
//     own parser accepted — fails an ECSDNS_CHECK, which aborts. libFuzzer,
//     the standalone replay driver, and gtest all surface that abort.
//
// The message oracle is differential, not a crash detector: parse →
// serialize → re-parse must be a fixed point both with and without name
// compression, and the in-place parse_into must agree with parse() from
// any starting state.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "authoritative/ecs_policy.h"
#include "authoritative/server.h"
#include "authoritative/zone_text.h"
#include "dnscore/contracts.h"
#include "dnscore/ecs.h"
#include "dnscore/edns.h"
#include "dnscore/message.h"
#include "dnscore/message_view.h"
#include "dnscore/name.h"
#include "dnscore/record.h"
#include "dnscore/wire.h"

namespace ecsdns::fuzz {

inline bool same_message(const dnscore::Message& a, const dnscore::Message& b) {
  return a.header == b.header && a.questions == b.questions &&
         a.answers == b.answers && a.authorities == b.authorities &&
         a.additional == b.additional && a.opt == b.opt;
}

// A message with every section, heap-backed rdata and two OPT options
// filled: the dirtiest state a retained message can carry into parse_into.
inline dnscore::Message dirty_message() {
  using namespace dnscore;
  const Name owner = Name::from_string("a-long-owner-name-that-spills-to-the-heap.dirty.example");
  Message m = Message::make_query(0xbeef, owner, RRType::TXT);
  m.header.qr = m.header.aa = m.header.tc = m.header.ad = m.header.cd = true;
  m.header.rcode = RCode::BADVERS;
  m.questions.push_back(Question{Name::from_string("second.example"), RRType::AAAA});
  m.answers.push_back(ResourceRecord::make_txt(owner, 7, std::string(300, 't')));
  m.answers.push_back(ResourceRecord::make_cname(owner, 7, Name::from_string("c.example")));
  m.authorities.push_back(ResourceRecord::make_soa(
      Name::from_string("example"), 9, Name::from_string("ns.example"),
      Name::from_string("host.example"), 1, 60));
  m.additional.push_back(ResourceRecord{owner, static_cast<RRType>(10), RRClass::IN, 3,
                                        RawRdata{10, std::vector<std::uint8_t>(40, 1)}});
  m.set_ecs(EcsOption::for_response(Prefix(IpAddress::parse("2001:db8::"), 48), 40));
  m.opt->add_option(EdnsOption{10, std::vector<std::uint8_t>(24, 2)});
  m.opt->udp_payload_size = 1232;
  m.opt->extended_rcode = 1;
  m.opt->version = 1;
  m.opt->dnssec_ok = true;
  return m;
}

// parse_into ⇄ parse differential: decoding into `target`, whatever it held
// before, must throw exactly when parse() throws and otherwise produce the
// message parse() produces.
inline void check_parse_into(std::span<const std::uint8_t> wire,
                             const std::optional<dnscore::Message>& expected,
                             dnscore::Message& target) {
  bool threw = false;
  try {
    dnscore::Message::parse_into(wire, target);
  } catch (const dnscore::WireFormatError&) {
    threw = true;
  }
  ECSDNS_CHECK(threw == !expected.has_value());
  if (expected) ECSDNS_CHECK(same_message(target, *expected));
}

// Message::parse round-trip oracle. Any message the parser accepts must
// serialize without throwing, re-parse, and normalize to the same bytes —
// under both wire layouts. parse_into must agree with it from two dirty
// starting states: whatever the previous input left behind, and
// dirty_message().
inline void check_message(const std::uint8_t* data, std::size_t size) {
  using dnscore::Message;
  std::optional<Message> parsed;
  try {
    parsed = Message::parse({data, size});
  } catch (const dnscore::WireFormatError&) {
  }
  thread_local Message previous;
  check_parse_into({data, size}, parsed, previous);
  Message dirty = dirty_message();
  check_parse_into({data, size}, parsed, dirty);
  if (!parsed) return;  // malformed input rejected: the expected outcome
  const Message& first = *parsed;
  const auto canon = first.serialize(false);
  for (const bool compress : {false, true}) {
    const auto wire = first.serialize(compress);
    Message again;
    try {
      again = Message::parse({wire.data(), wire.size()});
    } catch (const dnscore::WireFormatError&) {
      ECSDNS_CHECK(!"serialized message must re-parse");
    }
    ECSDNS_CHECK(again.header == first.header);
    ECSDNS_CHECK(again.questions == first.questions);
    ECSDNS_CHECK(again.answers == first.answers);
    ECSDNS_CHECK(again.authorities == first.authorities);
    ECSDNS_CHECK(again.additional == first.additional);
    ECSDNS_CHECK(again.opt == first.opt);
    if (!compress) {
      // Byte-exact fixed point. Only claimed for the uncompressed layout:
      // the compression table matches suffixes case-insensitively (as RFC
      // 1035 §2.3.3 allows), so a compressed round trip may legally rewrite
      // label case; the field comparisons above cover that path.
      ECSDNS_CHECK(again.serialize(false) == canon);
    }
  }
  (void)first.to_string();  // rendering must not crash either
}

// MessageView ⇄ Message::parse differential oracle. Both readers run the one
// wire walk (dnscore/wire_grammar.h), so any divergence in acceptance or in
// a shared header/question/EDNS/ECS field is a bug.
inline void check_message_view(const std::uint8_t* data, std::size_t size) {
  using dnscore::Message;
  using dnscore::MessageView;
  std::optional<Message> full;
  try {
    full = Message::parse({data, size});
  } catch (const dnscore::WireFormatError&) {
  }
  std::optional<MessageView> view;
  try {
    view.emplace(std::span<const std::uint8_t>{data, size});
  } catch (const dnscore::WireFormatError&) {
  }
  ECSDNS_CHECK(full.has_value() == view.has_value());
  if (!full) return;

  ECSDNS_CHECK(view->id() == full->header.id);
  ECSDNS_CHECK(view->qr() == full->header.qr);
  ECSDNS_CHECK(view->opcode() == full->header.opcode);
  ECSDNS_CHECK(view->aa() == full->header.aa);
  ECSDNS_CHECK(view->tc() == full->header.tc);
  ECSDNS_CHECK(view->rd() == full->header.rd);
  ECSDNS_CHECK(view->ra() == full->header.ra);
  ECSDNS_CHECK(view->ad() == full->header.ad);
  ECSDNS_CHECK(view->cd() == full->header.cd);
  ECSDNS_CHECK(view->rcode() == full->header.rcode);

  ECSDNS_CHECK(view->question_count() == full->questions.size());
  ECSDNS_CHECK(view->answer_count() == full->answers.size());
  ECSDNS_CHECK(view->authority_count() == full->authorities.size());
  // The view reports the raw ARCOUNT; Message lifts OPT out of additional.
  ECSDNS_CHECK(view->additional_count() ==
               full->additional.size() + (full->opt ? 1u : 0u));
  if (!full->questions.empty()) {
    const auto& q = full->questions.front();
    ECSDNS_CHECK(view->qname() == q.qname);
    ECSDNS_CHECK(view->qtype() == q.qtype);
    ECSDNS_CHECK(view->qclass() == q.qclass);
  }

  ECSDNS_CHECK(view->has_opt() == full->opt.has_value());
  if (full->opt) {
    ECSDNS_CHECK(view->udp_payload_size() == full->opt->udp_payload_size);
    ECSDNS_CHECK(view->edns_version() == full->opt->version);
    ECSDNS_CHECK(view->dnssec_ok() == full->opt->dnssec_ok);
    ECSDNS_CHECK(view->extended_rcode() == full->opt->extended_rcode);
  }

  ECSDNS_CHECK(view->has_ecs() == full->has_ecs());
  if (view->has_ecs()) {
    const auto raw = full->opt->find_option(dnscore::EdnsOptionCode::ECS);
    ECSDNS_CHECK(raw.has_value());
    ECSDNS_CHECK(std::ranges::equal(view->ecs_payload(), *raw));
  }
  // ecs() must decode-or-throw identically to Message::ecs() — a present
  // but structurally short payload throws on both sides.
  std::optional<dnscore::EcsOption> full_ecs, view_ecs;
  bool full_threw = false, view_threw = false;
  try {
    full_ecs = full->ecs();
  } catch (const dnscore::WireFormatError&) {
    full_threw = true;
  }
  try {
    view_ecs = view->ecs();
  } catch (const dnscore::WireFormatError&) {
    view_threw = true;
  }
  ECSDNS_CHECK(full_threw == view_threw);
  ECSDNS_CHECK(full_ecs == view_ecs);
}

// The authoritative a serve_wire oracle drives: one zone with an answer, a
// CNAME, a delegation and an SOA for negative answers, under a scope-delta
// ECS policy. Its scratch is kept across inputs, as a live shard keeps its
// own across packets, and `ecs_query` (answered with an ECS echo) dirties
// it before each input.
struct ServeWireRig {
  static authoritative::AuthConfig unlogged() {
    authoritative::AuthConfig config;
    config.log_queries = false;
    return config;
  }

  authoritative::AuthServer server{unlogged(),
                                   std::make_unique<authoritative::ScopeDeltaPolicy>(4)};
  authoritative::DispatchScratch scratch;
  std::vector<std::uint8_t> ecs_query;

  ServeWireRig() {
    using namespace dnscore;
    Message q = Message::make_query(0x5555, Name::from_string("www.example.com"), RRType::A);
    q.set_ecs(EcsOption::for_query(Prefix::parse("203.0.113.0/24")));
    ecs_query = q.serialize();
    const Name apex = Name::from_string("example.com");
    auto& zone = server.add_zone(apex);
    zone.add(ResourceRecord::make_soa(apex, 3600, Name::from_string("ns1.example.com"),
                                      Name::from_string("hostmaster.example.com"), 1,
                                      300));
    zone.add(ResourceRecord::make_a(Name::from_string("www.example.com"), 60,
                                    IpAddress::parse("192.0.2.1")));
    zone.add(ResourceRecord::make_cname(Name::from_string("alias.example.com"), 60,
                                        Name::from_string("www.example.com")));
    const Name child = Name::from_string("sub.example.com");
    const Name child_ns = Name::from_string("ns1.sub.example.com");
    zone.delegate(child, {ResourceRecord::make_ns(child, 3600, child_ns)},
                  {ResourceRecord::make_a(child_ns, 3600, IpAddress::parse("192.0.2.53"))});
  }
};

// AuthServer::serve_wire oracle, the authoritative's one way in for a wire
// packet: it must accept exactly what Message::parse accepts, answer with
// a reply that parses, has QR set and carries the query's ID, and give the
// same bytes from the retained scratch (dirtied by the previous input and
// by an ECS answer) as from a fresh one: no state leaks between packets.
inline void check_serve_wire(const std::uint8_t* data, std::size_t size) {
  using dnscore::Message;
  static ServeWireRig rig;
  const std::span<const std::uint8_t> wire{data, size};
  const dnscore::IpAddress sender = dnscore::IpAddress::parse("198.51.100.7");
  std::optional<Message> query;
  try {
    query = Message::parse(wire);
  } catch (const dnscore::WireFormatError&) {
  }
  std::vector<std::uint8_t> out;
  ECSDNS_CHECK(rig.server.serve_wire(rig.ecs_query, sender, 0, false, rig.scratch, out));
  const bool served = rig.server.serve_wire(wire, sender, 0, false, rig.scratch, out);
  ECSDNS_CHECK(served == query.has_value());
  if (!served) return;

  Message reply;
  try {
    reply = Message::parse({out.data(), out.size()});
  } catch (const dnscore::WireFormatError&) {
    ECSDNS_CHECK(!"serve_wire reply must parse");
  }
  ECSDNS_CHECK(reply.header.qr);
  ECSDNS_CHECK(reply.header.id == query->header.id);

  authoritative::DispatchScratch fresh;
  std::vector<std::uint8_t> fresh_out;
  ECSDNS_CHECK(rig.server.serve_wire(wire, sender, 0, false, fresh, fresh_out));
  ECSDNS_CHECK(fresh_out == out);
}

// Name wire-decompression oracle: an accepted name fits RFC 1035 bounds,
// survives an uncompressed wire round trip, and its presentation form
// parses back to the identical name (escape-aware).
inline void check_name(const std::uint8_t* data, std::size_t size) {
  using dnscore::Name;
  dnscore::WireReader r({data, size});
  Name n;
  try {
    n = Name::parse(r);
  } catch (const dnscore::WireFormatError&) {
    return;
  }
  dnscore::WireWriter w;
  n.serialize(w);
  ECSDNS_CHECK(w.size() == n.wire_length());
  ECSDNS_CHECK(w.size() <= 255);
  dnscore::WireReader r2({w.data().data(), w.data().size()});
  Name back;
  try {
    back = Name::parse(r2);
  } catch (const dnscore::WireFormatError&) {
    ECSDNS_CHECK(!"reserialized name must re-parse");
  }
  ECSDNS_CHECK(back == n);
  ECSDNS_CHECK(r2.at_end());
  Name from_text;
  try {
    from_text = Name::from_string(n.to_string());
  } catch (const dnscore::WireFormatError&) {
    ECSDNS_CHECK(!"to_string() output must parse via from_string()");
  }
  ECSDNS_CHECK(from_text == n);
}

// EDNS/ECS oracle, two interpretations of the same bytes:
//  (a) as an ECS option payload — encode(decode(x)) must be the identity on
//      everything from_edns accepts, including the non-compliant options
//      the library deliberately represents (validate() classifies them).
//      from_edns accepts an ADDRESS of at most EcsOption::kMaxAddressOctets
//      (32, the longest any source prefix length calls for); a longer one
//      is rejected as unparseable;
//  (b) as a full OPT RR body — parse_body → serialize → parse_body must be
//      a fixed point.
inline void check_edns_ecs(const std::uint8_t* data, std::size_t size) {
  using namespace dnscore;
  EdnsOption raw;
  raw.code = static_cast<std::uint16_t>(EdnsOptionCode::ECS);
  raw.payload.assign(data, data + size);
  try {
    const EcsOption ecs = EcsOption::from_edns(raw);
    const EcsOption back = EcsOption::from_edns(ecs.to_edns());
    ECSDNS_CHECK(back == ecs);
    (void)ecs.validate(/*in_query=*/true);
    (void)ecs.validate(/*in_query=*/false);
    (void)ecs.source_prefix();
    (void)ecs.scope_prefix();
    (void)ecs.to_string();
  } catch (const WireFormatError&) {
  }

  WireReader r({data, size});
  try {
    const OptRecord opt = OptRecord::parse_body(r);
    WireWriter w;
    opt.serialize(w);
    WireReader r2({w.data().data(), w.data().size()});
    r2.skip(3);  // root owner + TYPE emitted by serialize()
    const OptRecord again = OptRecord::parse_body(r2);
    ECSDNS_CHECK(again == opt);
    ECSDNS_CHECK(r2.at_end());
  } catch (const WireFormatError&) {
  }
}

// Zone-text oracle: the only documented rejection is std::invalid_argument
// (with a line number), and every record the parser hands back must
// serialize to wire and round-trip through ResourceRecord::parse.
inline void check_zone_text(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  std::vector<dnscore::ResourceRecord> records;
  try {
    records = authoritative::parse_zone_text(
        dnscore::Name::from_string("fuzz.example"), text);
  } catch (const std::invalid_argument&) {
    return;
  }
  dnscore::WireWriter w;
  for (const auto& rr : records) rr.serialize(w);
  dnscore::WireReader r({w.data().data(), w.data().size()});
  for (const auto& rr : records) {
    const auto back = dnscore::ResourceRecord::parse(r);
    ECSDNS_CHECK(back == rr);
  }
  ECSDNS_CHECK(r.at_end());
}

}  // namespace ecsdns::fuzz
