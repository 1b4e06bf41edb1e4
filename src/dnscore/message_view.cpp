#include "dnscore/message_view.h"

#include <stdexcept>

#include "dnscore/wire_grammar.h"

namespace ecsdns::dnscore {

// The skipping sink of the one wire walk: names are walked and counted,
// rdata and records reduce to nothing, and the view keeps the header, the
// counts, the first question, the OPT fields and the first ECS payload's
// place in the buffer.
struct MessageView::Walker {
  struct Skipped {};
  using Rdata = Skipped;

  ECSDNS_NOALLOC std::size_t name(WireReader& r) const { return Name::skip(r); }
  template <class T, class... Fields>
  Skipped make(const Fields&...) const {
    return {};
  }
  Skipped a(std::span<const std::uint8_t>) const { return {}; }
  Skipped aaaa(std::span<const std::uint8_t>) const { return {}; }
  void txt_string(Skipped&, std::span<const std::uint8_t>) const {}
  Skipped raw(RRType, std::span<const std::uint8_t>) const { return {}; }

  ECSDNS_NOALLOC void counts(const grammar::SectionCounts& c, std::size_t) {
    view.qdcount_ = c.questions;
    view.ancount_ = c.answers;
    view.nscount_ = c.authorities;
    view.arcount_ = c.additional;
  }
  ECSDNS_NOALLOC void question(std::size_t at, std::size_t, RRType qtype,
                               RRClass qclass) {
    if (questions++ != 0) return;
    view.qname_offset_ = at;
    view.qtype_ = qtype;
    view.qclass_ = qclass;
  }
  void answer(Skipped) const {}
  void authority(Skipped) const {}
  void additional(Skipped) const {}
  ECSDNS_NOALLOC std::uint8_t opt(WireReader& r) {
    const auto first_ecs = [this](std::uint16_t code, std::size_t at,
                                  std::uint16_t length) {
      if (view.has_ecs_ ||
          code != static_cast<std::uint16_t>(EdnsOptionCode::ECS)) {
        return;
      }
      view.has_ecs_ = true;
      view.ecs_offset_ = at;
      view.ecs_length_ = length;
    };
    grammar::walk_opt_body(r, view.edns_, first_ecs);
    return view.edns_.extended_rcode;
  }
  ECSDNS_NOALLOC void finish(const Header& header, bool has_opt) {
    view.header_ = header;
    view.has_opt_ = has_opt;
  }

  MessageView& view;
  std::size_t questions = 0;
};

MessageView::MessageView(std::span<const std::uint8_t> wire) : wire_(wire) {
  WireReader r(wire);
  Walker walker{*this};
  grammar::walk_message(r, walker);
}

Name MessageView::qname() const {
  if (qdcount_ == 0) throw std::logic_error("message has no question");
  WireReader r(wire_);
  r.seek(qname_offset_);
  return Name::parse(r);
}

std::span<const std::uint8_t> MessageView::ecs_payload() const noexcept {
  if (!has_ecs_) return {};
  return wire_.subspan(ecs_offset_, ecs_length_);
}

std::optional<EcsOption> MessageView::ecs() const {
  if (!has_ecs_) return std::nullopt;
  return EcsOption::parse_payload(ecs_payload());
}

}  // namespace ecsdns::dnscore
