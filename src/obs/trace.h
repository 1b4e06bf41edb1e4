// A bounded ring-buffer event tracer for resolution chains.
//
// The simulated topologies route one client query through forwarders,
// hidden resolvers, egress resolvers, and authoritative servers (§5's
// discovery machinery); when an experiment misbehaves, the question is
// always "what did hop N actually send". The tracer records virtual-time
// stamped hop events into a fixed ring — oldest events are overwritten, so
// memory stays bounded no matter how long a fleet runs — and serializes to
// JSON for the --trace-out bench flag. Tracing is opt-in: when disabled
// (the default) record() is a single predicted branch.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "dnscore/ip.h"

namespace ecsdns::obs {

class JsonWriter;

enum class TraceKind : std::uint8_t {
  kClientQuery,     // a stub/forwarded query arrived at a resolver
  kCacheHit,        // answered from the ECS-aware cache
  kNegativeHit,     // answered from the RFC 2308 negative cache
  kUpstreamQuery,   // resolver -> authoritative query sent
  kDatagram,        // one network round trip (any hop)
  kTimeout,         // a round trip that ended in a drop/timeout
  kClientResponse,  // response handed back toward the client
  kNote,            // free-form annotation
};

const char* to_string(TraceKind kind);

struct TraceEvent {
  std::int64_t time = 0;  // virtual microseconds (netsim::SimTime)
  TraceKind kind = TraceKind::kNote;
  dnscore::IpAddress src;
  dnscore::IpAddress dst;
  std::uint32_t bytes = 0;   // payload size where meaningful
  std::string note;          // qname or detail; empty when irrelevant
};

class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity = 8192);

  bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  std::size_t capacity() const noexcept { return capacity_; }

  // Appends an event, overwriting the oldest once full. No-op while
  // disabled, so call sites can record unconditionally — but sites that
  // build a note string should check enabled() first to skip the
  // formatting work.
  void record(TraceEvent event);

  // Events oldest-first; at most capacity() of the recorded() total.
  std::vector<TraceEvent> events() const;
  std::uint64_t recorded() const noexcept { return recorded_; }
  // How many events fell off the ring.
  std::uint64_t overwritten() const noexcept {
    return recorded_ <= capacity_ ? 0 : recorded_ - capacity_;
  }
  void clear();

  void write_json(JsonWriter& w) const;

  static TraceRing& global();

 private:
  bool enabled_ = false;
  std::size_t capacity_;
  std::size_t next_ = 0;        // ring slot for the next event
  std::uint64_t recorded_ = 0;  // lifetime total
  std::vector<TraceEvent> ring_;
  mutable std::mutex mu_;
};

}  // namespace ecsdns::obs
