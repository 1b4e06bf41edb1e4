#include "obs/trace.h"

#include "obs/json.h"

namespace ecsdns::obs {

const char* to_string(TraceKind kind) {
  switch (kind) {
    case TraceKind::kClientQuery: return "client_query";
    case TraceKind::kCacheHit: return "cache_hit";
    case TraceKind::kNegativeHit: return "negative_hit";
    case TraceKind::kUpstreamQuery: return "upstream_query";
    case TraceKind::kDatagram: return "datagram";
    case TraceKind::kTimeout: return "timeout";
    case TraceKind::kClientResponse: return "client_response";
    case TraceKind::kNote: return "note";
  }
  return "unknown";
}

TraceRing::TraceRing(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

void TraceRing::record(TraceEvent event) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[next_] = std::move(event);
  }
  next_ = (next_ + 1) % capacity_;
  ++recorded_;
}

std::vector<TraceEvent> TraceRing::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    // Ring not yet wrapped: slots [0, size) are already oldest-first.
    out.assign(ring_.begin(), ring_.end());
  } else {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

void TraceRing::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
}

void TraceRing::write_json(JsonWriter& w) const {
  const auto snapshot = events();
  w.begin_object();
  w.key("schema").value("ecsdns.trace.v1");
  w.key("recorded").value(recorded());
  w.key("overwritten").value(overwritten());
  w.key("events").begin_array();
  for (const auto& e : snapshot) {
    w.begin_object();
    w.key("t_us").value(static_cast<std::int64_t>(e.time));
    w.key("kind").value(to_string(e.kind));
    w.key("src").value(e.src.to_string());
    w.key("dst").value(e.dst.to_string());
    if (e.bytes != 0) w.key("bytes").value(static_cast<std::uint64_t>(e.bytes));
    if (!e.note.empty()) w.key("note").value(e.note);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

TraceRing& TraceRing::global() {
  static TraceRing ring;
  return ring;
}

}  // namespace ecsdns::obs
