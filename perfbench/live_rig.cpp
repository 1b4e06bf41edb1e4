// The live rig: a real UdpServer (kLiveShards SO_REUSEPORT shards) and one
// pipelined LiveClient on 127.0.0.1, so every query crosses the host
// loopback. Half the queries carry no ECS; the rest carry ECS from 511
// distinct /24s against a ScopeDeltaPolicy.
//
// Output check: every response carries its query's ID and is otherwise
// byte-identical to the expected response of its template, which set-up
// derived and checked field by field (answer, rcode, ECS echo and scope).
#include <cmath>
#include <cstring>

#include "dnscore/message.h"
#include "live_rig.h"

namespace perfbench {

using namespace ecsdns;

namespace {

std::string check_template(const std::vector<std::uint8_t>& query_wire,
                           const std::vector<std::uint8_t>& response_wire) {
  const auto query = dnscore::Message::parse(query_wire);
  const auto response = dnscore::Message::parse(response_wire);
  if (!response.is_response() || response.header.id != query.header.id) {
    return "response does not match the query ID";
  }
  if (response.header.rcode != dnscore::RCode::NOERROR) return "rcode is not NOERROR";
  if (response.first_address() != dnscore::IpAddress::v4(203, 0, 113, 10)) {
    return "wrong A record";
  }
  const auto qecs = query.ecs();
  const auto recs = response.ecs();
  if (!qecs) return recs ? "ECS in the response to a query without ECS" : "";
  if (!recs || recs->family() != qecs->family() ||
      recs->source_prefix_length() != qecs->source_prefix_length() ||
      recs->address_bytes() != qecs->address_bytes()) {
    return "ECS not echoed";
  }
  if (recs->scope_prefix_length() != qecs->source_prefix_length() - kLiveScopeDelta) {
    return "wrong ECS scope";
  }
  return "";
}

}  // namespace

LiveRig::LiveRig(std::uint64_t seed, std::vector<std::string>& problems)
    : auth_(make_live_auth()), queries_(make_live_queries(seed)) {
  authoritative::DispatchScratch scratch;
  const auto sender = dnscore::IpAddress::v4(127, 0, 0, 1);
  for (const auto& wire : queries_.wires) {
    std::vector<std::uint8_t> out;
    if (!auth_->serve_wire(wire, sender, 0, false, scratch, out)) {
      problems.push_back("live rig: the authoritative dropped a template");
    } else if (const auto why = check_template(wire, out); !why.empty()) {
      problems.push_back("live rig: template response: " + why);
    }
    expected_.push_back(std::move(out));
  }
  // Server threads inherit the mask of the thread that starts them: both
  // shards share the first usable CPU (whichever one the client's flow
  // hashes to runs in the same place), and the client takes the last.
  const std::vector<int> cpus = usable_cpus();
  const bool pin = cpus.size() > 1;
  live::LiveServerConfig server_config;
  server_config.shards = kLiveShards;
  server_config.batch = kLiveBatch;
  server_ = std::make_unique<live::UdpServer>(server_config, *auth_);
  {
    const ScopedPin server_cpu(pin ? cpus.front() : -1);
    server_->start();
  }
  client_pin_ = std::make_unique<ScopedPin>(pin ? cpus.back() : -1);
  live::LiveClientConfig client_config;
  client_config.server = server_->address();
  client_config.max_in_flight = kOpenInFlight;
  client_config.batch = kLiveBatch;
  client_ = std::make_unique<live::LiveClient>(client_config);
  done_.reserve(kOpenInFlight);
  wire_.reserve(512);
}

LiveRig::~LiveRig() {
  drain();
  client_.reset();
  server_->stop();
}

bool LiveRig::submit_next() {
  const std::uint64_t seq = next_seq_;
  const auto& tmpl = queries_.wires[queries_.sequence[seq % queries_.sequence.size()]];
  wire_.assign(tmpl.begin(), tmpl.end());
  const auto id = static_cast<std::uint16_t>(seq % 60000 + 1);
  wire_[0] = static_cast<std::uint8_t>(id >> 8);
  wire_[1] = static_cast<std::uint8_t>(id & 0xff);
  if (!client_->submit(wire_, seq + 1)) return false;
  ++next_seq_;
  return true;
}

bool LiveRig::check(const live::Completion& c) {
  if (!c.ok) return false;
  const std::uint64_t seq = c.tag - 1;
  const auto& want = expected_[queries_.sequence[seq % queries_.sequence.size()]];
  const auto id = static_cast<std::uint16_t>(seq % 60000 + 1);
  const auto& got = c.response;
  return got.size() == want.size() && got.size() > 2 &&
         got[0] == static_cast<std::uint8_t>(id >> 8) &&
         got[1] == static_cast<std::uint8_t>(id & 0xff) &&
         std::memcmp(got.data() + 2, want.data() + 2, got.size() - 2) == 0;
}

LiveRig::Tally LiveRig::closed(std::uint64_t count) {
  Tally tally;
  while (tally.ops < count) {
    {
      ScopedSpan span("live.client.submit");
      while (client_->in_flight() < kClosedInFlight && submit_next()) {
      }
    }
    done_.clear();
    {
      ScopedSpan span("live.client.poll");
      client_->poll(done_, /*max_wait_ms=*/100);
    }
    ScopedSpan span("perfbench.check_responses");
    for (auto& c : done_) {
      ++tally.ops;
      if (!check(c)) ++tally.failed;
      client_->pool().release(std::move(c.response));
    }
  }
  return tally;
}

LiveRig::OpenResult LiveRig::open(double seconds, double rate) {
  OpenResult out;
  const std::uint64_t first = next_seq_;
  const double period_ns = 1e9 / rate;
  const auto expected_ops = static_cast<std::size_t>(seconds * rate) + 16;
  out.lag_us.reserve(expected_ops);
  const std::uint64_t t0 = now_ns();
  const auto end = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  auto due_ns = [&](std::uint64_t seq) {
    return t0 + static_cast<std::uint64_t>(static_cast<double>(seq - first) * period_ns);
  };
  const auto windows = static_cast<std::size_t>(std::ceil(seconds / kLatencyWindowS));
  std::vector<std::vector<double>> by_window(windows);
  auto collect = [&] {
    done_.clear();
    client_->poll(done_, 0);
    const std::uint64_t now = now_ns();
    for (auto& c : done_) {
      ++out.tally.ops;
      if (!check(c)) ++out.tally.failed;
      // A failed query counts with its full elapsed time: it missed any
      // latency limit.
      const std::uint64_t due = due_ns(c.tag - 1);
      const double us = static_cast<double>(now - due) / 1e3;
      const auto w = static_cast<std::size_t>(static_cast<double>(due - t0) / 1e9 /
                                              kLatencyWindowS);
      by_window[std::min(w, windows - 1)].push_back(us);
      client_->pool().release(std::move(c.response));
    }
  };
  for (std::uint64_t now = now_ns(); now < end; now = now_ns()) {
    while (due_ns(next_seq_) <= now && client_->in_flight() < kOpenInFlight) {
      const std::uint64_t due = due_ns(next_seq_);
      if (!submit_next()) break;
      out.lag_us.push_back(static_cast<double>(now_ns() - due) / 1e3);
    }
    collect();
  }
  const std::uint64_t drain_end = now_ns() + 3'000'000'000ull;
  while (client_->in_flight() > 0 && now_ns() < drain_end) collect();
  for (auto& w : by_window) {
    if (w.empty()) continue;
    out.window_p50_us.push_back(quantile(w, 0.50));
    out.window_p99_us.push_back(quantile(w, 0.99));
  }
  return out;
}

LiveRig::Tally LiveRig::drain() {
  Tally tally;
  const std::uint64_t end = now_ns() + 3'000'000'000ull;
  while (client_->in_flight() > 0 && now_ns() < end) {
    done_.clear();
    client_->poll(done_, 10);
    for (auto& c : done_) {
      ++tally.ops;
      if (!check(c)) ++tally.failed;
      client_->pool().release(std::move(c.response));
    }
  }
  return tally;
}

}  // namespace perfbench
