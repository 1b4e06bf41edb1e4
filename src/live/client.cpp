#include "live/client.h"

#include <algorithm>

namespace ecsdns::live {

using netsim::IoStatus;
using netsim::RecvSlot;
using netsim::SendSlot;

LiveClient::LiveClient(LiveClientConfig config) : config_(std::move(config)) {
  SysUdpSocket::Options opts;
  opts.bind = netsim::SocketAddress{dnscore::IpAddress::v4(127, 0, 0, 1), 0};
  owned_socket_ = SysUdpSocket::open(opts);
  socket_ = owned_socket_.get();
  clock_ = &owned_clock_;
  init(config_);
}

LiveClient::LiveClient(LiveClientConfig config, netsim::UdpSocket& socket,
                       MonotonicClock& clock)
    : config_(std::move(config)), socket_(&socket), clock_(&clock) {
  init(config_);
}

void LiveClient::init(const LiveClientConfig& config) {
  slots_.resize(static_cast<std::size_t>(std::max(config.max_in_flight, 1)));
  const auto batch = static_cast<std::size_t>(std::max(config.batch, 1));
  rx_storage_.resize(batch);
  recv_slots_.resize(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    rx_storage_[i].resize(config.recv_buffer_bytes);
    recv_slots_[i].buffer = std::span<std::uint8_t>(rx_storage_[i]);
  }
  // One response buffer per in-flight slot, up front: a poll that completes
  // every outstanding query at once still fills pooled buffers, however
  // small the bursts before it were.
  const std::size_t seeded = std::min(slots_.size(), netsim::BufferPool::kMaxPooled);
  for (std::size_t i = 0; i < seeded; ++i) {
    std::vector<std::uint8_t> buf;
    buf.reserve(config.recv_buffer_bytes);
    pool_.release(std::move(buf));
  }
  auto& reg = obs::MetricsRegistry::global();
  metrics_.queries = obs::CounterHandle(reg.counter("live.client.queries"));
  metrics_.responses = obs::CounterHandle(reg.counter("live.client.responses"));
  metrics_.retries = obs::CounterHandle(reg.counter("live.client.retries"));
  metrics_.timeouts = obs::CounterHandle(reg.counter("live.client.timeouts"));
  metrics_.unmatched = obs::CounterHandle(reg.counter("live.client.unmatched"));
  metrics_.send_eagain = obs::CounterHandle(reg.counter("live.client.send_eagain"));
  metrics_.eintr = obs::CounterHandle(reg.counter("live.client.eintr"));
  metrics_.latency_us =
      obs::HistogramHandle(reg.histogram("live.client.latency_us"));
}

bool LiveClient::submit(std::span<const std::uint8_t> query, std::uint64_t tag) {
  if (query.size() < 2) return false;
  if (in_flight_ >= static_cast<int>(slots_.size())) return false;
  Slot* slot = nullptr;
  for (auto& s : slots_) {
    if (!s.in_use) {
      slot = &s;
      break;
    }
  }
  if (slot == nullptr) return false;

  slot->in_use = true;
  slot->id = static_cast<std::uint16_t>((static_cast<std::uint16_t>(query[0]) << 8) |
                                        query[1]);
  slot->attempts = 0;
  slot->tag = tag;
  slot->query.assign(query.begin(), query.end());  // capacity reused
  const std::uint64_t now = clock_->now_us();
  slot->first_sent_us = now;
  slot->deadline_us = now + config_.timeout_us;
  ++in_flight_;
  metrics_.queries.inc();
  transmit(*slot);
  return true;
}

void LiveClient::transmit(Slot& slot) {
  ++slot.attempts;
  const SendSlot out{std::span<const std::uint8_t>(slot.query), config_.server};
  for (;;) {
    std::size_t sent = 0;
    const IoStatus status =
        socket_->send_batch(std::span<const SendSlot>(&out, 1), sent);
    if (status == IoStatus::kInterrupted) {
      metrics_.eintr.inc();
      continue;  // injections are finite; real EINTR storms end
    }
    if (sent == 0 && status != IoStatus::kError) {
      // Socket buffer full: the retransmit timer recovers the query, so
      // treat the lost transmit like network loss instead of blocking.
      metrics_.send_eagain.inc();
    }
    return;
  }
}

LiveClient::Slot* LiveClient::match_id(std::uint16_t id) {
  // Linear scan: max_in_flight is small (tens), and slots are a flat array.
  for (auto& s : slots_) {
    if (s.in_use && s.id == id) return &s;
  }
  return nullptr;
}

std::size_t LiveClient::poll(std::vector<Completion>& out, int max_wait_ms) {
  std::size_t completed = 0;
  std::uint64_t now = clock_->now_us();

  if (max_wait_ms != 0) {
    // Clamp the wait to the earliest retransmit deadline so expiry is not
    // delayed past it.
    std::int64_t wait = max_wait_ms;
    for (const auto& s : slots_) {
      if (!s.in_use) continue;
      const std::int64_t until_ms =
          s.deadline_us > now
              ? static_cast<std::int64_t>((s.deadline_us - now) / 1000) + 1
              : 0;
      wait = std::min(wait, until_ms);
    }
    if (wait > 0) {
      const IoStatus status = socket_->wait_readable(static_cast<int>(wait));
      if (status == IoStatus::kInterrupted) metrics_.eintr.inc();
    }
    now = clock_->now_us();
  }

  // Drain everything readable right now.
  for (;;) {
    std::size_t received = 0;
    const IoStatus status = socket_->recv_batch(recv_slots_, received);
    if (status == IoStatus::kInterrupted) {
      metrics_.eintr.inc();
      continue;
    }
    if (status != IoStatus::kOk || received == 0) break;
    for (std::size_t i = 0; i < received; ++i) {
      const RecvSlot& rx = recv_slots_[i];
      if (rx.truncated || rx.length < 2) {
        metrics_.unmatched.inc();
        continue;
      }
      const auto id = static_cast<std::uint16_t>(
          (static_cast<std::uint16_t>(rx.buffer[0]) << 8) | rx.buffer[1]);
      Slot* slot = match_id(id);
      if (slot == nullptr) {
        // A duplicate (answered retransmit) or stray datagram.
        metrics_.unmatched.inc();
        continue;
      }
      Completion c;
      c.tag = slot->tag;
      c.ok = true;
      c.latency_us = now >= slot->first_sent_us ? now - slot->first_sent_us : 0;
      c.response = pool_.acquire();
      c.response.assign(rx.buffer.begin(),
                        rx.buffer.begin() + static_cast<std::ptrdiff_t>(rx.length));
      metrics_.responses.inc();
      metrics_.latency_us.observe(c.latency_us);
      slot->in_use = false;
      --in_flight_;
      out.push_back(std::move(c));
      ++completed;
    }
    if (received < recv_slots_.size()) break;  // socket drained
  }

  expire(now, out, completed);
  return completed;
}

void LiveClient::expire(std::uint64_t now, std::vector<Completion>& out,
                        std::size_t& completed) {
  for (auto& s : slots_) {
    if (!s.in_use || s.deadline_us > now) continue;
    if (s.attempts < config_.max_attempts) {
      metrics_.retries.inc();
      s.deadline_us = now + config_.timeout_us;
      transmit(s);
      continue;
    }
    Completion c;
    c.tag = s.tag;
    c.ok = false;
    c.latency_us = now >= s.first_sent_us ? now - s.first_sent_us : 0;
    metrics_.timeouts.inc();
    s.in_use = false;
    --in_flight_;
    out.push_back(std::move(c));
    ++completed;
  }
}

std::optional<std::vector<std::uint8_t>> LiveClient::exchange(
    std::span<const std::uint8_t> query) {
  const std::uint64_t tag = next_tag_++;
  if (!submit(query, tag)) return std::nullopt;
  for (;;) {
    exchange_scratch_.clear();
    poll(exchange_scratch_, /*max_wait_ms=*/10);
    for (auto& c : exchange_scratch_) {
      if (c.tag == tag) {
        if (!c.ok) return std::nullopt;
        return std::move(c.response);
      }
      // A completion for some other in-flight query (callers mixing
      // exchange() with submit() drain those via their own poll loop);
      // recycle its buffer.
      pool_.release(std::move(c.response));
    }
  }
}

}  // namespace ecsdns::live
