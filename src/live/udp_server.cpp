#include "live/udp_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "netsim/sharded_runner.h"

namespace ecsdns::live {

using netsim::IoStatus;
using netsim::RecvSlot;
using netsim::SendSlot;

ServerShard::ServerShard(netsim::UdpSocket& socket,
                         authoritative::AuthServer& auth,
                         MonotonicClock& clock, const LiveServerConfig& config)
    : socket_(socket), auth_(auth), clock_(clock), config_(config) {
  const auto batch = static_cast<std::size_t>(config_.batch < 1 ? 1 : config_.batch);
  rx_storage_.resize(batch);
  recv_slots_.resize(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    rx_storage_[i].resize(config_.recv_buffer_bytes);
    recv_slots_[i].buffer = std::span<std::uint8_t>(rx_storage_[i]);
  }
  tx_storage_.resize(batch);
  send_slots_.resize(batch);

  auto& reg = obs::MetricsRegistry::global();
  metrics_.rx_batches = obs::CounterHandle(reg.counter("live.rx_batches"));
  metrics_.rx_packets = obs::CounterHandle(reg.counter("live.rx_packets"));
  metrics_.tx_batches = obs::CounterHandle(reg.counter("live.tx_batches"));
  metrics_.tx_packets = obs::CounterHandle(reg.counter("live.tx_packets"));
  metrics_.drops = obs::CounterHandle(reg.counter("live.drops"));
  metrics_.truncated = obs::CounterHandle(reg.counter("live.truncated"));
  metrics_.eagain = obs::CounterHandle(reg.counter("live.eagain"));
  metrics_.eintr = obs::CounterHandle(reg.counter("live.eintr"));
  metrics_.tx_eagain = obs::CounterHandle(reg.counter("live.tx_eagain"));
  metrics_.send_drops = obs::CounterHandle(reg.counter("live.send_drops"));
  metrics_.socket_errors = obs::CounterHandle(reg.counter("live.socket_errors"));
}

std::size_t ServerShard::process_once() {
  std::size_t received = 0;
  switch (socket_.recv_batch(recv_slots_, received)) {
    case IoStatus::kOk:
      break;
    case IoStatus::kWouldBlock:
      metrics_.eagain.inc();
      return 0;
    case IoStatus::kInterrupted:
      metrics_.eintr.inc();
      return 0;
    case IoStatus::kError:
      metrics_.socket_errors.inc();
      return 0;
  }
  if (received == 0) return 0;
  metrics_.rx_batches.inc();
  metrics_.rx_packets.inc(received);

  const auto now = static_cast<netsim::SimTime>(clock_.now_us());
  std::size_t queued = 0;
  for (std::size_t i = 0; i < received; ++i) {
    const RecvSlot& slot = recv_slots_[i];
    if (slot.truncated) {
      // An oversized datagram arrived mangled; nothing sensible to answer.
      metrics_.truncated.inc();
      continue;
    }
    auto& tx = tx_storage_[queued];
    if (!auth_.serve_wire(slot.buffer.subspan(0, slot.length), slot.peer.ip,
                          now, /*via_tcp=*/false, scratch_, tx)) {
      metrics_.drops.inc();
      continue;
    }
    send_slots_[queued] = SendSlot{std::span<const std::uint8_t>(tx), slot.peer};
    ++queued;
  }
  flush_sends(queued);
  return received;
}

void ServerShard::flush_sends(std::size_t count) {
  if (count == 0) return;
  metrics_.tx_batches.inc();
  std::size_t offset = 0;
  int spins = 0;
  while (offset < count) {
    std::size_t sent = 0;
    const IoStatus status = socket_.send_batch(
        std::span<const SendSlot>(send_slots_.data() + offset, count - offset),
        sent);
    if (sent > 0) {
      metrics_.tx_packets.inc(sent);
      offset += sent;
      spins = 0;
      continue;
    }
    if (status == IoStatus::kInterrupted) {
      metrics_.eintr.inc();
      continue;
    }
    if (status == IoStatus::kError) {
      metrics_.socket_errors.inc();
      metrics_.send_drops.inc(count - offset);
      return;
    }
    // kWouldBlock (or a zero-progress kOk): socket buffer full. Spin a
    // bounded number of times, then shed the rest of the batch — dropping a
    // UDP response under backpressure is a normal outcome, wedging the
    // receive loop is not.
    metrics_.tx_eagain.inc();
    if (++spins >= config_.max_send_spins) {
      metrics_.send_drops.inc(count - offset);
      return;
    }
  }
}

UdpServer::UdpServer(LiveServerConfig config, authoritative::AuthServer& auth)
    : config_(std::move(config)), auth_(auth) {
  if (config_.shards < 1) config_.shards = 1;
  if (config_.shards > 1 && auth_.config().log_queries) {
    throw std::invalid_argument(
        "UdpServer: multi-shard serving requires log_queries=false "
        "(the query log is single-writer)");
  }
  SysUdpSocket::Options opts;
  opts.bind = config_.bind;
  opts.reuse_port = config_.shards > 1;
  sockets_.push_back(SysUdpSocket::open(opts));
  // Later shards bind the resolved (possibly ephemeral) port of the first.
  opts.bind = sockets_.front()->local_address();
  for (int i = 1; i < config_.shards; ++i) {
    sockets_.push_back(SysUdpSocket::open(opts));
  }
  shards_.reserve(sockets_.size());
  for (auto& socket : sockets_) {
    shards_.push_back(
        std::make_unique<ServerShard>(*socket, auth_, clock_, config_));
  }
  stop_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (stop_fd_ < 0) {
    throw std::system_error(errno, std::generic_category(), "eventfd");
  }
}

UdpServer::~UdpServer() {
  stop();
  if (stop_fd_ >= 0) ::close(stop_fd_);
}

void UdpServer::start() {
  if (running_.exchange(true)) return;
  threads_.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    threads_.emplace_back([this, i] { run_shard(i); });
  }
}

void UdpServer::stop() {
  running_.store(false);
  if (stop_fd_ >= 0) {
    // The counter is written once and never read back, so the eventfd stays
    // level-readable and every shard's epoll wakes, now and on re-poll.
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(stop_fd_, &one, sizeof(one));
  }
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
}

void UdpServer::run_shard(std::size_t index) {
  char name[16];
  std::snprintf(name, sizeof(name), "live-epoll-%zu", index);
  netsim::set_current_thread_name(name);
  ServerShard& shard = *shards_[index];
  const int sock_fd = sockets_[index]->native_handle();
  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  if (ep < 0) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = sock_fd;
  if (::epoll_ctl(ep, EPOLL_CTL_ADD, sock_fd, &ev) != 0) {
    ::close(ep);
    return;
  }
  ev.data.fd = stop_fd_;
  if (::epoll_ctl(ep, EPOLL_CTL_ADD, stop_fd_, &ev) != 0) {
    ::close(ep);
    return;
  }
  epoll_event events[2];
  while (running_.load(std::memory_order_relaxed)) {
    const int n = ::epoll_wait(ep, events, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (!running_.load(std::memory_order_relaxed)) break;
    // Drain the socket until it reports EAGAIN (level-triggered epoll will
    // re-arm if more arrives), re-checking the stop flag between batches so
    // a saturating sender cannot starve shutdown.
    while (running_.load(std::memory_order_relaxed) && shard.process_once() > 0) {
    }
  }
  ::close(ep);
}

}  // namespace ecsdns::live
