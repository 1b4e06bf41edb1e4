// The live authoritative frontend: real UDP sockets feeding
// authoritative::AuthServer::serve_wire.
//
// Socket model (see docs/live_wire.md):
//
//   - one SO_REUSEPORT socket per shard, all bound to the same (addr,
//     port); the kernel hashes flows across them, so shards never contend
//     on a socket;
//   - each shard owns a thread running an epoll readiness loop, draining
//     its socket with recvmmsg batches and answering with sendmmsg;
//   - per shard, one authoritative::DispatchScratch plus caller-owned
//     receive/send buffers, all capacity-retained: the steady-state
//     recv→dispatch→send cycle performs zero heap allocations
//     (tests/test_noalloc_contracts.cpp pins this through MockUdpSocket).
//
// ServerShard is the socket-agnostic cycle — the fault-injection tests
// drive it directly over a MockUdpSocket; UdpServer adds real sockets,
// epoll, and threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "authoritative/server.h"
#include "live/clock.h"
#include "live/sys_socket.h"
#include "netsim/socket.h"
#include "obs/metrics.h"

namespace ecsdns::live {

struct LiveServerConfig {
  netsim::SocketAddress bind{dnscore::IpAddress::v4(127, 0, 0, 1), 0};
  int shards = 1;
  // recvmmsg/sendmmsg batch size per cycle.
  int batch = 32;
  // Per-datagram receive buffer; larger datagrams surface as truncated and
  // are dropped (RFC 6891 default payload size).
  std::size_t recv_buffer_bytes = 4096;
  // Consecutive EAGAIN send retries before the rest of a batch is dropped
  // (a response dropped under backpressure is a normal UDP outcome).
  int max_send_spins = 1024;
};

// One recv→dispatch→send cycle over any UdpSocket. Single-threaded.
class ServerShard {
 public:
  ServerShard(netsim::UdpSocket& socket, authoritative::AuthServer& auth,
              MonotonicClock& clock, const LiveServerConfig& config);

  // Receives up to config.batch datagrams, dispatches each through
  // serve_wire, and flushes the responses. Returns datagrams received
  // (0 on EAGAIN/EINTR — callers poll readiness and call again).
  std::size_t process_once();

 private:
  void flush_sends(std::size_t count);

  netsim::UdpSocket& socket_;
  authoritative::AuthServer& auth_;
  MonotonicClock& clock_;
  LiveServerConfig config_;

  authoritative::DispatchScratch scratch_;
  // Receive-side storage: slot i reads into rx_storage_[i].
  std::vector<std::vector<std::uint8_t>> rx_storage_;
  std::vector<netsim::RecvSlot> recv_slots_;
  // Send-side storage: response i serializes into tx_storage_[i].
  std::vector<std::vector<std::uint8_t>> tx_storage_;
  std::vector<netsim::SendSlot> send_slots_;

  struct Metrics {
    obs::CounterHandle rx_batches;
    obs::CounterHandle rx_packets;
    obs::CounterHandle tx_batches;
    obs::CounterHandle tx_packets;
    obs::CounterHandle drops;           // serve_wire said drop
    obs::CounterHandle truncated;       // datagram exceeded the recv buffer
    obs::CounterHandle eagain;          // recv would block
    obs::CounterHandle eintr;           // recv/send interrupted
    obs::CounterHandle tx_eagain;       // send backpressure retries
    obs::CounterHandle send_drops;      // responses abandoned under backpressure
    obs::CounterHandle socket_errors;
  } metrics_;
};

// N shards over N SO_REUSEPORT sockets, each on its own epoll loop thread.
//
// Serving from more than one shard requires auth.config().log_queries ==
// false (the query log is single-writer); the constructor enforces this.
class UdpServer {
 public:
  UdpServer(LiveServerConfig config, authoritative::AuthServer& auth);
  ~UdpServer();
  UdpServer(const UdpServer&) = delete;
  UdpServer& operator=(const UdpServer&) = delete;

  // Spawns the shard threads. Idempotent.
  void start();
  // Signals every shard via eventfd and joins. Idempotent.
  void stop();

  // The bound address (ephemeral port resolved).
  netsim::SocketAddress address() const { return sockets_.front()->local_address(); }
  std::uint16_t port() const { return address().port; }

 private:
  void run_shard(std::size_t index);

  LiveServerConfig config_;
  authoritative::AuthServer& auth_;
  SteadyClock clock_;
  std::vector<std::unique_ptr<SysUdpSocket>> sockets_;
  std::vector<std::unique_ptr<ServerShard>> shards_;
  std::vector<std::thread> threads_;
  int stop_fd_ = -1;  // eventfd, level-triggered wakeup for every shard
  std::atomic<bool> running_{false};
};

}  // namespace ecsdns::live
