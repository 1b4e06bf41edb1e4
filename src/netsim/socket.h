// The UDP socket seam between the deterministic core and the live wire.
//
// UdpSocket is the batch-oriented datagram interface src/live's server
// shards and client drive. Two implementations exist:
//
//   - live::SysUdpSocket — a real nonblocking socket (recvmmsg/sendmmsg,
//     SO_REUSEPORT), outside the determinism boundary;
//   - netsim::MockUdpSocket (below) — a fully scripted in-memory socket for
//     deterministic fault-injection tests: EINTR/EAGAIN storms, truncated
//     (oversized) datagrams, bounded send budgets, and silent drops.
//
// The interface is deliberately allocation-free in steady state: callers
// own the receive buffers (RecvSlot spans) and the mock reuses bounded
// rings, so the noalloc contract tests can drive a recv→dispatch→send loop
// through it without the harness itself allocating.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "dnscore/ip.h"

namespace ecsdns::netsim {

using dnscore::IpAddress;

struct SocketAddress {
  IpAddress ip;
  std::uint16_t port = 0;

  bool operator==(const SocketAddress&) const = default;
};

// Result of one batch I/O attempt, mirroring the errno classes the live
// loop must handle distinctly.
enum class IoStatus {
  kOk,           // count slots transferred (count may be 0 for waits)
  kWouldBlock,   // EAGAIN/EWOULDBLOCK: nothing ready
  kInterrupted,  // EINTR: retry
  kError,        // unrecoverable socket error
};

// One receive descriptor: the caller provides `buffer`, the socket fills
// `length`, `peer`, and `truncated` (datagram exceeded the buffer; the
// kernel's MSG_TRUNC equivalent).
struct RecvSlot {
  std::span<std::uint8_t> buffer;
  std::size_t length = 0;
  SocketAddress peer;
  bool truncated = false;
};

// One send descriptor: payload bytes and destination.
struct SendSlot {
  std::span<const std::uint8_t> payload;
  SocketAddress peer;
};

class UdpSocket {
 public:
  virtual ~UdpSocket() = default;

  // Receives up to slots.size() datagrams without blocking. On kOk,
  // `received` is how many leading slots were filled (>= 1).
  virtual IoStatus recv_batch(std::span<RecvSlot> slots, std::size_t& received) = 0;
  // Sends a batch; on kOk (or kWouldBlock after partial progress) `sent` is
  // how many leading slots went out.
  virtual IoStatus send_batch(std::span<const SendSlot> slots, std::size_t& sent) = 0;
  // Blocks until readable, `timeout_ms` elapses (kWouldBlock), or a signal
  // lands (kInterrupted). timeout_ms < 0 waits indefinitely.
  virtual IoStatus wait_readable(int timeout_ms) = 0;

  virtual SocketAddress local_address() const = 0;
  // The underlying fd for readiness multiplexing; -1 for mocks.
  virtual int native_handle() const { return -1; }
};

// Deterministic scripted socket. Not thread-safe (tests drive it from one
// thread). Inbound datagrams are queued with push_rx(); outbound traffic is
// recorded and optionally forwarded through on_send (loopback pairing).
class MockUdpSocket final : public UdpSocket {
 public:
  explicit MockUdpSocket(SocketAddress local = {})
      : local_(local) {}

  // --- scripting ---
  // Queues an inbound datagram from `peer`.
  void push_rx(std::span<const std::uint8_t> bytes, const SocketAddress& peer);
  // The next `n` recv/wait calls fail with kInterrupted (an EINTR storm).
  void inject_recv_interrupts(int n) { recv_interrupts_ += n; }
  // The next `n` recv/wait calls report kWouldBlock even if data is queued
  // (a spurious-wakeup / EAGAIN storm).
  void inject_recv_eagain(int n) { recv_eagain_ += n; }
  // The next `n` send calls fail with kInterrupted before any progress.
  void inject_send_interrupts(int n) { send_interrupts_ += n; }
  // Caps how many datagrams each send_batch accepts before kWouldBlock
  // (models a full socket buffer forcing partial sends). -1 = unlimited.
  void set_send_budget(int per_batch) { send_budget_ = per_batch; }
  // Accept sends but discard them (models loss after the syscall).
  void set_drop_sends(bool drop) { drop_sends_ = drop; }
  // Delivery hook for loopback pairing: invoked for every accepted (and
  // not dropped) send.
  std::function<void(const SendSlot&)> on_send;

  // --- inspection ---
  std::uint64_t sent_count() const noexcept { return sent_count_; }
  // Copies of the accepted outbound datagrams, oldest first. Recording can
  // be disabled for noalloc loops.
  const std::deque<std::vector<std::uint8_t>>& sent() const noexcept { return sent_; }
  void set_record_sends(bool record) { record_sends_ = record; }

  // --- UdpSocket ---
  IoStatus recv_batch(std::span<RecvSlot> slots, std::size_t& received) override;
  IoStatus send_batch(std::span<const SendSlot> slots, std::size_t& sent) override;
  IoStatus wait_readable(int timeout_ms) override;
  SocketAddress local_address() const override { return local_; }

 private:
  struct RxItem {
    std::vector<std::uint8_t> bytes;
    SocketAddress peer;
  };

  SocketAddress local_;
  // Bounded ring with assign-reuse semantics: slots keep their byte-vector
  // capacity across reuse so steady-state push/recv cycles do not allocate.
  std::vector<RxItem> ring_;
  std::size_t rx_head_ = 0;
  std::size_t rx_size_ = 0;
  int recv_interrupts_ = 0;
  int recv_eagain_ = 0;
  int send_interrupts_ = 0;
  int send_budget_ = -1;
  bool drop_sends_ = false;
  bool record_sends_ = true;
  std::uint64_t sent_count_ = 0;
  std::deque<std::vector<std::uint8_t>> sent_;
};

}  // namespace ecsdns::netsim
