// The simulated network: nodes addressed by IP, placed on the globe,
// exchanging datagrams with geo-derived latency.
//
// Transport model: synchronous RPC over virtual time. `round_trip` advances
// the virtual clock by the one-way delay, invokes the destination service
// (which may itself issue nested round_trips — that is how a client →
// forwarder → hidden resolver → egress resolver → authoritative chain
// accumulates realistic latency), advances the clock by the return delay,
// and hands back the response. The payloads are real RFC-compliant DNS
// packets produced by dnscore; nothing in the packet path knows it is
// running on a simulator.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "dnscore/ip.h"
#include "netsim/buffer_pool.h"
#include "netsim/event_loop.h"
#include "netsim/geo.h"
#include "obs/metrics.h"

namespace ecsdns::netsim {

using dnscore::IpAddress;
using dnscore::IpAddressHash;

struct Datagram {
  IpAddress src;
  IpAddress dst;
  // A view of the sender's wire buffer — delivery copies nothing. Valid
  // only for the duration of the synchronous service call; a service that
  // needs the bytes afterwards must copy them.
  std::span<const std::uint8_t> payload;
  // True when the exchange runs over a (simulated) TCP connection — DNS
  // servers skip UDP truncation for these.
  bool via_tcp = false;
};

// A node's request handler: returns the response payload, or nullopt to
// drop the datagram (the sender sees a timeout).
using Service = std::function<std::optional<std::vector<std::uint8_t>>(const Datagram&)>;

class Network {
 public:
  explicit Network(LatencyModel latency = {});

  EventLoop& loop() noexcept { return loop_; }
  SimTime now() const noexcept { return loop_.now(); }

  // Registers a node. Re-attaching an address replaces its service —
  // convenient for experiments that reconfigure a resolver mid-run.
  void attach(const IpAddress& addr, const GeoPoint& location, Service service);
  void detach(const IpAddress& addr);
  bool is_attached(const IpAddress& addr) const noexcept;

  std::optional<GeoPoint> location_of(const IpAddress& addr) const;

  // Great-circle distance between two attached nodes; throws if either is
  // unknown.
  double distance_between(const IpAddress& a, const IpAddress& b) const;
  // Modeled RTT between two attached nodes.
  SimTime rtt_between(const IpAddress& a, const IpAddress& b) const;

  // Sends `payload` from src to dst and waits for the response, advancing
  // virtual time across both directions. Returns nullopt on drop/timeout
  // (unknown destination, or the service declined to answer), in which case
  // the clock still advances by `timeout_`.
  // `tcp` runs the exchange over a connection: one extra RTT for the
  // handshake, and the receiving service sees via_tcp set.
  std::optional<std::vector<std::uint8_t>> round_trip(
      const IpAddress& src, const IpAddress& dst,
      std::span<const std::uint8_t> payload, bool tcp = false);
  // Convenience overload: spans cannot be brace-initialized from a list
  // until C++26, so callers with a vector in hand keep working unchanged.
  std::optional<std::vector<std::uint8_t>> round_trip(
      const IpAddress& src, const IpAddress& dst,
      const std::vector<std::uint8_t>& payload, bool tcp = false) {
    return round_trip(src, dst, std::span<const std::uint8_t>(payload), tcp);
  }

  // ICMP-echo-style RTT measurement (no payload semantics).
  std::optional<SimTime> ping(const IpAddress& src, const IpAddress& dst) const;
  // Time for a TCP three-way handshake as observed by the client: one RTT.
  std::optional<SimTime> tcp_handshake_time(const IpAddress& client,
                                            const IpAddress& server) const;

  void set_timeout(SimTime t) noexcept { timeout_ = t; }

  // Clock policy. In the default "serial" mode every round_trip advances
  // the shared clock by its propagation delay — correct when one actor's
  // end-to-end timing is the experiment (Figure 8, Table 2). When many
  // actors run concurrently off the event loop, their round trips overlap
  // in reality, so serially accumulating each RTT onto the one shared clock
  // would inflate virtual time; concurrent drivers disable advancement and
  // let event timestamps carry time instead.
  void set_advance_clock(bool advance) noexcept { advance_clock_ = advance; }
  bool advance_clock() const noexcept { return advance_clock_; }

  std::uint64_t datagrams_delivered() const noexcept { return delivered_; }
  std::uint64_t datagrams_dropped() const noexcept { return dropped_; }

  // Shared freelist of wire buffers for services and clients attached to
  // this network (single-threaded with it by construction). Typical hop:
  // acquire → serialize_into → round_trip → release.
  BufferPool& buffer_pool() noexcept { return pool_; }

 private:
  struct Node {
    GeoPoint location;
    Service service;
  };

  // Registry mirrors for the transport hot path; bound once at
  // construction, each update is one relaxed atomic op (see src/obs).
  struct Metrics {
    obs::CounterHandle round_trips;
    obs::CounterHandle tcp_round_trips;
    obs::CounterHandle timeouts;
    obs::CounterHandle bytes_sent;
    obs::CounterHandle bytes_received;
    obs::HistogramHandle rtt_us;
  };

  EventLoop loop_;
  LatencyModel latency_;
  SimTime timeout_ = 2 * kSecond;
  bool advance_clock_ = true;
  std::unordered_map<IpAddress, Node, IpAddressHash> nodes_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  BufferPool pool_;
  Metrics metrics_;
};

}  // namespace ecsdns::netsim
