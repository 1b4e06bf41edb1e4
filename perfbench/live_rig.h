// The live rig of the traced run's live-layer probe: an authoritative
// behind a real UdpServer on 127.0.0.1 and one pipelined LiveClient, with a
// closed-loop load generator (throughput and batching counters) and an
// open-loop one (latency from each query's due time, and how late sends
// ran).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "authoritative/server.h"
#include "harness.h"
#include "inputs.h"
#include "live/client.h"
#include "live/udp_server.h"

namespace perfbench {

inline constexpr int kLiveShards = 2;
inline constexpr int kLiveBatch = 32;
inline constexpr int kClosedInFlight = 64;
inline constexpr int kOpenInFlight = 512;
// The open loop's fixed send rate: well below loopback capacity, so the
// latency it measures is service time, not a growing backlog.
inline constexpr double kOpenRateQps = 20000;
inline constexpr double kLatencyWindowS = 0.1;

class LiveRig {
 public:
  // Builds the authoritative and the query mix, derives the expected
  // response of every query template through AuthServer::serve_wire and
  // checks it field by field, then starts the server and the client.
  // Template problems are appended to `problems`. With two or more usable
  // CPUs the server shards and the calling (client) thread are pinned to
  // separate CPUs, so run-to-run placement does not move the figures.
  LiveRig(std::uint64_t seed, std::vector<std::string>& problems);
  ~LiveRig();
  LiveRig(const LiveRig&) = delete;
  LiveRig& operator=(const LiveRig&) = delete;

  struct Tally {
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
  };

  // Closed loop: keeps kClosedInFlight queries outstanding until `count`
  // more have completed.
  Tally closed(std::uint64_t count);

  struct OpenResult {
    Tally tally;
    std::vector<double> lag_us;  // how late each send ran
    // Latency p50 and p99 of each kLatencyWindowS window of due times: the
    // reported figures are their medians, so one stall of the host does
    // not decide a run's tail.
    std::vector<double> window_p50_us;
    std::vector<double> window_p99_us;
  };
  // Open loop at `rate` queries/s for `seconds`, then drains.
  OpenResult open(double seconds, double rate);

  // Drains outstanding queries (no new sends).
  Tally drain();

 private:
  bool submit_next();
  // Checks one completion: ID, then every other byte against the expected
  // response of its template. Returns false on timeout or mismatch.
  bool check(const ecsdns::live::Completion& c);

  std::unique_ptr<ecsdns::authoritative::AuthServer> auth_;
  LiveQueries queries_;
  std::vector<std::vector<std::uint8_t>> expected_;
  std::unique_ptr<ecsdns::live::UdpServer> server_;
  std::unique_ptr<ecsdns::live::LiveClient> client_;
  std::vector<std::uint8_t> wire_;  // send buffer (ID patched per query)
  std::vector<ecsdns::live::Completion> done_;
  std::uint64_t next_seq_ = 0;
  // Pins the calling (client) thread while the rig lives; restoring the
  // mask afterwards keeps later multi-threaded work off a single CPU.
  std::unique_ptr<ScopedPin> client_pin_;
};

}  // namespace perfbench
