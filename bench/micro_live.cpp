// micro_live: loopback throughput/latency gate for the live-wire mode.
//
// Stands up a real UdpServer on an ephemeral 127.0.0.1 port and drives it
// with a pipelined LiveClient (uniform no-ECS A queries, the strict
// zero-alloc traffic class), then reports:
//
//   run.qps                 completed queries per second over the wall
//   run.steady_allocations  heap allocations during the measured window
//                           (alloc_hooks.cpp counts; warm-up excluded)
//   live.client.latency_us  per-query latency histogram
//
// Gates (for CI perf-smoke):
//   --min-qps=N             exit 1 if run.qps < N           (default 0: off)
//   --max-steady-allocs=N   exit 1 if steady allocations > N (default -1: off)
//
// Sizing: --queries=N --warmup=N --in-flight=N --batch=N --shards=N.
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"

#include "authoritative/ecs_policy.h"
#include "authoritative/server.h"
#include "dnscore/message.h"
#include "live/client.h"
#include "live/udp_server.h"
#include "obs/alloc_counter.h"

using namespace ecsdns;
using dnscore::IpAddress;
using dnscore::Message;
using dnscore::Name;
using dnscore::RRType;

namespace {

std::unique_ptr<authoritative::AuthServer> make_auth() {
  authoritative::AuthConfig config;
  config.label = "micro-live";
  config.log_queries = false;
  auto auth = std::make_unique<authoritative::AuthServer>(
      config, std::make_unique<authoritative::ScopeDeltaPolicy>(4));
  const Name zone = Name::from_string("bench.example");
  auth->add_zone(zone).add(dnscore::ResourceRecord::make_a(
      zone.prepend("www"), 300, IpAddress::v4(203, 0, 113, 10)));
  return auth;
}

// Per-slot query buffers and the completion scratch, built once before the
// warm-up so the measured window starts with every capacity converged.
struct QueryStream {
  QueryStream(const std::vector<std::uint8_t>& wire, int in_flight)
      : queries(static_cast<std::size_t>(in_flight), wire) {
    done.reserve(static_cast<std::size_t>(in_flight));
  }
  std::vector<std::vector<std::uint8_t>> queries;
  std::vector<live::Completion> done;
};

// Runs `count` queries through the pipelined client; returns completions
// that timed out.
long run_window(live::LiveClient& client, QueryStream& stream, long count,
                int in_flight) {
  // One reusable query buffer per concurrent slot; only the ID bytes vary.
  auto& queries = stream.queries;
  auto& done = stream.done;
  long submitted = 0;
  long completed = 0;
  long failed = 0;
  while (completed < count) {
    while (submitted < count && client.in_flight() < in_flight) {
      auto& q = queries[static_cast<std::size_t>(submitted) %
                        static_cast<std::size_t>(in_flight)];
      // Distinct IDs within any in-flight window (1..60000 cycle).
      const auto id = static_cast<std::uint16_t>(submitted % 60000 + 1);
      q[0] = static_cast<std::uint8_t>(id >> 8);
      q[1] = static_cast<std::uint8_t>(id & 0xff);
      if (!client.submit(q, static_cast<std::uint64_t>(submitted + 1))) break;
      ++submitted;
    }
    done.clear();
    client.poll(done, /*max_wait_ms=*/100);
    for (auto& c : done) {
      ++completed;
      if (!c.ok) ++failed;
      client.pool().release(std::move(c.response));
    }
  }
  return failed;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession session(argc, argv, "micro_live");
  const long queries = bench::flag(argc, argv, "queries", 30000);
  const long warmup = bench::flag(argc, argv, "warmup", 2000);
  const long in_flight = bench::flag(argc, argv, "in-flight", 64);
  const long batch = bench::flag(argc, argv, "batch", 32);
  const long min_qps = bench::flag(argc, argv, "min-qps", 0);
  const long max_steady_allocs = bench::flag(argc, argv, "max-steady-allocs", -1);

  bench::banner("micro_live: loopback live-wire throughput",
                "engineering gate (no paper artifact): real-socket serving path");

  auto auth = make_auth();
  live::LiveServerConfig server_config;
  server_config.shards = static_cast<int>(session.shards());
  server_config.batch = static_cast<int>(batch);
  live::UdpServer server(server_config, *auth);
  server.start();

  live::LiveClientConfig client_config;
  client_config.server = server.address();
  client_config.max_in_flight = static_cast<int>(in_flight);
  client_config.batch = static_cast<int>(batch);
  live::LiveClient client(client_config);

  const auto wire =
      Message::make_query(1, Name::from_string("www.bench.example"), RRType::A)
          .serialize();

  // Warm-up converges every retained capacity (client slots, pool buffers,
  // server scratch, socket batch arrays) before the measured window.
  QueryStream stream(wire, static_cast<int>(in_flight));
  run_window(client, stream, warmup, static_cast<int>(in_flight));

  const auto allocs_before = obs::allocation_count();
  const auto t0 = std::chrono::steady_clock::now();
  const long failed = run_window(client, stream, queries, static_cast<int>(in_flight));
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const auto steady_allocs =
      static_cast<long>(obs::allocation_count() - allocs_before);

  const double qps = wall_s > 0 ? static_cast<double>(queries) / wall_s : 0.0;
  auto& registry = obs::MetricsRegistry::global();
  registry.gauge("run.qps").set(static_cast<std::int64_t>(qps));
  registry.gauge("run.steady_allocations").set(steady_allocs);

  server.stop();

  char measured[64];
  std::snprintf(measured, sizeof(measured), "%.0f qps", qps);
  bench::compare("loopback throughput (pipelined)", ">= 25000 qps", measured);
  std::snprintf(measured, sizeof(measured), "%ld", steady_allocs);
  bench::compare("steady-state heap allocations", "0", measured);
  std::snprintf(measured, sizeof(measured), "%ld", failed);
  bench::compare("query timeouts", "0", measured);

  int rc = 0;
  if (min_qps > 0 && qps < static_cast<double>(min_qps)) {
    std::fprintf(stderr, "micro_live: FAIL qps %.0f < --min-qps=%ld\n", qps,
                 min_qps);
    rc = 1;
  }
  if (max_steady_allocs >= 0 && steady_allocs > max_steady_allocs) {
    std::fprintf(stderr,
                 "micro_live: FAIL steady allocations %ld > "
                 "--max-steady-allocs=%ld\n",
                 steady_allocs, max_steady_allocs);
    rc = 1;
  }
  return rc;
}
