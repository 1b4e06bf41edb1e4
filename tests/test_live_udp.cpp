// Loopback end-to-end tests for the live-wire mode: a real UdpServer on an
// ephemeral 127.0.0.1 port, queried through LiveClient over real sockets.
//
// The load-bearing property is byte identity: the live path and the
// simulated path both dispatch through AuthServer::serve_wire, so for the
// same query bytes they must produce the same response bytes — ECS echo,
// FORMERR, and TC-bit truncation included. These tests pin that, then cover
// sharding, pipelining, the query log, and the scanner-over-LiveTransport
// seam.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "authoritative/ecs_policy.h"
#include "authoritative/server.h"
#include "dnscore/ecs.h"
#include "dnscore/message.h"
#include "live/client.h"
#include "live/udp_server.h"
#include "measurement/scanner.h"
#include "measurement/testbed.h"

namespace ecsdns {
namespace {

using authoritative::AuthConfig;
using authoritative::AuthServer;
using dnscore::EcsOption;
using dnscore::IpAddress;
using dnscore::Message;
using dnscore::Name;
using dnscore::Prefix;
using dnscore::RCode;
using dnscore::ResourceRecord;
using dnscore::RRType;

const Name kZone = Name::from_string("live-test.example");

std::unique_ptr<AuthServer> make_auth(bool log_queries) {
  AuthConfig config;
  config.label = "live-test";
  config.log_queries = log_queries;
  auto auth = std::make_unique<AuthServer>(
      config, std::make_unique<authoritative::ScopeDeltaPolicy>(4));
  auto& zone = auth->add_zone(kZone);
  zone.add(ResourceRecord::make_a(kZone, 300, IpAddress::v4(203, 0, 113, 1)));
  zone.add(ResourceRecord::make_a(kZone.prepend("www"), 300,
                                  IpAddress::v4(203, 0, 113, 10)));
  // Enough records under one name that the response exceeds the 512-byte
  // non-EDNS limit and must truncate (RFC 1035 §4.2.1).
  const Name big = kZone.prepend("big");
  for (int i = 0; i < 40; ++i) {
    zone.add(ResourceRecord::make_a(
        big, 300, IpAddress::v4(198, 18, 0, static_cast<std::uint8_t>(i + 1))));
  }
  return auth;
}

std::vector<std::uint8_t> ecs_query(std::uint16_t id, const Name& qname,
                                    const char* prefix) {
  Message q = Message::make_query(id, qname, RRType::A);
  q.set_ecs(EcsOption::for_query(Prefix::parse(prefix)));
  return q.serialize();
}

TEST(LiveUdp, AnswersBasicQueryOverLoopback) {
  auto auth = make_auth(/*log_queries=*/false);
  live::UdpServer server(live::LiveServerConfig{}, *auth);
  server.start();

  live::LiveClientConfig ccfg;
  ccfg.server = server.address();
  live::LiveClient client(ccfg);

  const auto wire =
      Message::make_query(0x1111, kZone.prepend("www"), RRType::A).serialize();
  const auto response = client.exchange(wire);
  ASSERT_TRUE(response.has_value());
  const Message parsed = Message::parse({response->data(), response->size()});
  EXPECT_EQ(parsed.header.id, 0x1111);
  EXPECT_TRUE(parsed.header.qr);
  EXPECT_EQ(parsed.header.rcode, RCode::NOERROR);
  ASSERT_TRUE(parsed.first_address().has_value());
  EXPECT_EQ(*parsed.first_address(), IpAddress::v4(203, 0, 113, 10));
  EXPECT_EQ(auth->queries_served(), 1u);
  server.stop();
}

// The tentpole property: for identical query bytes, the live socket path
// and the simulated network path return identical response bytes.
TEST(LiveUdp, ByteIdenticalToSimulatedPath) {
  // Simulated side: the same zone/policy served through a Testbed network.
  measurement::Testbed bed;
  AuthConfig config;
  config.label = "live-test";
  config.log_queries = false;  // keep the shard thread free of shared state
  auto& sim_auth =
      bed.add_auth("live-test", kZone, "Cleveland",
                   std::make_unique<authoritative::ScopeDeltaPolicy>(4), config);
  {
    auto* zone = sim_auth.find_zone(kZone);
    zone->add(ResourceRecord::make_a(kZone, 300, IpAddress::v4(203, 0, 113, 1)));
    zone->add(ResourceRecord::make_a(kZone.prepend("www"), 300,
                                     IpAddress::v4(203, 0, 113, 10)));
    const Name big = kZone.prepend("big");
    for (int i = 0; i < 40; ++i) {
      zone->add(ResourceRecord::make_a(
          big, 300, IpAddress::v4(198, 18, 0, static_cast<std::uint8_t>(i + 1))));
    }
  }
  auto& sim_client = bed.add_client("Cleveland");
  const IpAddress sim_auth_addr = bed.auth_address(sim_auth);

  // Live side: an identical server on a real socket.
  auto live_auth = make_auth(/*log_queries=*/false);
  live::UdpServer server(live::LiveServerConfig{}, *live_auth);
  server.start();
  live::LiveClientConfig ccfg;
  ccfg.server = server.address();
  live::LiveClient client(ccfg);

  std::vector<std::vector<std::uint8_t>> queries;
  // Plain A query.
  queries.push_back(
      Message::make_query(0x0001, kZone.prepend("www"), RRType::A).serialize());
  // ECS echo: /24 in, scope 20 out (ScopeDeltaPolicy(4)).
  queries.push_back(ecs_query(0x0002, kZone.prepend("www"), "198.51.100.0/24"));
  // ECS /32 in, scope 28 out.
  queries.push_back(ecs_query(0x0003, kZone.prepend("www"), "198.51.100.7/32"));
  // NXDOMAIN.
  queries.push_back(
      Message::make_query(0x0004, kZone.prepend("nope"), RRType::A).serialize());
  // NODATA (AAAA at an existing name).
  queries.push_back(
      Message::make_query(0x0005, kZone.prepend("www"), RRType::AAAA).serialize());
  // Truncation: no OPT, oversized answer -> TC bit, <= 512 bytes.
  queries.push_back(
      Message::make_query(0x0006, kZone.prepend("big"), RRType::A).serialize());
  // Same name with EDNS(4096): fits, no TC.
  {
    Message q = Message::make_query(0x0007, kZone.prepend("big"), RRType::A);
    q.opt.emplace();
    queries.push_back(q.serialize());
  }

  for (const auto& wire : queries) {
    const auto sim = bed.network().round_trip(sim_client.address(), sim_auth_addr,
                                              {wire.data(), wire.size()});
    const auto live = client.exchange(wire);
    ASSERT_TRUE(sim.has_value());
    ASSERT_TRUE(live.has_value());
    EXPECT_EQ(*sim, *live) << "sim and live responses diverged";
  }
  server.stop();
}

TEST(LiveUdp, EcsEchoAndTruncationSemantics) {
  auto auth = make_auth(/*log_queries=*/false);
  live::UdpServer server(live::LiveServerConfig{}, *auth);
  server.start();
  live::LiveClientConfig ccfg;
  ccfg.server = server.address();
  live::LiveClient client(ccfg);

  // ECS echo over the wire.
  const auto ecs_response =
      client.exchange(ecs_query(0x0101, kZone.prepend("www"), "198.51.100.0/24"));
  ASSERT_TRUE(ecs_response.has_value());
  const Message with_ecs =
      Message::parse({ecs_response->data(), ecs_response->size()});
  ASSERT_TRUE(with_ecs.ecs().has_value());
  EXPECT_EQ(with_ecs.ecs()->source_prefix_length(), 24);
  EXPECT_EQ(with_ecs.ecs()->scope_prefix_length(), 20);

  // TC-bit truncation for a non-EDNS requestor.
  const auto tc_response = client.exchange(
      Message::make_query(0x0102, kZone.prepend("big"), RRType::A).serialize());
  ASSERT_TRUE(tc_response.has_value());
  EXPECT_LE(tc_response->size(), 512u);
  const Message truncated =
      Message::parse({tc_response->data(), tc_response->size()});
  EXPECT_TRUE(truncated.header.tc);
  EXPECT_EQ(truncated.header.rcode, RCode::NOERROR);
  server.stop();
}

TEST(LiveUdp, MalformedEcsGetsFormerrOverTheWire) {
  auto auth = make_auth(/*log_queries=*/false);
  live::UdpServer server(live::LiveServerConfig{}, *auth);
  server.start();
  live::LiveClientConfig ccfg;
  ccfg.server = server.address();
  live::LiveClient client(ccfg);

  // A structurally valid message whose ECS payload is garbage (family 99,
  // absurd source length): RFC 7871 §7.1.2 says FORMERR, not a drop.
  Message q = Message::make_query(0x0201, kZone.prepend("www"), RRType::A);
  q.opt.emplace();
  q.opt->add_option(dnscore::EdnsOption{
      static_cast<std::uint16_t>(dnscore::EdnsOptionCode::ECS),
      {0x00, 0x63, 0xff, 0x00}});
  const auto wire = q.serialize();

  const auto response = client.exchange(wire);
  ASSERT_TRUE(response.has_value());
  const Message parsed = Message::parse({response->data(), response->size()});
  EXPECT_EQ(parsed.header.rcode, RCode::FORMERR);
  server.stop();
}

TEST(LiveUdp, MultiShardServesPipelinedLoad) {
  auto auth = make_auth(/*log_queries=*/false);
  live::LiveServerConfig scfg;
  scfg.shards = 2;
  live::UdpServer server(scfg, *auth);
  server.start();

  live::LiveClientConfig ccfg;
  ccfg.server = server.address();
  ccfg.max_in_flight = 32;
  live::LiveClient client(ccfg);

  constexpr int kQueries = 200;
  const auto qname = kZone.prepend("www");
  int submitted = 0;
  int completed = 0;
  int failed = 0;
  std::vector<live::Completion> done;
  while (completed < kQueries) {
    while (submitted < kQueries) {
      const auto wire = Message::make_query(
                            static_cast<std::uint16_t>(submitted + 1), qname,
                            RRType::A)
                            .serialize();
      if (!client.submit(wire, static_cast<std::uint64_t>(submitted + 1))) break;
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
  EXPECT_EQ(failed, 0) << "loopback queries timed out";
  // Retransmits can inflate this past kQueries, never below.
  EXPECT_GE(auth->queries_served(), static_cast<std::uint64_t>(kQueries));
  server.stop();
}

TEST(LiveUdp, QueryLogRecordsLiveTraffic) {
  auto auth = make_auth(/*log_queries=*/true);  // single shard: log is legal
  live::UdpServer server(live::LiveServerConfig{}, *auth);
  server.start();
  live::LiveClientConfig ccfg;
  ccfg.server = server.address();
  live::LiveClient client(ccfg);

  const auto response =
      client.exchange(ecs_query(0x0301, kZone.prepend("www"), "198.51.100.0/24"));
  ASSERT_TRUE(response.has_value());
  // Join the shard thread before reading the log: stop() is the
  // happens-before edge for the single-writer log.
  server.stop();

  ASSERT_EQ(auth->log().size(), 1u);
  const auto& entry = auth->log().front();
  EXPECT_EQ(entry.qname, kZone.prepend("www"));
  EXPECT_EQ(entry.sender, IpAddress::v4(127, 0, 0, 1));
  ASSERT_TRUE(entry.query_ecs.has_value());
  EXPECT_EQ(entry.query_ecs->source_prefix_length(), 24);
  ASSERT_TRUE(entry.response_ecs.has_value());
  EXPECT_EQ(entry.response_ecs->scope_prefix_length(), 20);
}

TEST(LiveUdp, MultiShardRejectsQueryLog) {
  auto auth = make_auth(/*log_queries=*/true);
  live::LiveServerConfig scfg;
  scfg.shards = 2;
  EXPECT_THROW(live::UdpServer(scfg, *auth), std::invalid_argument);
}

// The measurement layer end-to-end: the Scanner runs its probe sweep
// through a LiveTransport against its own authoritative server on a real
// loopback socket. The zone is pre-populated so scan() never mutates it
// while the shard serves, and the server is single-shard so the query log
// (the scan's data source) stays single-writer.
TEST(LiveUdp, ScannerRunsOverLiveTransport) {
  measurement::Testbed bed;
  live::LiveClient client(live::LiveClientConfig{});  // server set below
  live::LiveTransport transport(client);
  measurement::ScannerOptions options;
  options.transport = &transport;
  measurement::Scanner scanner(bed, options);

  const std::vector<IpAddress> targets = {
      IpAddress::v4(10, 1, 2, 3),
      IpAddress::v4(10, 4, 5, 6),
      IpAddress::v4(10, 7, 8, 9),
  };
  auto* zone = scanner.auth().find_zone(scanner.zone());
  for (const auto& target : targets) {
    zone->add(ResourceRecord::make_a(
        measurement::encode_probe_name(target, scanner.zone()), 60,
        IpAddress::v4(192, 0, 2, 1)));
  }

  live::UdpServer server(live::LiveServerConfig{}, scanner.auth());
  server.start();
  client.set_server(server.address());

  // Two-phase scan: probe over the live socket, then stop the server (the
  // query log is single-writer, so joining the shard thread is the
  // happens-before edge) and harvest.
  measurement::ScanResults results;
  scanner.send_probes(targets, results);
  server.stop();
  scanner.harvest(results);
  EXPECT_EQ(results.probes_sent, targets.size());
  EXPECT_EQ(results.responses_received, targets.size());
  EXPECT_EQ(results.open_ingress_count(), targets.size());
  for (const auto& obs : results.observations) {
    EXPECT_EQ(obs.egress, IpAddress::v4(127, 0, 0, 1));
  }
}

}  // namespace
}  // namespace ecsdns
