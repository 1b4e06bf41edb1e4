// ecsdns_serve: the live-wire authoritative server on a real UDP port.
//
//   ecsdns_serve --port 5353 --shards 4 --zone scan-experiment.net
//
// Serves the zone with the paper's scan-experiment ECS policy
// (scope = source - 4) by default; query it with dig:
//
//   dig @127.0.0.1 -p 5353 www.scan-experiment.net +subnet=198.51.100.0/24
//
// On exit (SIGINT/SIGTERM or --duration-s) it prints the live.* metrics
// document to stdout.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "authoritative/ecs_policy.h"
#include "authoritative/server.h"
#include "live/udp_server.h"
#include "obs/export.h"
#include "obs/metrics.h"

using namespace ecsdns;

namespace {

std::atomic<bool> g_stop{false};
void on_signal(int) { g_stop.store(true); }

struct Flags {
  std::uint16_t port = 5353;
  int shards = 1;
  int batch = 32;
  int duration_s = 0;  // 0 = run until SIGINT/SIGTERM
  int scope_delta = 4;
  std::string zone = "scan-experiment.net";
  std::string policy = "delta";  // delta | fixed | noecs
  bool log_queries = false;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--shards N] [--batch N] [--zone NAME]\n"
               "          [--policy delta|fixed|noecs] [--scope-delta N]\n"
               "          [--duration-s N] [--log-queries]\n",
               argv0);
}

bool parse_flags(int argc, char** argv, Flags& flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) return false;
      flags.port = static_cast<std::uint16_t>(std::atoi(v));
    } else if (arg == "--shards") {
      const char* v = next();
      if (v == nullptr) return false;
      flags.shards = std::atoi(v);
    } else if (arg == "--batch") {
      const char* v = next();
      if (v == nullptr) return false;
      flags.batch = std::atoi(v);
    } else if (arg == "--duration-s") {
      const char* v = next();
      if (v == nullptr) return false;
      flags.duration_s = std::atoi(v);
    } else if (arg == "--scope-delta") {
      const char* v = next();
      if (v == nullptr) return false;
      flags.scope_delta = std::atoi(v);
    } else if (arg == "--zone") {
      const char* v = next();
      if (v == nullptr) return false;
      flags.zone = v;
    } else if (arg == "--policy") {
      const char* v = next();
      if (v == nullptr) return false;
      flags.policy = v;
    } else if (arg == "--log-queries") {
      flags.log_queries = true;
    } else {
      return false;
    }
  }
  return true;
}

std::unique_ptr<authoritative::EcsPolicy> make_policy(const Flags& flags) {
  if (flags.policy == "noecs") {
    return std::make_unique<authoritative::NoEcsPolicy>();
  }
  if (flags.policy == "fixed") {
    return std::make_unique<authoritative::FixedScopePolicy>(flags.scope_delta);
  }
  return std::make_unique<authoritative::ScopeDeltaPolicy>(flags.scope_delta);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!parse_flags(argc, argv, flags)) {
    usage(argv[0]);
    return 2;
  }

  obs::preregister_core_metrics(obs::MetricsRegistry::global());

  authoritative::AuthConfig config;
  config.label = "live";
  config.log_queries = flags.log_queries;
  authoritative::AuthServer auth(config, make_policy(flags));
  const auto apex = dnscore::Name::from_string(flags.zone);
  auto& zone = auth.add_zone(apex);
  zone.add(dnscore::ResourceRecord::make_a(apex, 300,
                                           dnscore::IpAddress::v4(192, 0, 2, 1)));
  zone.add(dnscore::ResourceRecord::make_a(apex.prepend("www"), 300,
                                           dnscore::IpAddress::v4(192, 0, 2, 80)));

  live::LiveServerConfig server_config;
  server_config.bind = {dnscore::IpAddress::v4(127, 0, 0, 1), flags.port};
  server_config.shards = flags.shards;
  server_config.batch = flags.batch;

  try {
    live::UdpServer server(server_config, auth);
    server.start();
    std::printf("ecsdns_serve: %d shard(s) on 127.0.0.1:%u, zone %s, policy %s\n",
                flags.shards, server.port(), flags.zone.c_str(),
                flags.policy.c_str());
    std::fflush(stdout);

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    const auto started = std::chrono::steady_clock::now();
    while (!g_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      if (flags.duration_s > 0 &&
          std::chrono::steady_clock::now() - started >=
              std::chrono::seconds(flags.duration_s)) {
        break;
      }
    }
    server.stop();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  started)
            .count();
    std::printf("%s\n",
                obs::metrics_json(obs::MetricsRegistry::global(), "ecsdns_serve",
                                  wall_ms)
                    .c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ecsdns_serve: %s\n", e.what());
    return 1;
  }
  return 0;
}
