// ecsdns_perfbench: one workload per process.
//
//   ecsdns_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--spans-dir DIR] [--commit ID]
//
// Prints a machine/build stamp, a table of every metric with its unit, and
// as the last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Untraced runs report the end-to-end metrics; traced runs the
// per-layer metrics, and write their spans to DIR. Exits 1 when an output
// check or the no-work guard failed, 2 on bad usage or an unoptimised build.
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must list exactly the metrics of BENCHMARK.json (run.py checks).
constexpr MetricSpec kEndToEnd[] = {
    {"qps", "ops/s"},           {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},    {"allocs_per_query", "allocs/op"},
};

constexpr MetricSpec kPerLayer[] = {
    {"trace_stream.setup_ms", "ms"},
    {"trace_stream.ns_per_query", "ns"},
    {"cache_sim.fold_ns_per_query", "ns"},
    {"cache_sim.hit_ratio", "fraction"},
    {"cache_sim.peak_live_entries", "count"},
    {"cache_sim.bounded_ns_per_query.lru", "ns"},
    {"cache_sim.bounded_ns_per_query.lfu", "ns"},
    {"cache_sim.bounded_ns_per_query.sieve", "ns"},
    {"cache_sim.bounded_ns_per_query.scope", "ns"},
    {"cache_sim.bounded_allocs_per_query.lru", "allocs/op"},
    {"cache_sim.bounded_allocs_per_query.lfu", "allocs/op"},
    {"cache_sim.bounded_allocs_per_query.sieve", "allocs/op"},
    {"cache_sim.bounded_allocs_per_query.scope", "allocs/op"},
    {"cache_sim.premature_evictions.lru", "count"},
    {"cache_sim.premature_evictions.lfu", "count"},
    {"cache_sim.premature_evictions.sieve", "count"},
    {"cache_sim.premature_evictions.scope", "count"},
    {"cache_sim.bounded_hit_ratio.lru", "fraction"},
    {"cache_sim.bounded_hit_ratio.lfu", "fraction"},
    {"cache_sim.bounded_hit_ratio.sieve", "fraction"},
    {"cache_sim.bounded_hit_ratio.scope", "fraction"},
    {"runner.scaling", "ratio"},
    {"runner.busy_imbalance", "ratio"},
    {"runner.barrier_wait_ms", "ms"},
    {"runner.serial_setup_share", "fraction"},
    {"eviction.ns_per_event.lru", "ns"},
    {"eviction.ns_per_event.lfu", "ns"},
    {"eviction.ns_per_event.sieve", "ns"},
    {"eviction.ns_per_event.scope", "ns"},
    {"ecs_cache.insert_ns.unbounded", "ns"},
    {"ecs_cache.insert_ns.lru", "ns"},
    {"ecs_cache.insert_ns.lfu", "ns"},
    {"ecs_cache.insert_ns.sieve", "ns"},
    {"ecs_cache.insert_ns.scope", "ns"},
    {"ecs_cache.lookup_hit_ns", "ns"},
    {"ecs_cache.allocs_per_insert.unbounded", "allocs/op"},
    {"ecs_cache.allocs_per_insert.lru", "allocs/op"},
    {"ecs_cache.allocs_per_insert.lfu", "allocs/op"},
    {"ecs_cache.allocs_per_insert.sieve", "allocs/op"},
    {"ecs_cache.allocs_per_insert.scope", "allocs/op"},
    {"cache.hit_ratio", "fraction"},
    {"cache.insertions_per_query", "ratio"},
    {"resolver.upstream_per_query", "ratio"},
    {"resolver.ecs_upstream_share", "fraction"},
    {"resolver.referrals_per_query", "ratio"},
    {"resolver.servfail_rate", "fraction"},
    {"auth.serve_ns", "ns"},
    {"auth.ecs_response_share", "fraction"},
    {"dnscore.parse_ns", "ns"},
    {"dnscore.view_ns", "ns"},
    {"dnscore.serialize_ns", "ns"},
    {"net.round_trips_per_query", "ratio"},
    {"net.bytes_per_round_trip", "bytes"},
    {"net.timeouts", "count"},
    {"live.rx_per_batch", "ratio"},
    {"live.tx_per_batch", "ratio"},
    {"live.client.retries", "count"},
    {"live.client.timeouts", "count"},
    {"live.drops", "count"},
    {"live.tx_eagain", "count"},
    {"live.latency_p50_us", "us"},
    {"live.latency_p99_us", "us"},
    {"loadgen.lag_p99_us", "us"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: ecsdns_perfbench --workload "
               "fleet_replay|bounded_sweep|resolver_fleet "
               "--seed N --seconds S --trace 0|1 [--spans-dir DIR] [--commit ID]\n",
               why);
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::size_t allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "error: refusing to measure an unoptimised build\n");
  return 2;
#endif
  Options o;
  std::string spans_dir;
  std::string commit = "unknown";
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage("--seed wants an integer");
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(o.seconds > 0) || o.seconds > 600) {
        usage("--seconds wants a number in (0, 600]");
      }
      have_seconds = true;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace wants 0 or 1");
      }
      trace = value[0] - '0';
    } else if (arg == "--spans-dir") {
      spans_dir = value;
    } else if (arg == "--commit") {
      commit = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds || trace < 0) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  o.traced = trace == 1;

  // Machine and build stamp.
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  const std::size_t allowed = allowed_cpus();
  const std::size_t usable =
      allowed > 0 ? allowed : static_cast<std::size_t>(online > 0 ? online : 1);
  o.threads = std::min<std::size_t>(4, usable);
  const std::string stamp =
      "{\"workload\":\"" + json_escape(o.workload) + "\",\"seed\":" +
      std::to_string(o.seed) + ",\"seconds\":" + std::to_string(o.seconds) +
      ",\"traced\":" + (o.traced ? "true" : "false") +
      ",\"nproc\":" + std::to_string(online) + ",\"allowed_cpus\":" +
      std::to_string(allowed) + ",\"threads\":" + std::to_string(o.threads) +
      ",\"cpu\":\"" + json_escape(cpu_model()) + "\",\"compiler\":\"" +
      json_escape(__VERSION__) + "\",\"build_type\":\"" PERFBENCH_BUILD_TYPE
      "\",\"commit\":\"" + json_escape(commit) + "\"}";
  std::printf("# machine %s\n", stamp.c_str());
  if (o.threads > static_cast<std::size_t>(online)) {
    std::fprintf(stderr, "warning: %zu threads exceed the %ld online CPUs\n",
                 o.threads, online);
  }
  std::printf("# timer resolution %.0f ns\n", timer_resolution_ns());
  std::fflush(stdout);

  RunRecord record;
  if (o.workload == "fleet_replay") {
    record = run_fleet_replay(o);
  } else if (o.workload == "bounded_sweep") {
    record = run_bounded_sweep(o);
  } else if (o.workload == "resolver_fleet") {
    record = run_resolver_fleet(o);
  } else {
    usage(("unknown workload " + o.workload).c_str());
  }

  if (o.traced) {
    const double untraced = record.metrics[kQpsUntraced];
    const double traced = record.metrics[kQpsTraced];
    run_layer_probes(o, record);
    record.metrics["trace.overhead_pct"] =
        untraced > 0 ? 100.0 * (untraced - traced) / untraced : 0.0;
    auto& spans = SpanLog::instance();
    std::printf("\n%-44s %10s %12s %12s\n", "span", "count", "total_ms", "self_ms");
    for (const auto& [name, t] : spans.totals()) {
      std::printf("%-44s %10llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.total_ms, t.self_ms);
    }
    std::printf(
        "note: measurement.drive_fleet covers the resolver, cache, "
        "authoritative and netsim layers in one call; their self time "
        "inside it is not measurable from outside the library (needs "
        "in-program spans). Their per-layer figures above are counts.\n");
    if (spans.dropped() > 0) {
      std::printf("note: %llu spans dropped past the in-memory capacity\n",
                  static_cast<unsigned long long>(spans.dropped()));
    }
    if (!spans_dir.empty()) {
      const std::string path = spans_dir + "/" + o.workload + "-seed" +
                               std::to_string(o.seed) + ".spans.jsonl";
      if (spans.write(path, stamp)) {
        std::printf("spans written to %s\n", path.c_str());
      } else {
        record.fail("could not write spans to " + path);
      }
    }
  }

  // Metric table, then the result line.
  const auto* specs = o.traced ? kPerLayer : kEndToEnd;
  const std::size_t count =
      o.traced ? std::size(kPerLayer) : std::size(kEndToEnd);
  std::string metrics_json;
  std::printf("\n");
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = record.metrics.find(specs[i].name);
    double value = it == record.metrics.end() ? NAN : it->second;
    if (!std::isfinite(value)) {
      record.fail(std::string("metric ") + specs[i].name + " was not measured");
      value = 0;
    }
    std::printf("%-44s %18.6f %s\n", specs[i].name, value, specs[i].unit);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!metrics_json.empty()) metrics_json += ",";
    metrics_json += std::string("\"") + specs[i].name + "\":{\"value\":" + buf +
                    ",\"unit\":\"" + specs[i].unit + "\"}";
  }
  const double error_rate =
      record.attempted == 0
          ? 1.0
          : static_cast<double>(record.failed) / static_cast<double>(record.attempted);
  std::printf("%-44s %18.6f fraction (%llu of %llu operations)\n", "error_rate",
              error_rate, static_cast<unsigned long long>(record.failed),
              static_cast<unsigned long long>(record.attempted));
  for (const auto& p : record.problems) std::printf("FAIL: %s\n", p.c_str());
  const bool correct = record.problems.empty() && record.failed == 0 &&
                       record.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(record.attempted, 1)),
              static_cast<unsigned long long>(record.failed), metrics_json.c_str());
  return correct ? 0 : 1;
}
