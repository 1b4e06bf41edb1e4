// resolver_fleet: the §6 behaviour mix. The full-scale CDN-dataset fleet of
// recursive resolvers (always-ECS, per-hostname, loopback and cache-miss
// probers; jammed, /24, /25 and /32 source prefixes) resolves Zipf-popular
// hostnames of one ECS zone with 20 s TTLs over the simulated network.
// Each timed operation is one drive_fleet slice of simulated time; caches
// carry over between slices.
//
// Output checks: every client query is answered NOERROR; every ECS query
// the zone logged is answered with the query's family, source and address
// echoed at the zone's scope; every resolver cache satisfies the CacheStats
// accounting identity; and sampled resolvers return each hostname's A
// record.
#include <cstdio>

#include "dnscore/message.h"
#include "inputs.h"
#include "measurement/workload.h"
#include "workloads.h"

namespace perfbench {

using namespace ecsdns;

namespace {

// Counts logged ECS exchanges whose response does not echo the query.
std::uint64_t bad_echoes(const std::vector<authoritative::QueryLogEntry>& log) {
  std::uint64_t bad = 0;
  for (const auto& entry : log) {
    if (entry.rcode != dnscore::RCode::NOERROR) {
      ++bad;
      continue;
    }
    if (!entry.query_ecs) continue;
    const auto& q = *entry.query_ecs;
    const auto& r = entry.response_ecs;
    if (!r || r->family() != q.family() ||
        r->source_prefix_length() != q.source_prefix_length() ||
        r->address_bytes() != q.address_bytes() ||
        r->scope_prefix_length() != kResolverScope) {
      ++bad;
    }
  }
  return bad;
}

}  // namespace

RunRecord run_resolver_fleet(const Options& o) {
  RunRecord record;
  TimedRegion region;

  std::unique_ptr<ResolverBed> bed;
  region.setup_s = time_setups(
      kFreshSetups, [&] { bed = build_resolver_bed(o.seed); }, record);

  std::uint64_t unanswered = 0;
  std::uint64_t echo_failures = 0;
  std::uint64_t logged = 0;
  auto slice = [&](std::uint64_t batch) {
    const measurement::WorkloadOptions options = bed->slice(batch);
    Lap lap;
    measurement::WorkloadStats stats;
    {
      // The resolver, cache, authoritative and network layers all run
      // inside this one call; their self time needs in-program spans.
      ScopedSpan span("measurement.drive_fleet", batch);
      stats = measurement::drive_fleet(bed->bed, bed->fleet, options);
    }
    lap.finish(stats.client_queries);
    // Untimed maintenance, as a resolver's periodic sweep: drop expired
    // answers so memory tracks live entries, not how many slices ran.
    const auto now = bed->bed.network().loop().now();
    for (const auto& member : bed->fleet.members) {
      member.resolver->cache().purge_expired(now);
    }
    unanswered += stats.client_queries - stats.answered;
    logged += bed->cdn->log().size();
    echo_failures += bad_echoes(bed->cdn->log());
    bed->cdn->clear_log();
    return lap;
  };
  run_phases(o, region, record, slice);

  if (unanswered > 0) {
    record.failed += unanswered;
    record.fail("resolver_fleet: " + std::to_string(unanswered) +
                " client queries not answered NOERROR");
  }
  if (echo_failures > 0) {
    record.failed += echo_failures;
    record.fail("resolver_fleet: " + std::to_string(echo_failures) +
                " authoritative exchanges with a wrong rcode or ECS echo");
  }
  std::uint64_t identity_failures = 0;
  for (const auto& member : bed->fleet.members) {
    auto& cache = member.resolver->cache();
    if (cache.stats().accounted_insertions(cache.size()) != cache.stats().insertions) {
      ++identity_failures;
    }
  }
  if (identity_failures > 0) {
    record.fail("resolver_fleet: " + std::to_string(identity_failures) +
                " resolver caches break the CacheStats accounting identity");
  }
  std::uint64_t wrong_answers = 0;
  std::uint64_t sampled = 0;
  const auto client = dnscore::IpAddress::v4(120, 0, 0, 0x21);
  for (std::size_t m = 0; m < bed->fleet.members.size(); m += 97) {
    auto* resolver = bed->fleet.members[m].resolver;
    for (std::size_t h = 0; h < bed->hostnames.size(); ++h) {
      const auto query = dnscore::Message::make_query(
          static_cast<std::uint16_t>(h + 1), bed->hostnames[h], dnscore::RRType::A);
      const auto response = resolver->handle_client_query(query, client);
      ++sampled;
      if (!response || response->header.rcode != dnscore::RCode::NOERROR ||
          response->first_address() != bed->answers[h]) {
        ++wrong_answers;
      }
    }
  }
  record.attempted += sampled;
  if (wrong_answers > 0) {
    record.failed += wrong_answers;
    record.fail("resolver_fleet: " + std::to_string(wrong_answers) + " of " +
                std::to_string(sampled) + " sampled answers are wrong");
  }
  std::printf("resolver_fleet: %zu resolvers, %llu authoritative exchanges "
              "checked, %llu sampled answers checked\n",
              bed->fleet.members.size(), static_cast<unsigned long long>(logged),
              static_cast<unsigned long long>(sampled));
  return record;
}

}  // namespace perfbench
