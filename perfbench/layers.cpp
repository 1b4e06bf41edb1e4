// Per-layer probes of the traced run. Each probe calls one layer from
// outside, through its public functions, on the inputs of the workload the
// layer is predicted to move (same seed), and records a span around every
// call. Counts come from the library's metrics registry, reset before each
// probe so they cover that probe alone.
#include <cstdio>
#include <string>
#include <unordered_map>

#include "authoritative/server.h"
#include "dnscore/message.h"
#include "dnscore/message_view.h"
#include "inputs.h"
#include "live_rig.h"
#include "measurement/cache_sim.h"
#include "measurement/trace_stream.h"
#include "measurement/workload.h"
#include "obs/metrics.h"
#include "resolver/cache.h"
#include "resolver/eviction.h"
#include "workloads.h"

namespace perfbench {

using namespace ecsdns;
using namespace ecsdns::measurement;
using Metrics = std::map<std::string, double>;

namespace {

obs::MetricsRegistry& registry() { return obs::MetricsRegistry::global(); }

double counter(const char* name) {
  return static_cast<double>(registry().counter(name).value());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double ns_per(double seconds, std::uint64_t n) {
  return n == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(n);
}

// Repeats `pass` (which returns the operations it did) until at least
// `min_seconds` have passed; returns ns per operation.
template <class Pass>
double time_per_op(double min_seconds, Pass&& pass) {
  std::uint64_t ops = 0;
  const auto start = Clock::now();
  do {
    ops += pass();
  } while (seconds_since(start) < min_seconds);
  return ns_per(seconds_since(start), ops);
}

// ---- measurement/trace_stream and the unbounded fold (fleet_replay) ----

void probe_stream_and_fold(const Options& o, Metrics& m) {
  const auto factory = cdn_stream_factory(fleet_config(o.seed));
  {
    ScopedSpan span("trace_stream.shard_setup");
    const auto start = Clock::now();
    for (std::size_t s = 0; s < o.threads; ++s) {
      std::unique_ptr<TraceStream> stream;
      {
        ScopedSpan f("trace_stream.factory", s);
        stream = factory();
      }
      ScopedSpan r("trace_stream.restrict_to_members", s);
      stream->restrict_to_members(s, o.threads);
    }
    m["trace_stream.setup_ms"] = seconds_since(start) * 1e3;
  }

  // Pull the whole stream in batches, timing next(), then fold the same
  // batches, timing observe() alone.
  constexpr std::size_t kBatch = 8192;
  auto stream = factory();
  const std::uint32_t resolvers = stream->info().resolvers;
  std::vector<std::vector<TraceQuery>> batches;
  double next_s = 0;
  std::uint64_t pulled = 0;
  for (bool more = true; more;) {
    std::vector<TraceQuery> batch(kBatch);
    std::size_t n = 0;
    const auto start = Clock::now();
    {
      ScopedSpan span("trace_stream.next", batches.size());
      while (n < kBatch && (more = stream->next(batch[n]))) ++n;
    }
    next_s += seconds_since(start);
    batch.resize(n);
    pulled += n;
    if (n > 0) batches.push_back(std::move(batch));
  }
  m["trace_stream.ns_per_query"] = ns_per(next_s, pulled);

  CacheSimOptions options;
  options.with_ecs = true;
  StreamingCacheSim sim(resolvers, options);
  double fold_s = 0;
  std::size_t peak = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const auto start = Clock::now();
    {
      ScopedSpan span("cache_sim.observe", b);
      for (const auto& q : batches[b]) sim.observe(q);
    }
    fold_s += seconds_since(start);
    peak = std::max(peak, sim.live_entries());
  }
  const CacheSimResult result = sim.finish();
  m["cache_sim.fold_ns_per_query"] = ns_per(fold_s, pulled);
  m["cache_sim.hit_ratio"] = result.overall_hit_rate();
  m["cache_sim.peak_live_entries"] = static_cast<double>(peak);
  std::printf("probe trace_stream/cache_sim: %llu queries, %u resolvers "
              "(peak live entries sampled every %zu queries)\n",
              static_cast<unsigned long long>(pulled), resolvers, kBatch);
}

// ---- netsim/parallel_engine: the sharded runner (fleet_replay) ----

void probe_runner(const Options& o, Metrics& m) {
  const auto factory = cdn_stream_factory(fleet_config(o.seed));
  CacheSimOptions options;
  options.with_ecs = true;
  options.shards = o.threads;
  options.runtime_metrics = true;
  auto replay = [&](std::size_t threads, const char* span_name) {
    options.threads = threads;
    registry().reset();
    ScopedSpan span(span_name);
    const auto start = Clock::now();
    simulate_cache_stream(factory, options);
    return seconds_since(start);
  };
  const double wall_1 = replay(1, "runner.replay_1_thread");
  const double wall_n = replay(o.threads, "runner.replay_n_threads");
  m["runner.scaling"] = ratio(wall_1, wall_n);

  // Per-shard busy time and barrier waits of the N-thread replay.
  std::vector<double> busy;
  for (const auto& [name, value] : registry().counters()) {
    if (name.rfind("engine.shard", 0) == 0 && name.size() > 8 &&
        name.compare(name.size() - 8, 8, ".busy_us") == 0) {
      busy.push_back(static_cast<double>(value));
    }
  }
  double busy_max = 0;
  double busy_sum = 0;
  for (const double b : busy) {
    busy_max = std::max(busy_max, b);
    busy_sum += b;
  }
  m["runner.busy_imbalance"] =
      busy.empty() ? 0.0 : ratio(busy_max, busy_sum / static_cast<double>(busy.size()));
  double barrier_us = 0;
  for (const auto& [name, histogram] : registry().histograms()) {
    if (name == "engine.barrier_wait_us") barrier_us += static_cast<double>(histogram->sum());
  }
  m["runner.barrier_wait_ms"] = barrier_us / 1e3;
  m["runner.serial_setup_share"] = ratio(m["trace_stream.setup_ms"], wall_n * 1e3);
  if (busy.empty()) {
    std::printf("probe runner: no engine.shard<i>.busy_us counters exported; "
                "busy_imbalance not measurable from outside\n");
  }
}

// ---- bounded replay, eviction policies, EcsCache (bounded_sweep) ----

struct EvictionEvent {
  enum Kind : std::uint8_t { kInsert, kHit, kErase, kPick } kind;
  std::uint8_t scope;
  std::uint32_t resolver;
  resolver::EntryId id;
};

// Replays the trace through per-resolver caches of `capacity` entries whose
// victims `policy` names (lazy TTL expiry on lookup), recording every
// strategy call.
std::vector<EvictionEvent> eviction_events(const Trace& trace,
                                           resolver::EvictionPolicy policy,
                                           std::size_t capacity) {
  struct Entry {
    resolver::EntryId id;
    netsim::SimTime expiry;
  };
  struct PerResolver {
    std::unique_ptr<resolver::EvictionStrategy> strategy;
    std::unordered_map<std::uint64_t, Entry> live;
    std::unordered_map<resolver::EntryId, std::uint64_t> key_of;
  };
  std::vector<PerResolver> caches(trace.resolvers);
  for (auto& c : caches) c.strategy = resolver::make_eviction_strategy(policy);
  std::vector<EvictionEvent> events;
  events.reserve(trace.queries.size() * 3);
  resolver::EntryId next_id = 1;
  for (const auto& q : trace.queries) {
    auto& c = caches[q.resolver];
    const int bits = std::min(q.scope, q.client.bit_length());
    const std::uint64_t key =
        (static_cast<std::uint64_t>(q.name) << 32) ^
        static_cast<std::uint64_t>(dnscore::Prefix(q.client, bits).hash());
    const auto it = c.live.find(key);
    if (it != c.live.end() && it->second.expiry > q.time) {
      c.strategy->on_hit(it->second.id);
      events.push_back({EvictionEvent::kHit, 0, q.resolver, it->second.id});
      continue;
    }
    if (it != c.live.end()) {  // expired
      c.strategy->on_erase(it->second.id);
      events.push_back({EvictionEvent::kErase, 0, q.resolver, it->second.id});
      c.key_of.erase(it->second.id);
      c.live.erase(it);
    }
    while (c.live.size() >= capacity) {
      const resolver::EntryId victim = c.strategy->pick_victim();
      events.push_back({EvictionEvent::kPick, 0, q.resolver, victim});
      c.strategy->on_erase(victim);
      events.push_back({EvictionEvent::kErase, 0, q.resolver, victim});
      c.live.erase(c.key_of[victim]);
      c.key_of.erase(victim);
    }
    const resolver::EntryId id = next_id++;
    c.strategy->on_insert(id, resolver::EntryTraits{bits});
    events.push_back({EvictionEvent::kInsert, static_cast<std::uint8_t>(bits),
                      q.resolver, id});
    c.live[key] = Entry{id, q.time + static_cast<netsim::SimTime>(q.ttl_s) * netsim::kSecond};
    c.key_of[id] = key;
  }
  return events;
}

void probe_bounded(const Options& o, Metrics& m) {
  const Trace trace = generate_public_resolver_cdn_trace(dense_config(o.seed));
  CacheSimOptions no_ecs;
  no_ecs.with_ecs = false;
  no_ecs.shards = o.threads;
  no_ecs.threads = o.threads;
  std::size_t sum = 0;
  const CacheSimResult peaks = simulate_cache(trace, no_ecs);
  for (const auto& row : peaks.per_resolver) sum += row.max_cache_size;
  const std::size_t anchor = sum / peaks.per_resolver.size();
  const std::size_t bound = std::max<std::size_t>(1, anchor / 2);

  for (const auto policy : resolver::kAllEvictionPolicies) {
    const std::string key = resolver::to_string(policy);
    CacheSimOptions options;
    options.with_ecs = true;
    options.max_entries_per_resolver = bound;
    options.policy = policy;
    options.shards = o.threads;
    options.threads = o.threads;
    const std::uint64_t a0 = allocations();
    const auto start = Clock::now();
    CacheSimResult result;
    {
      ScopedSpan span("cache_sim.bounded_replay", static_cast<std::uint64_t>(policy));
      result = simulate_cache(trace, options);
    }
    const double wall = seconds_since(start);
    const std::uint64_t allocs = allocations() - a0;
    const std::uint64_t queries = result.total_hits() + result.total_misses();
    std::uint64_t premature = 0;
    for (const auto& row : result.per_resolver) premature += row.premature_evictions;
    m["cache_sim.bounded_ns_per_query." + key] = ns_per(wall, queries);
    m["cache_sim.bounded_allocs_per_query." + key] =
        ratio(static_cast<double>(allocs), static_cast<double>(queries));
    m["cache_sim.premature_evictions." + key] = static_cast<double>(premature);
    m["cache_sim.bounded_hit_ratio." + key] = result.overall_hit_rate();
  }

  // Eviction strategies alone, replaying the recorded call sequence.
  std::uint64_t sink = 0;
  for (const auto policy : resolver::kAllEvictionPolicies) {
    const auto events = eviction_events(trace, policy, bound);
    ScopedSpan span("resolver.eviction_strategy", static_cast<std::uint64_t>(policy));
    m["eviction.ns_per_event." + resolver::to_string(policy)] = time_per_op(0.2, [&] {
      std::vector<std::unique_ptr<resolver::EvictionStrategy>> strategies(trace.resolvers);
      for (auto& s : strategies) s = resolver::make_eviction_strategy(policy);
      for (const auto& e : events) {
        auto& s = *strategies[e.resolver];
        switch (e.kind) {
          case EvictionEvent::kInsert: s.on_insert(e.id, resolver::EntryTraits{e.scope}); break;
          case EvictionEvent::kHit: s.on_hit(e.id); break;
          case EvictionEvent::kErase: s.on_erase(e.id); break;
          case EvictionEvent::kPick: sink += s.pick_victim(); break;
        }
      }
      return static_cast<std::uint64_t>(events.size());
    });
  }

  // EcsCache insert and lookup on the trace's first queries.
  const std::size_t n = std::min<std::size_t>(trace.queries.size(), 100000);
  const dnscore::Name zone = dnscore::Name::from_string("cdn.example");
  std::vector<dnscore::Name> names;
  for (std::uint32_t h = 0; h < trace.hostnames; ++h) {
    names.push_back(zone.prepend("h" + std::to_string(h)));
  }
  auto insert_all = [&](resolver::EcsCache& cache, const std::string& key) {
    std::vector<std::vector<dnscore::ResourceRecord>> records(n);
    for (std::size_t i = 0; i < n; ++i) {
      records[i].push_back(dnscore::ResourceRecord::make_a(
          names[trace.queries[i].name], 20, dnscore::IpAddress::v4(203, 0, 113, 7)));
    }
    const std::uint64_t a0 = allocations();
    const auto start = Clock::now();
    {
      ScopedSpan span("resolver.ecs_cache.insert");
      for (std::size_t i = 0; i < n; ++i) {
        const auto& q = trace.queries[i];
        const int bits = std::min(q.scope, q.client.bit_length());
        cache.insert(names[q.name], dnscore::RRType::A, dnscore::Prefix(q.client, bits),
                     static_cast<std::uint8_t>(bits), std::move(records[i]), q.time,
                     static_cast<netsim::SimTime>(q.ttl_s) * netsim::kSecond);
      }
    }
    m["ecs_cache.insert_ns." + key] = ns_per(seconds_since(start), n);
    m["ecs_cache.allocs_per_insert." + key] =
        ratio(static_cast<double>(allocations() - a0), static_cast<double>(n));
  };
  resolver::EcsCache unbounded;
  insert_all(unbounded, "unbounded");
  std::uint64_t hits = 0;
  const auto start = Clock::now();
  {
    ScopedSpan span("resolver.ecs_cache.lookup");
    for (std::size_t i = 0; i < n; ++i) {
      const auto& q = trace.queries[i];
      hits += unbounded.lookup(names[q.name], dnscore::RRType::A, q.client, q.time) != nullptr;
    }
  }
  m["ecs_cache.lookup_hit_ns"] = ns_per(seconds_since(start), n);
  for (const auto policy : resolver::kAllEvictionPolicies) {
    resolver::CacheConfig config;
    config.capacity_entries = std::max<std::size_t>(1, n / 16);
    config.policy = policy;
    resolver::EcsCache bounded(config);
    insert_all(bounded, resolver::to_string(policy));
  }
  std::printf("probe bounded: %zu-query trace, bound %zu entries; EcsCache "
              "lookups hit %llu of %zu (sink %llu)\n",
              trace.queries.size(), bound, static_cast<unsigned long long>(hits), n,
              static_cast<unsigned long long>(sink % 10));
}

// ---- resolver, cache, netsim, authoritative, dnscore (resolver_fleet) ----

struct Captured {
  std::unique_ptr<ResolverBed> bed;  // after the probe's drive slices
  std::vector<std::vector<std::uint8_t>> queries;
};

Captured probe_resolver(const Options& o, Metrics& m, RunRecord& record) {
  Captured out;
  out.bed = build_resolver_bed(o.seed);
  auto& bed = out.bed;
  // Two slices warm the caches; the third is measured.
  constexpr std::uint64_t kWarmSlices = 2;
  measurement::WorkloadStats stats;
  for (std::uint64_t s = 0; s <= kWarmSlices; ++s) {
    if (s == kWarmSlices) registry().reset();
    bed->cdn->clear_log();
    ScopedSpan span("measurement.drive_fleet", s);
    stats = drive_fleet(bed->bed, bed->fleet, bed->slice(s));
  }
  record.attempted += stats.client_queries;
  if (stats.answered != stats.client_queries) {
    record.failed += stats.client_queries - stats.answered;
    record.fail("resolver probe: client queries not answered NOERROR");
  }
  const double clients = counter("resolver.client_queries");
  const double hits = counter("cache.hits");
  const double misses = counter("cache.misses");
  const double upstream = counter("resolver.upstream_queries");
  const double round_trips = counter("net.round_trips");
  m["cache.hit_ratio"] = ratio(hits, hits + misses);
  m["cache.insertions_per_query"] = ratio(counter("cache.insertions"), clients);
  m["resolver.upstream_per_query"] = ratio(upstream, clients);
  m["resolver.ecs_upstream_share"] = ratio(counter("resolver.upstream_ecs_queries"), upstream);
  m["resolver.referrals_per_query"] = ratio(counter("resolver.referrals_followed"), clients);
  m["resolver.servfail_rate"] = ratio(counter("resolver.servfails"), clients);
  m["net.round_trips_per_query"] = ratio(round_trips, clients);
  m["net.bytes_per_round_trip"] =
      ratio(counter("net.bytes_sent") + counter("net.bytes_received"), round_trips);
  m["net.timeouts"] = counter("net.timeouts");

  // The zone's logged queries, re-encoded for the authoritative and
  // dnscore probes.
  std::uint16_t id = 1;
  for (const auto& entry : bed->cdn->log()) {
    if (out.queries.size() >= 20000) break;
    auto query = dnscore::Message::make_query(id++, entry.qname, entry.qtype);
    if (entry.query_ecs) query.set_ecs(*entry.query_ecs);
    out.queries.push_back(query.serialize());
  }
  return out;
}

void probe_auth_and_dnscore(const Options& o, Metrics& m, const Captured& captured) {
  auto live_auth = make_live_auth();
  const LiveQueries live = make_live_queries(o.seed);
  struct Job {
    authoritative::AuthServer* auth;
    const std::vector<std::uint8_t>* wire;
  };
  std::vector<Job> jobs;
  for (const auto& q : captured.queries) jobs.push_back({captured.bed->cdn, &q});
  for (std::size_t i = 0; i < 4096; ++i) {
    jobs.push_back({live_auth.get(), &live.wires[live.sequence[i]]});
  }
  authoritative::DispatchScratch scratch;
  std::vector<std::uint8_t> out;
  const auto sender = dnscore::IpAddress::v4(80, 0, 0, 1);
  std::vector<std::vector<std::uint8_t>> responses;
  std::uint64_t with_ecs = 0;
  for (const auto& job : jobs) {
    if (!job.auth->serve_wire(*job.wire, sender, 0, false, scratch, out)) continue;
    with_ecs += dnscore::MessageView(out).has_ecs();
    responses.push_back(out);
  }
  m["auth.ecs_response_share"] =
      ratio(static_cast<double>(with_ecs), static_cast<double>(responses.size()));
  {
    ScopedSpan span("authoritative.serve_wire");
    m["auth.serve_ns"] = time_per_op(0.2, [&] {
      for (const auto& job : jobs) job.auth->serve_wire(*job.wire, sender, 0, false, scratch, out);
      captured.bed->cdn->clear_log();
      return static_cast<std::uint64_t>(jobs.size());
    });
  }

  std::vector<const std::vector<std::uint8_t>*> messages;
  for (const auto& job : jobs) messages.push_back(job.wire);
  for (const auto& r : responses) messages.push_back(&r);
  std::vector<dnscore::Message> parsed;
  std::uint64_t sink = 0;
  {
    ScopedSpan span("dnscore.message_parse");
    m["dnscore.parse_ns"] = time_per_op(0.15, [&] {
      parsed.clear();
      for (const auto* w : messages) parsed.push_back(dnscore::Message::parse(*w));
      return static_cast<std::uint64_t>(messages.size());
    });
  }
  {
    ScopedSpan span("dnscore.message_view");
    m["dnscore.view_ns"] = time_per_op(0.15, [&] {
      for (const auto* w : messages) sink += dnscore::MessageView(*w).id();
      return static_cast<std::uint64_t>(messages.size());
    });
  }
  {
    ScopedSpan span("dnscore.message_serialize");
    m["dnscore.serialize_ns"] = time_per_op(0.15, [&] {
      for (const auto& msg : parsed) sink += msg.serialize().size();
      return static_cast<std::uint64_t>(parsed.size());
    });
  }
  std::printf("probe authoritative/dnscore: %zu queries (%zu from resolver_fleet, "
              "4096 from the live probe), %zu messages (sink %llu)\n",
              jobs.size(), captured.queries.size(), messages.size(),
              static_cast<unsigned long long>(sink % 10));
}

// ---- live: a real UDP server and client on loopback ----

void probe_live(const Options& o, Metrics& m, RunRecord& record) {
  LiveRig rig(o.seed, record.problems);
  registry().reset();
  LiveRig::Tally closed;
  {
    ScopedSpan span("live.closed_loop");
    closed = rig.closed(50000);
  }
  const auto drained = rig.drain();
  LiveRig::OpenResult open;
  {
    ScopedSpan span("live.open_loop");
    open = rig.open(1.0, kOpenRateQps);
  }
  const std::uint64_t failed = closed.failed + drained.failed + open.tally.failed;
  record.attempted += closed.ops + drained.ops + open.tally.ops;
  if (failed > 0) {
    record.failed += failed;
    record.fail("live probe: queries timed out or got a wrong response");
  }
  m["live.rx_per_batch"] = ratio(counter("live.rx_packets"), counter("live.rx_batches"));
  m["live.tx_per_batch"] = ratio(counter("live.tx_packets"), counter("live.tx_batches"));
  m["live.client.retries"] = counter("live.client.retries");
  m["live.client.timeouts"] = counter("live.client.timeouts");
  m["live.drops"] = counter("live.drops");
  m["live.tx_eagain"] = counter("live.tx_eagain");
  m["live.latency_p50_us"] = median(open.window_p50_us);
  m["live.latency_p99_us"] = median(open.window_p99_us);
  m["loadgen.lag_p99_us"] = quantile(open.lag_us, 0.99);
  std::printf("probe live: %llu closed-loop and %llu open-loop queries; send "
              "lag p99 over %zu sends\n",
              static_cast<unsigned long long>(closed.ops),
              static_cast<unsigned long long>(open.tally.ops), open.lag_us.size());
}

}  // namespace

void run_layer_probes(const Options& o, RunRecord& record) {
  auto& m = record.metrics;
  probe_stream_and_fold(o, m);
  probe_runner(o, m);
  probe_bounded(o, m);
  const Captured captured = probe_resolver(o, m, record);
  probe_auth_and_dnscore(o, m, captured);
  probe_live(o, m, record);
}

}  // namespace perfbench
