// Pull-based trace streams: the streaming half of the generate -> resolve ->
// aggregate pipeline.
//
// A TraceStream yields TraceQuery records one at a time; consumers
// (cache_sim, the prefix censuses, the probing classifier) fold over it
// incrementally, so a paper-scale run (millions of resolvers, billions of
// queries) never materializes a Trace::queries vector. The materialized
// Trace path survives as MaterializedTraceStream — simulate_cache() wraps a
// Trace in one and runs the identical fold, which is what keeps the two
// paths byte-identical (tests/test_trace_stream.cpp).
//
// Sharded consumption needs no queue between generator and shards: stream
// construction is a pure function of its config (per-resolver Rng streams),
// so every shard builds its *own* instance from the shared factory and
// restricts it to the resolvers it owns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "dnscore/hashing.h"
#include "measurement/tracegen.h"
#include "netsim/rng.h"
#include "netsim/timer_wheel.h"

namespace ecsdns::measurement {

// Shard owning a dense resolver id. The hash is content-based (never a
// pointer or an iteration order), so a partition reproduces exactly across
// runs, platforms, and thread counts — the foundation of the determinism
// contract in docs/parallel_engine.md.
inline std::size_t shard_of_id(std::uint64_t id, std::size_t shards) noexcept {
  return shards <= 1 ? 0 : static_cast<std::size_t>(dnscore::mix64(id) % shards);
}

// How many of the ids [0, ids) shard `index` of `shards` owns: what a shard
// reserves before building per-resolver state for exactly those ids.
inline std::size_t owned_id_count(std::uint32_t ids, std::size_t index,
                                  std::size_t shards) noexcept {
  if (shards <= 1) return ids;
  std::size_t count = 0;
  for (std::uint32_t id = 0; id < ids; ++id) count += shard_of_id(id, shards) == index;
  return count;
}

struct TraceStreamInfo {
  std::uint32_t hostnames = 0;
  std::uint32_t resolvers = 1;
  // Queries arrive sorted by time — precondition for the sharded replay.
  bool time_ordered = false;
};

class TraceStream {
 public:
  virtual ~TraceStream() = default;

  virtual const TraceStreamInfo& info() const noexcept = 0;

  // Yields the next query; false at end of stream.
  virtual bool next(TraceQuery& out) = 0;

  // Appends this stream's client universe (drain() parity with
  // Trace::clients). Generators derive it; default is empty.
  virtual void append_clients(std::vector<IpAddress>&) const {}

  // Restricts the stream to the resolvers owned by shard `index` of
  // `count` under measurement::shard_of_id. Returns true when the stream
  // applied the restriction: it will then yield exactly the owned
  // resolvers' queries — same values, same relative order — as the
  // unrestricted stream filtered. Generators skip the generation work of
  // foreign resolvers entirely, which is what lets a sharded replay split
  // *generation* cost across cores. Must be called before the first
  // next(); false (the default) means unsupported or too late, and the
  // stream is left untouched. simulate_cache_stream requires support
  // whenever it splits a stream over more than one shard.
  // append_clients() keeps reporting the full universe either way.
  virtual bool restrict_to_members(std::size_t index, std::size_t count) {
    (void)index;
    (void)count;
    return false;
  }
};

// Builds fresh, independent instances of one logical stream. Invoked once
// per shard (plus once for the dispatch, which reads only info()); each
// instance replays the same deterministic sequence.
using TraceStreamFactory = std::function<std::unique_ptr<TraceStream>()>;

// Precomputes the info block for a materialized trace (one O(n) scan; do it
// once and share across per-shard stream instances).
TraceStreamInfo scan_trace_info(const Trace& trace);

// Adapter: an existing in-memory Trace viewed as a stream. Holds a
// reference — the trace must outlive the stream.
class MaterializedTraceStream final : public TraceStream {
 public:
  explicit MaterializedTraceStream(const Trace& trace)
      : MaterializedTraceStream(trace, scan_trace_info(trace)) {}
  MaterializedTraceStream(const Trace& trace, const TraceStreamInfo& info)
      : trace_(&trace), info_(info) {}

  const TraceStreamInfo& info() const noexcept override { return info_; }

  bool next(TraceQuery& out) override {
    while (cursor_ < trace_->queries.size()) {
      const TraceQuery& q = trace_->queries[cursor_++];
      if (shard_of_id(q.resolver, count_) == index_) {
        out = q;
        return true;
      }
    }
    return false;
  }

  void append_clients(std::vector<IpAddress>& out) const override {
    out.insert(out.end(), trace_->clients.begin(), trace_->clients.end());
  }

  // Filters: every shard still scans the whole trace, skipping the queries
  // of resolvers it does not own.
  bool restrict_to_members(std::size_t index, std::size_t count) override {
    if (cursor_ != 0 || count == 0 || index >= count) return false;
    index_ = index;
    count_ = count;
    return true;
  }

 private:
  const Trace* trace_;
  std::size_t cursor_ = 0;
  std::size_t index_ = 0;
  std::size_t count_ = 1;
  TraceStreamInfo info_;
};

// Streaming Public Resolver/CDN generator. Unlike the retired materialized
// generator (one shared RNG, generate-all-then-sort), every resolver draws
// from its own Rng::stream(seed, r), so resolver r's traffic is a pure
// function of (seed, r) and the merged stream is produced in time order by
// a timer wheel holding one pending arrival per resolver. Client addresses
// are derived on the fly from a per-resolver salt instead of being stored
// — that is what lets a million-member fleet stream in a bounded-RSS
// process.
//
// Construction is cheap: it keeps the config, the per-hostname scope table
// and the Zipf sampler. Per-resolver state is built by the first next(),
// and only for the resolvers the stream emits (all of them, or the members
// restrict_to_members() selected), as one 64-byte Member record each.
//
// Note: addresses are hash-derived (100.x.y.z from mix64), so unlike the
// old generator's global dedup set, distinct (resolver, k) pairs may rarely
// alias the same address. Cache keys include the resolver id, so aliasing
// only (negligibly) reduces distinct-client counts.
class PublicResolverCdnStream final : public TraceStream {
 public:
  // Throws std::invalid_argument unless 0 < min_clients_per_resolver <=
  // max_clients_per_resolver, 0 < min_qps <= max_qps and hostnames > 0.
  explicit PublicResolverCdnStream(const PublicResolverCdnConfig& config);

  const TraceStreamInfo& info() const noexcept override { return info_; }
  bool next(TraceQuery& out) override;
  void append_clients(std::vector<IpAddress>& out) const override;

  // Records (index, count); the first next() then builds only the owned
  // resolvers' state. Exact because the wheel pops in (when, seq =
  // resolver id) order — leaving foreign resolvers out cannot reorder the
  // survivors — and resolver r's draws come from its own
  // Rng::stream(seed, r), untouched by the restriction.
  bool restrict_to_members(std::size_t index, std::size_t count) override;

  // The client address of slot k in resolver r's population (pure; any r
  // of the fleet, owned or not).
  IpAddress client_of(std::uint32_t r, std::uint32_t k) const noexcept;

 private:
  // One resolver's generator state in a cache line's 64 bytes, no
  // embedded containers; next() reads all of it. The resolver id is not
  // stored; the wheel carries it.
  struct Member {
    netsim::Rng rng;
    double arrival;  // exact (double) next arrival time, us
    double mean_gap_us;
    std::uint64_t salt;
    std::uint32_t population;
    std::uint32_t subnets;
  };
  static_assert(sizeof(Member) == 64, "a Member fills one cache line");
  static_assert(std::is_trivially_copyable_v<Member>);

  // Resolver r's state before its first query: a pure function of
  // (config, r).
  Member member_of(std::uint32_t r) const noexcept;
  static IpAddress client_in(const Member& m, std::uint32_t k) noexcept;
  void start();

  PublicResolverCdnConfig config_;
  TraceStreamInfo info_;
  std::vector<int> scope_of_;  // per hostname
  netsim::ZipfSampler names_;
  std::size_t shard_index_ = 0;
  std::size_t shard_count_ = 1;
  bool started_ = false;
  std::vector<Member> members_;  // owned members, by dense local index
  // One pending arrival per live member: (when, seq = resolver id,
  // payload = local index), so pops run in (time, resolver) order.
  netsim::TimerWheel<std::uint32_t> wheel_;
};

// Streaming All-Names generator: the original single-RNG generator was
// already a sequential time-ordered walk, so this emits the byte-identical
// query sequence (same draws in the same order) one record at a time.
class AllNamesStream final : public TraceStream {
 public:
  explicit AllNamesStream(const AllNamesConfig& config);

  const TraceStreamInfo& info() const noexcept override { return info_; }
  bool next(TraceQuery& out) override;
  void append_clients(std::vector<IpAddress>& out) const override;

 private:
  struct Sld {
    int scope;
    int v6_scope;
    std::uint32_t ttl_s;
  };

  TraceStreamInfo info_;
  SimTime duration_;
  std::vector<IpAddress> clients_;
  std::vector<Sld> slds_;
  std::vector<std::uint32_t> sld_of_;  // hostname -> sld
  netsim::ZipfSampler names_;
  netsim::ZipfSampler client_activity_;
  double mean_gap_us_;
  netsim::Rng rng_;
  double t_;
};

// Factory helpers (each call builds an independent replay of the stream).
TraceStreamFactory cdn_stream_factory(const PublicResolverCdnConfig& config);

// Pulls a stream to exhaustion into a materialized Trace (the compat shim
// the old generator entry points are built on).
Trace drain(TraceStream& stream);

}  // namespace ecsdns::measurement
