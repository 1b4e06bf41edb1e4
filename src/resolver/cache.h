// The ECS-aware resolver cache (RFC 7871 §7.3).
//
// A classic resolver cache maps (qname, qtype) to one record set. Under ECS
// the same question can hold many simultaneous entries, each valid only for
// clients inside the network announced by the authoritative scope. This is
// exactly the mechanism whose cost the paper quantifies in §7 (cache
// blow-up, hit-rate collapse), so the cache exposes detailed accounting.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dnscore/annotations.h"
#include "dnscore/flat_hash.h"
#include "dnscore/hashing.h"
#include "dnscore/ip.h"
#include "dnscore/name.h"
#include "dnscore/record.h"
#include "dnscore/types.h"
#include "netsim/geo.h"
#include "obs/metrics.h"
#include "resolver/eviction.h"

namespace ecsdns::resolver {

using dnscore::IpAddress;
using dnscore::Name;
using dnscore::Prefix;
using dnscore::ResourceRecord;
using dnscore::RRType;
using netsim::SimTime;

// One cached answer, valid for clients covered by `network` until `expiry`.
struct CacheEntry {
  Prefix network;  // scope-truncated prefix; length 0 = global, any client
  std::vector<ResourceRecord> records;
  std::uint8_t scope = 0;  // scope to echo to clients (RFC 7871 §7.2.1)
  SimTime inserted_at = 0;
  SimTime expiry = 0;
  EntryId id = 0;  // SlotEviction slot; unused in unbounded caches
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t expired_evictions = 0;
  std::uint64_t capacity_evictions = 0;  // evicted live by the bound
  std::uint64_t cleared_entries = 0;     // dropped live by clear()
  std::uint64_t replacements = 0;        // overwritten by a same-network insert
  std::uint64_t ttl_zero_skips = 0;      // TTL-0 answers never cached (RFC 1035)
  std::size_t max_entries = 0;  // high-water mark of live entries

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
  // Every insertion is either still live or left through exactly one exit;
  // tests assert this identity after arbitrary operation sequences.
  std::uint64_t accounted_insertions(std::size_t live) const {
    return static_cast<std::uint64_t>(live) + expired_evictions +
           capacity_evictions + cleared_entries + replacements;
  }
};

class EcsCache {
 public:
  // Unbounded (the paper's §7 baseline): entries leave only by TTL.
  EcsCache();
  // Bounded: once `config.capacity_entries` is exceeded, `config.policy`
  // names victims until the cache fits again.
  explicit EcsCache(CacheConfig config);

  // Looks up an answer valid for `client` at virtual time `now`. A nullopt
  // `client` matches only global (scope 0) entries — that is what a cache
  // lookup without any client identity can safely reuse. The returned
  // pointer is valid only until the next insert/purge on this cache
  // (flat-table storage relocates on mutation); read, don't hold.
  const CacheEntry* lookup(const Name& qname, RRType qtype,
                           const std::optional<IpAddress>& client, SimTime now);

  // Inserts an answer valid for `network` (already truncated to the
  // effective scope by the caller's policy). scope 0 is stored as a global
  // entry. Replaces any existing entry with the same network.
  void insert(const Name& qname, RRType qtype, const Prefix& network,
              std::uint8_t echo_scope, std::vector<ResourceRecord> records,
              SimTime now, SimTime ttl);

  // Drops expired entries; called opportunistically and by tests.
  void purge_expired(SimTime now);

  // Live entries for one question (diagnostics; the §6.3 prober counts
  // upstream queries instead, but tests peek here).
  std::size_t entries_for(const Name& qname, RRType qtype, SimTime now);

  std::size_t size() const noexcept { return live_entries_; }
  const CacheConfig& config() const noexcept { return config_; }
  const CacheStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }
  void clear();

 private:
  struct Key {
    Name qname;
    RRType qtype;
    bool operator==(const Key&) const = default;
    // Shared with the heterogeneous lookup path so a probe by (qname, qtype)
    // hashes identically to the stored Key without materializing one.
    static std::size_t hash_of(const Name& qname, RRType qtype) noexcept {
      return dnscore::hash_combine(qname.hash(),
                                   static_cast<std::size_t>(qtype));
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return Key::hash_of(k.qname, k.qtype);
    }
  };
  // Entries per question are bucketed by scope length and hashed by block,
  // so a lookup probes one bucket per distinct length instead of scanning
  // every cached subnet — the same longest-prefix-first structure real
  // resolvers (and our IpGeoDb) use. The buckets live in a small vector
  // kept sorted by descending length (a question rarely sees more than a
  // handful of distinct scope lengths), and each bucket is a flat
  // open-addressing table: one allocation per bucket instead of one per
  // entry, which is where the §7 replay used to spend its time.
  struct LengthBucket {
    int length = 0;
    dnscore::FlatHashMap<dnscore::Prefix, CacheEntry, dnscore::PrefixHash>
        entries;
  };
  struct QuestionEntries {
    std::vector<LengthBucket> by_length;  // sorted by length, descending
    LengthBucket& bucket_for(int length);
  };

  // Mirrors into the process-wide obs registry: per-instance accounting
  // stays in `stats_` (the pre-existing API surface), while the registry
  // aggregates across every cache in the process for --metrics-out export.
  struct Metrics {
    obs::CounterHandle hits;
    obs::CounterHandle misses;
    obs::CounterHandle insertions;
    obs::CounterHandle expired_evictions;
    obs::CounterHandle capacity_evictions;
    obs::CounterHandle capacity_evictions_policy;  // per-policy breakdown
    obs::CounterHandle cleared_entries;
    obs::CounterHandle replacements;
    obs::CounterHandle ttl_zero_skips;
    obs::HistogramHandle eviction_age_s;  // log2 age at capacity eviction
    obs::GaugeHandle live_entries;
  };

  // Where a live entry sits, so a victim named by slot can be erased
  // without scanning. Maintained only when bounded — the unbounded hot path
  // (the perf-gated §7 replay) never touches it.
  struct EntryLoc {
    Name qname;
    RRType qtype = RRType::A;
    Prefix key;  // bucket key: zero prefix for global entries
    int length = 0;
  };

  dnscore::FlatHashMap<Key, QuestionEntries, KeyHash> map_;
  CacheConfig config_;
  // Bounded-only state, allocated once by the bounded constructor: the
  // victim order, which hands out each live entry's slot (CacheEntry::id),
  // and the slab locating the entry in each slot. Slots are recycled, so
  // the slab stops growing at the bound.
  struct Eviction {
    explicit Eviction(EvictionPolicy policy) : order(policy) {}
    SlotEviction order;
    std::vector<EntryLoc> slots;
  };
  std::unique_ptr<Eviction> eviction_;  // null when unbounded
  CacheStats stats_;
  std::size_t live_entries_ = 0;
  Metrics metrics_;

  void register_metrics();
  void note_size();
  void note_expirations(std::size_t n);
  // Drops a live entry from the eviction bookkeeping (victim order and its
  // slot). No-op stats-wise; callers count the exit themselves.
  // The eviction path runs inside insert(), i.e. on the resolution hot
  // path, and only ever shrinks structures — it must not allocate.
  ECSDNS_NOALLOC void forget_entry(const CacheEntry& entry);
  // Evicts strategy-named victims until an insert adding `incoming_entries`
  // entries fits the configured bound — room is made BEFORE the insert, so
  // the bound is never observably exceeded.
  ECSDNS_NOALLOC void make_room(std::size_t incoming_entries, SimTime now);
  // Evicts exactly one strategy-named victim.
  ECSDNS_NOALLOC void evict_victim(SimTime now);
};

}  // namespace ecsdns::resolver
