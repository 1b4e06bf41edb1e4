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
#include <span>
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
  // (the entry slab relocates when it grows); read, don't hold.
  ECSDNS_NOALLOC const CacheEntry* lookup(const Name& qname, RRType qtype,
                                          const std::optional<IpAddress>& client,
                                          SimTime now);

  // Inserts an answer valid for `network` (already truncated to the
  // effective scope by the caller's policy). scope 0 is stored as a global
  // entry. Replaces any existing entry with the same network. The records
  // are copied into the entry slot's retained storage.
  void insert(const Name& qname, RRType qtype, const Prefix& network,
              std::uint8_t echo_scope, std::span<const ResourceRecord> records,
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
  static constexpr std::uint32_t kNil = 0xffffffffu;

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
  // Entries are stored flat: one slab of slots per cache, indexed by slot
  // number (a bounded cache's SlotEviction slot; unbounded caches recycle
  // freed slots through their own freelist). A freed slot keeps its record
  // vector's capacity, so an insert into a recycled slot copies records
  // without allocating. Each slot knows its question and sits on an
  // intrusive chain of the entries sharing its (question, scope length).
  struct Slot {
    CacheEntry entry;
    std::uint32_t question = kNil;
    std::uint32_t prev = kNil;  // chain neighbours (same question and
    std::uint32_t next = kNil;  // length); `next` also links free slots
  };
  // A question's entries of one scope length: the head of their chain.
  struct LengthChain {
    int length = 0;
    std::uint32_t head = kNil;
  };
  // Questions are interned into a recycled slab too. A live question holds
  // one chain per scope length present, longest first, so a lookup probes
  // one block per distinct length — the same longest-prefix-first walk
  // real resolvers (and our IpGeoDb) use. A question whose last entry left
  // returns to the freelist with its chain vector's capacity intact.
  struct Question {
    Key key;
    std::vector<LengthChain> lengths;  // descending length; empty = free
    std::uint32_t next_free = kNil;
  };
  // The block an entry is filed under: the zero prefix for global entries.
  // A scoped block carries the client's family, so cross-family entries of
  // one length never collide.
  struct BlockKey {
    std::uint32_t question = 0;
    Prefix block;
    bool operator==(const BlockKey&) const = default;
  };
  struct BlockKeyHash {
    std::size_t operator()(const BlockKey& k) const noexcept {
      return dnscore::hash_combine(k.block.hash(), k.question);
    }
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

  dnscore::FlatHashMap<Key, std::uint32_t, KeyHash> question_index_;
  dnscore::FlatHashMap<BlockKey, std::uint32_t, BlockKeyHash> block_index_;
  std::vector<Question> questions_;
  std::vector<Slot> slots_;
  std::uint32_t free_question_ = kNil;
  std::uint32_t free_slot_ = kNil;  // unbounded only
  CacheConfig config_;
  // Bounded only: the victim order, which hands out each live entry's slot.
  // Slots are recycled, so the slab stops growing at the bound.
  std::unique_ptr<SlotEviction> eviction_;  // null when unbounded
  CacheStats stats_;
  std::size_t live_entries_ = 0;
  const Metrics* metrics_ = nullptr;  // shared by every cache with this policy

  static const Metrics& metrics_for(EvictionPolicy policy);
  void note_size();
  ECSDNS_NOALLOC void note_expirations(std::size_t n);
  ECSDNS_NOALLOC std::uint32_t find_question(const Name& qname, RRType qtype) const;
  // Claims a slot for a new (question, block) entry and files it under its
  // question, interning the question first if needed. The one place where
  // the slabs and the index tables grow.
  ECSDNS_MAY_BLOCK std::uint32_t claim_slot(const Name& qname, RRType qtype,
                                            const Prefix& block, int length);
  // Takes `slot` off `chain` and frees it: out of the block index and the
  // victim order. Callers count the exit and drop emptied chains.
  ECSDNS_NOALLOC void unlink(std::uint32_t slot, LengthChain& chain);
  // Frees every entry on `chain` expired at `now`; returns how many went.
  ECSDNS_NOALLOC std::size_t sweep(LengthChain& chain, SimTime now);
  // Returns a question with no chain left to the freelist.
  ECSDNS_NOALLOC void release_question(std::uint32_t question);
  // Evicts strategy-named victims until an insert adding `incoming_entries`
  // entries fits the configured bound — room is made BEFORE the insert, so
  // the bound is never observably exceeded.
  ECSDNS_NOALLOC void make_room(std::size_t incoming_entries, SimTime now);
  // Evicts exactly one strategy-named victim.
  ECSDNS_NOALLOC void evict_victim(SimTime now);
};

}  // namespace ecsdns::resolver
