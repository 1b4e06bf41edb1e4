#include "measurement/trace_stream.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "dnscore/ip.h"

namespace ecsdns::measurement {
namespace {

using netsim::Rng;
using netsim::ZipfSampler;

// Allocates client addresses spread across /24 subnets: `per_subnet`
// clients share each /24, which is what makes ECS scopes bite. (All-Names
// path; the CDN stream derives addresses instead of storing them.)
std::vector<IpAddress> make_clients(std::uint32_t count, std::uint32_t subnets,
                                    Rng& rng) {
  std::vector<IpAddress> out;
  out.reserve(count);
  std::unordered_set<std::uint32_t> used;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t subnet = static_cast<std::uint32_t>(rng.uniform(subnets));
    // Client subnets live in 100.64.0.0-ish space: 100.(s/256).(s%256).host
    for (;;) {
      const std::uint32_t host = 1 + static_cast<std::uint32_t>(rng.uniform(250));
      const std::uint32_t bits = (100u << 24) | ((subnet >> 8) << 16) |
                                 ((subnet & 0xff) << 8) | host;
      if (used.insert(bits).second) {
        out.push_back(IpAddress::v4(bits));
        break;
      }
    }
  }
  return out;
}

int pick_scope(double w24, double w16, double w8, Rng& rng) {
  const double total = w24 + w16 + w8;
  const double u = rng.uniform_double() * total;
  if (u < w24) return 24;
  if (u < w24 + w16) return 16;
  return 8;
}

// The scope table is a property of the CDN, not of any resolver: give it
// its own RNG stream, outside the resolver id space (resolver ids are
// 32-bit, so any id >= 2^32 cannot collide).
constexpr std::uint64_t kScopeStreamId = 1ull << 32;

const PublicResolverCdnConfig& validated(const PublicResolverCdnConfig& config) {
  if (config.min_clients_per_resolver == 0 ||
      config.max_clients_per_resolver < config.min_clients_per_resolver) {
    throw std::invalid_argument(
        "PublicResolverCdnConfig: need 0 < min_clients_per_resolver <= "
        "max_clients_per_resolver");
  }
  if (!(config.min_qps > 0) || !(config.max_qps >= config.min_qps)) {
    throw std::invalid_argument(
        "PublicResolverCdnConfig: need 0 < min_qps <= max_qps");
  }
  if (config.hostnames == 0) {
    throw std::invalid_argument("PublicResolverCdnConfig: need hostnames > 0");
  }
  return config;
}

}  // namespace

TraceStreamInfo scan_trace_info(const Trace& trace) {
  TraceStreamInfo info;
  info.hostnames = trace.hostnames;
  info.resolvers = trace.resolvers;
  info.time_ordered = true;
  SimTime last = -1;
  for (const auto& q : trace.queries) {
    if (q.time < last) info.time_ordered = false;
    last = std::max(last, q.time);
  }
  return info;
}

PublicResolverCdnStream::PublicResolverCdnStream(
    const PublicResolverCdnConfig& config)
    : config_(validated(config)),
      names_(config.hostnames, config.zipf_exponent) {
  info_.hostnames = config.hostnames;
  info_.resolvers = config.resolvers;
  info_.time_ordered = true;

  // Per-hostname authoritative scope (a CDN property of the name).
  Rng scope_rng = Rng::stream(config.seed, kScopeStreamId);
  scope_of_.resize(config.hostnames);
  for (auto& s : scope_of_) {
    s = pick_scope(config.scope24_weight, config.scope16_weight,
                   config.scope8_weight, scope_rng);
  }
}

PublicResolverCdnStream::Member PublicResolverCdnStream::member_of(
    std::uint32_t r) const noexcept {
  // Everything resolver r ever does is a pure function of (seed, r).
  Member m{Rng::stream(config_.seed, r), 0, 0, 0, 0, 0};
  // Population and load sampled log-uniformly: the heterogeneity of a
  // public service's egress fleet (spreads Figure 1 across 1x..16x).
  const double lo = config_.min_clients_per_resolver;
  const double hi = config_.max_clients_per_resolver;
  m.population = static_cast<std::uint32_t>(
      lo * std::exp(m.rng.uniform_double() * std::log(hi / lo)));
  m.subnets = std::max(1u, m.population / 4);  // ~4 clients per /24 block
  m.salt = m.rng.next_u64();
  // Busier resolvers serve more clients: couple qps to population. Equal
  // client bounds leave nothing to couple to.
  const double spread = hi == lo ? 0.0 : (m.population - lo) / (hi - lo);
  const double qps = config_.min_qps + spread *
                                           (config_.max_qps - config_.min_qps) *
                                           (0.5 + m.rng.uniform_double());
  m.mean_gap_us = 1e6 / qps;
  m.arrival = m.rng.exponential(m.mean_gap_us);
  return m;
}

IpAddress PublicResolverCdnStream::client_in(const Member& m,
                                             std::uint32_t k) noexcept {
  const std::uint64_t key = static_cast<std::uint64_t>(k) << 1;
  const std::uint32_t subnet = static_cast<std::uint32_t>(
      dnscore::mix64(m.salt ^ key) % m.subnets) & 0xffffu;
  const std::uint32_t host =
      1 + static_cast<std::uint32_t>(dnscore::mix64(m.salt ^ (key | 1)) % 250);
  const std::uint32_t bits = (100u << 24) | ((subnet >> 8) << 16) |
                             ((subnet & 0xff) << 8) | host;
  return IpAddress::v4(bits);
}

IpAddress PublicResolverCdnStream::client_of(std::uint32_t r,
                                             std::uint32_t k) const noexcept {
  return client_in(member_of(r), k);
}

bool PublicResolverCdnStream::restrict_to_members(std::size_t index,
                                                  std::size_t count) {
  if (started_ || count == 0 || index >= count) return false;
  shard_index_ = index;
  shard_count_ = count;
  return true;
}

void PublicResolverCdnStream::start() {
  started_ = true;
  const std::uint32_t resolvers = config_.resolvers;
  members_.reserve(owned_id_count(resolvers, shard_index_, shard_count_));
  for (std::uint32_t r = 0; r < resolvers; ++r) {
    if (shard_of_id(r, shard_count_) != shard_index_) continue;
    const Member& m = members_.emplace_back(member_of(r));
    if (static_cast<SimTime>(m.arrival) < config_.duration) {
      wheel_.push(static_cast<SimTime>(m.arrival), r,
                  static_cast<std::uint32_t>(members_.size() - 1));
    }
  }
}

bool PublicResolverCdnStream::next(TraceQuery& q) {
  if (!started_) start();
  netsim::TimerEntry<std::uint32_t> entry;
  if (!wheel_.pop_next(entry)) return false;
  Member& m = members_[entry.payload];
  q.time = entry.when;
  q.resolver = static_cast<std::uint32_t>(entry.seq);
  q.client = client_in(m, static_cast<std::uint32_t>(m.rng.uniform(m.population)));
  q.name = static_cast<std::uint32_t>(names_.sample(m.rng));
  q.scope = scope_of_[q.name];
  q.ttl_s = config_.ttl_s;
  m.arrival += m.rng.exponential(m.mean_gap_us);
  if (static_cast<SimTime>(m.arrival) < config_.duration) {
    wheel_.push(static_cast<SimTime>(m.arrival), entry.seq, entry.payload);
  }
  return true;
}

void PublicResolverCdnStream::append_clients(
    std::vector<IpAddress>& out) const {
  for (std::uint32_t r = 0; r < config_.resolvers; ++r) {
    const Member m = member_of(r);
    for (std::uint32_t k = 0; k < m.population; ++k) {
      out.push_back(client_in(m, k));
    }
  }
}

AllNamesStream::AllNamesStream(const AllNamesConfig& config)
    : duration_(config.duration),
      names_(config.hostnames, config.zipf_exponent),
      // Client activity is skewed: a few heavy clients dominate. The
      // population size is fixed by the config, so the sampler can be
      // built before the addresses themselves.
      client_activity_(config.clients, 0.8),
      mean_gap_us_(1e6 / config.queries_per_second),
      rng_(config.seed),
      t_(0) {
  info_.hostnames = config.hostnames;
  info_.resolvers = 1;
  info_.time_ordered = true;

  // Identical draw sequence to the retired materialized generator — the
  // committed fig2/fig3/sec9 CSVs depend on it.
  const auto v6_clients =
      static_cast<std::uint32_t>(config.v6_fraction * config.clients);
  const auto v6_subnets = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(config.v6_fraction * config.client_subnets));
  clients_ = make_clients(config.clients - v6_clients,
                          std::max(1u, config.client_subnets - v6_subnets),
                          rng_);
  // IPv6 clients: each /48 subnet under 2001:db8::/32 hosts several
  // clients, mirroring the dataset's 38.8K addresses in 2.8K /48s.
  for (std::uint32_t i = 0; i < v6_clients; ++i) {
    const std::uint32_t subnet =
        static_cast<std::uint32_t>(rng_.uniform(v6_subnets));
    std::array<std::uint8_t, 16> bytes{};
    bytes[0] = 0x20;
    bytes[1] = 0x01;
    bytes[2] = 0x0d;
    bytes[3] = 0xb8;
    bytes[4] = static_cast<std::uint8_t>(subnet >> 8);
    bytes[5] = static_cast<std::uint8_t>(subnet & 0xff);
    bytes[8] = static_cast<std::uint8_t>(i >> 16);
    bytes[9] = static_cast<std::uint8_t>(i >> 8);
    bytes[10] = static_cast<std::uint8_t>(i & 0xff);
    bytes[15] = 1;
    clients_.push_back(IpAddress::v6(bytes));
  }

  // Assign each hostname to an SLD; scope and TTL are zone properties.
  slds_.resize(config.slds);
  static constexpr std::uint32_t kTtlChoices[] = {20, 30, 60, 120, 300};
  for (auto& sld : slds_) {
    if (!rng_.chance(config.ecs_zone_fraction)) {
      // A zone that has not adopted ECS answers with scope 0 — one cache
      // entry serves every client.
      sld.scope = 0;
      sld.v6_scope = 0;
      sld.ttl_s = kTtlChoices[rng_.uniform(std::size(kTtlChoices))];
      continue;
    }
    // ECS-adopting zones map mostly at /24 with a tail of coarser scopes
    // (the All-Names dataset only contains such responses).
    const double u = rng_.uniform_double();
    if (u < 0.70) {
      sld.scope = 24;
    } else if (u < 0.85) {
      sld.scope = 20;
    } else if (u < 0.95) {
      sld.scope = 16;
    } else {
      sld.scope = 8;
    }
    sld.v6_scope = rng_.chance(0.7) ? 48 : 56;
    sld.ttl_s = kTtlChoices[rng_.uniform(std::size(kTtlChoices))];
  }
  // Hostname-to-SLD assignment follows a Zipf too: big zones have many
  // names.
  sld_of_.resize(config.hostnames);
  const ZipfSampler sld_sampler(config.slds, 1.0);
  for (auto& s : sld_of_) {
    s = static_cast<std::uint32_t>(sld_sampler.sample(rng_));
  }

  t_ = rng_.exponential(mean_gap_us_);
}

bool AllNamesStream::next(TraceQuery& q) {
  if (static_cast<SimTime>(t_) >= duration_) return false;
  q.time = static_cast<SimTime>(t_);
  q.resolver = 0;
  q.client = clients_[client_activity_.sample(rng_)];
  q.name = static_cast<std::uint32_t>(names_.sample(rng_));
  const Sld& sld = slds_[sld_of_[q.name]];
  q.scope = q.client.is_v4() ? sld.scope : sld.v6_scope;
  q.ttl_s = sld.ttl_s;
  t_ += rng_.exponential(mean_gap_us_);
  return true;
}

void AllNamesStream::append_clients(std::vector<IpAddress>& out) const {
  out.insert(out.end(), clients_.begin(), clients_.end());
}

TraceStreamFactory cdn_stream_factory(const PublicResolverCdnConfig& config) {
  return [config]() -> std::unique_ptr<TraceStream> {
    return std::make_unique<PublicResolverCdnStream>(config);
  };
}

Trace drain(TraceStream& stream) {
  Trace trace;
  const TraceStreamInfo& info = stream.info();
  trace.hostnames = info.hostnames;
  trace.resolvers = info.resolvers;
  stream.append_clients(trace.clients);
  TraceQuery q;
  while (stream.next(q)) trace.queries.push_back(q);
  return trace;
}

}  // namespace ecsdns::measurement
