#include "measurement/workload.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <type_traits>

#include "measurement/name_table.h"

namespace ecsdns::measurement {
namespace {

// State shared by every event chain of one drive_fleet call. It lives on
// drive_fleet's stack: run_until(end) fires every event scheduled before
// `end`, and nothing is scheduled at or after it, so no event outlives it.
struct Drive {
  Testbed* bed = nullptr;
  const WorkloadOptions* options = nullptr;
  netsim::SimTime end = 0;
  const netsim::ZipfSampler* names = nullptr;
  const NameTable* table = nullptr;
  const std::vector<NameId>* ids = nullptr;
  // Every member's clients, member m's at [m * per_member, (m+1) * per_member).
  std::vector<IpAddress> clients;
  std::uint32_t per_member = 0;
  // One query/response pair serves every query of the drive: the resolver
  // answers into the retained response, so neither is rebuilt per query.
  dnscore::Message query;
  dnscore::Message response;
  WorkloadStats stats;
};

// One self-rescheduling event chain per fleet member. Events capture only
// the chain pointer, a name id and a client index: trivially copyable and
// 16 bytes, so std::function stores them inline instead of on the heap.
struct Chain {
  Drive* drive;
  resolver::RecursiveResolver* resolver;
  netsim::Rng rng;
  std::uint32_t first_client;
  std::uint16_t next_id = 1;

  void fire(NameId name, std::uint32_t client) {
    Drive& d = *drive;
    ++d.stats.client_queries;
    d.query.header.id = next_id++;
    d.query.questions.front().qname = (*d.table)[name];
    if (resolver->handle_client_query_into(d.query, d.clients[first_client + client],
                                           d.response) &&
        d.response.header.rcode == dnscore::RCode::NOERROR) {
      ++d.stats.answered;
    }
  }

  void schedule_next() {
    Drive& d = *drive;
    auto& loop = d.bed->network().loop();
    const auto gap = static_cast<netsim::SimTime>(
        rng.exponential(static_cast<double>(d.options->mean_query_gap)));
    const netsim::SimTime when = loop.now() + std::max<netsim::SimTime>(gap, 1);
    if (when >= d.end) return;
    const auto next = [chain = this] { chain->tick(); };
    static_assert(std::is_trivially_copyable_v<decltype(next)> && sizeof(next) <= 16);
    loop.schedule_at(when, next);
  }

  void tick() {
    Drive& d = *drive;
    const NameId name = (*d.ids)[d.names->sample(rng)];
    // The draw Rng::pick makes over this member's clients.
    const auto client = static_cast<std::uint32_t>(rng.uniform(d.per_member));
    fire(name, client);
    if (rng.chance(d.options->burst_probability)) {
      auto& loop = d.bed->network().loop();
      const netsim::SimTime burst_at = loop.now() + d.options->burst_gap;
      if (burst_at < d.end) {
        const auto repeat = [chain = this, name, client] { chain->fire(name, client); };
        static_assert(std::is_trivially_copyable_v<decltype(repeat)> &&
                      sizeof(repeat) <= 16);
        loop.schedule_at(burst_at, repeat);
      }
    }
    schedule_next();
  }
};

}  // namespace

WorkloadStats drive_fleet(Testbed& bed, Fleet& fleet, const WorkloadOptions& options) {
  if (options.hostnames.empty()) {
    throw std::invalid_argument("workload needs at least one hostname");
  }
  const netsim::ZipfSampler names(options.hostnames.size(), options.zipf_exponent);
  // Intern the hostname universe once; the per-query path below then moves
  // a 32-bit id around instead of copying Name buffers into closures. The
  // index->id vector keeps the Zipf distribution intact even if the caller
  // listed a hostname twice (both indexes intern to one id).
  NameTable table(options.hostnames.size());
  std::vector<NameId> ids;
  ids.reserve(options.hostnames.size());
  for (const Name& hostname : options.hostnames) ids.push_back(table.intern(hostname));

  auto& loop = bed.network().loop();
  Drive drive;
  drive.bed = &bed;
  drive.options = &options;
  drive.end = loop.now() + options.duration;
  drive.names = &names;
  drive.table = &table;
  drive.ids = &ids;
  drive.per_member = static_cast<std::uint32_t>(options.clients_per_resolver);
  drive.query = dnscore::Message::make_query(0, Name{}, dnscore::RRType::A);

  // Clients of member m live in a /24 of the client pool (or a /64 apiece
  // under 2001:db8::/32 for IPv6 populations).
  drive.clients.reserve(fleet.members.size() * drive.per_member);
  std::vector<Chain> chains;
  chains.reserve(fleet.members.size());
  for (std::size_t m = 0; m < fleet.members.size(); ++m) {
    const auto& member = fleet.members[m];
    // Member m draws from its own split stream, so its query sequence does
    // not depend on what any other member drew (see WorkloadOptions::seed).
    chains.push_back(Chain{&drive, member.resolver,
                           netsim::Rng::stream(options.seed, static_cast<std::uint64_t>(m)),
                           static_cast<std::uint32_t>(drive.clients.size())});
    for (int c = 0; c < options.clients_per_resolver; ++c) {
      if (member.v6_clients) {
        std::array<std::uint8_t, 16> bytes{};
        bytes[0] = 0x20;
        bytes[1] = 0x01;
        bytes[2] = 0x0d;
        bytes[3] = 0xb8;
        bytes[4] = static_cast<std::uint8_t>(m >> 8);
        bytes[5] = static_cast<std::uint8_t>(m & 0xff);
        bytes[6] = static_cast<std::uint8_t>(c);
        bytes[15] = 0x42;
        drive.clients.push_back(IpAddress::v6(bytes));
        continue;
      }
      // Host octets start at 0x20: last octets of 0x00/0x01 would collide
      // with the jammed-last-byte fingerprint the census looks for.
      drive.clients.push_back(IpAddress::v4(
          (120u << 24) | ((static_cast<std::uint32_t>(m) >> 8) << 16) |
          ((static_cast<std::uint32_t>(m) & 0xff) << 8) |
          static_cast<std::uint32_t>(c + 0x20)));
    }
  }

  // Thousands of resolvers run concurrently here; their round trips must
  // overlap rather than serialize onto the shared clock (see
  // Network::set_advance_clock). Restored when the drive finishes.
  const bool prev_advance = bed.network().advance_clock();
  bed.network().set_advance_clock(false);
  for (Chain& chain : chains) chain.schedule_next();
  loop.run_until(drive.end);
  bed.network().set_advance_clock(prev_advance);
  return drive.stats;
}

}  // namespace ecsdns::measurement
