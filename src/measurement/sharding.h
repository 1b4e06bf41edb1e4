// Stable shard partitioning of the cache replay's resolvers. The hash is
// content-based (never a pointer or an iteration order), so a partition
// reproduces exactly across runs, platforms, and thread counts — the
// foundation of the determinism contract in docs/parallel_engine.md.
#pragma once

#include <cstddef>
#include <cstdint>

#include "dnscore/hashing.h"

namespace ecsdns::measurement {

// The shared SplitMix64 finalizer; re-exported under the historical name so
// existing call sites keep reading naturally.
using dnscore::mix64;

// Shard owning a dense integer id (resolver ids).
inline std::size_t shard_of_id(std::uint64_t id, std::size_t shards) noexcept {
  return shards <= 1 ? 0 : static_cast<std::size_t>(mix64(id) % shards);
}

}  // namespace ecsdns::measurement
