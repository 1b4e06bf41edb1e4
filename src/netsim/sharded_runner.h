// Fork-join execution of share-nothing shards.
//
// run_sharded(shards, config, merged, fn) calls fn(i, metrics_i) once for
// every shard i in [0, shards) on a pool of worker threads and returns when
// every call has returned. Shards share nothing while they run: each gets
// its own obs::MetricsRegistry, folded into `merged` in shard-index order
// after the join. With a fixed shard count, results and the merged metrics
// are therefore bit-identical at any thread count — the thread count only
// changes wall-clock time (the determinism contract,
// docs/parallel_engine.md). A shard that needs randomness draws from
// Rng::stream(seed, i), a pure function of its index.
#pragma once

#include <cstddef>
#include <functional>

#include "obs/metrics.h"

namespace ecsdns::netsim {

struct RunnerConfig {
  // Worker threads; 0 = one per shard, capped at the hardware concurrency.
  // Worker w runs shards w, w + threads, w + 2 * threads, ... One thread
  // runs every shard inline in the caller.
  std::size_t threads = 0;
  // Wall-clock runtime metrics in the per-shard registries: an
  // `engine.shard<i>.busy_us` counter per shard (time inside fn) and an
  // `engine.barrier_wait_us` log2 histogram with one sample per worker
  // (time from the worker's last shard to the join). Run metadata, exempt
  // from the byte-identity contract, so off by default; the determinism
  // tests compare full exports and keep it off.
  bool runtime_metrics = false;
};

using ShardFn = std::function<void(std::size_t shard, obs::MetricsRegistry& metrics)>;

// Runs every shard to completion. If shards throw, the exception of the
// lowest-indexed one is rethrown once every shard has stopped, and nothing
// is merged. Throws std::invalid_argument for zero shards.
void run_sharded(std::size_t shards, const RunnerConfig& config,
                 obs::MetricsRegistry& merged, const ShardFn& fn);

// Names the calling thread for perf top/htop/TSan reports (the runner's
// workers are `shard-N`). Linux caps thread names at 15 characters + NUL;
// longer names are truncated.
void set_current_thread_name(const char* name);

}  // namespace ecsdns::netsim
