// The three workloads and the per-layer probe suite of the traced run.
//
// Each workload times its set-up in several fresh processes (setup_s is the
// median, see time_setups), then repeats timed operations until its time budget is spent, then checks its
// outputs. In a traced run the budget is split: the first half runs
// untraced, the second half with spans on, so trace.overhead_pct compares
// the two halves of one process.
#pragma once

#include <cstdint>
#include <string>

#include "harness.h"
#include "measurement/cache_sim.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  // Worker threads for the sharded runner: min(4, online CPUs).
  std::size_t threads = 1;
};

// Forked fresh set-ups per run; setup_s is the median of these and the
// run's own set-up.
inline constexpr int kFreshSetups = 20;

// Keys the workloads use to hand the traced run's two qps figures to main.
inline constexpr const char* kQpsUntraced = "_qps_untraced";
inline constexpr const char* kQpsTraced = "_qps_traced";

// Fewest operations a timed region may complete (the no-work guard).
inline constexpr std::uint64_t kMinOps = 1000;
// Span capacity of a traced run (~40 MB).
inline constexpr std::size_t kSpanCapacity = 1u << 20;

// Runs the timed batches for the whole budget, or in a traced run half
// untraced and half traced, then fills the end-to-end metrics from the
// untraced part. Spans stay on afterwards for the layer probes.
template <class Batch>
void run_phases(const Options& o, TimedRegion& region, RunRecord& record,
                Batch&& batch) {
  std::uint64_t index = 0;
  run_batches(o.traced ? o.seconds / 2 : o.seconds, index, region, batch);
  finish_end_to_end(region, kMinOps, record);
  if (!o.traced) return;
  SpanLog::instance().enable(kSpanCapacity);
  TimedRegion traced;
  run_batches(o.seconds / 2, index, traced, batch);
  RunRecord traced_record;
  finish_end_to_end(traced, kMinOps, traced_record);
  record.attempted += traced_record.attempted;
  for (auto& p : traced_record.problems) record.fail(p);
  record.metrics[kQpsUntraced] = record.metrics["qps"];
  record.metrics[kQpsTraced] = traced_record.metrics["qps"];
}

// Digest of every per-resolver row of a cache replay.
inline std::uint64_t full_digest(const ecsdns::measurement::CacheSimResult& r) {
  Digest d;
  d.add(r.per_resolver.size());
  for (const auto& row : r.per_resolver) {
    d.add(row.resolver);
    d.add(row.hits);
    d.add(row.misses);
    d.add(row.max_cache_size);
    d.add(row.premature_evictions);
  }
  return d.value();
}

RunRecord run_fleet_replay(const Options& options);
RunRecord run_bounded_sweep(const Options& options);
RunRecord run_resolver_fleet(const Options& options);

// Runs every per-layer probe (each on the inputs of the workload its layer
// is predicted to move, generated from the same seed) and adds the
// per-layer metrics to `record`.
void run_layer_probes(const Options& options, RunRecord& record);

}  // namespace perfbench
