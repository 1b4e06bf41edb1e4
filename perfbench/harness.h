// Shared plumbing of the ecsdns benchmark: clocks, quantiles, the run
// record every workload fills in, and the in-memory span log of the traced
// run.
//
// Nothing here is part of the library under test. Spans are recorded by the
// benchmark around its own calls into each layer, so the untraced run pays
// one predictable branch per call site and the library is unchanged.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/alloc_counter.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Deterministic generator for the benchmark's own inputs (splitmix64): the
// seed argument reaches the library only through the inputs made here.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

 private:
  std::uint64_t state_;
};

// Nearest-rank quantile (0 <= q <= 1) of an unsorted sample; 0 when empty.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(q * static_cast<double>(n) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, n);
  return values[rank - 1];
}

inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// VmHWM of this process in MiB (0 where procfs is unavailable).
double peak_rss_mib();

// CPUs this process may run on, ascending.
std::vector<int> usable_cpus();

// Pins the calling thread to one CPU for the object's lifetime, then
// restores its previous mask (threads it starts meanwhile inherit the pin).
// A no-op when cpu < 0 or affinity is denied.
class ScopedPin {
 public:
  explicit ScopedPin(int cpu);
  ~ScopedPin();
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  std::vector<int> saved_;
  bool pinned_ = false;
};

// Smallest non-zero step of the steady clock, in ns, measured at startup.
double timer_resolution_ns();

// FNV-style fold of 64-bit words, for full result digests.
class Digest {
 public:
  void add(std::uint64_t v) { h_ = (h_ ^ v) * 1099511628211ull; }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

// What one workload run reports back to main().
struct RunRecord {
  // Operations attempted and failed in the timed region(s), output-check
  // failures included.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Problems found by the output checks or the no-work guard; any entry
  // makes the run incorrect.
  std::vector<std::string> problems;
  // Metric name -> value, as declared in BENCHMARK.json.
  std::map<std::string, double> metrics;

  void fail(const std::string& what) { problems.push_back(what); }
};

// One timed region's tally, turned into end-to-end metrics by finish().
struct TimedRegion {
  std::vector<double> setup_s;         // one entry per set-up (time_setups)
  std::vector<double> rates;           // ops/s of each timed batch
  std::uint64_t ops = 0;
  std::uint64_t allocations = 0;
  double wall_s = 0;
  double peak_rss_mib = 0;             // VmHWM after kRssBatches batches
};

// Times `setup` once in each of `fresh` child processes forked from this
// one, then once here, and returns every duration in seconds. Each child
// starts from this process's state before any set-up, so every figure is
// the first set-up of its process and pays the first-time costs (page
// faults, an empty heap) that a new run pays. Call it before the process
// has started any thread. A child that fails adds a problem to `record`
// instead of a duration.
std::vector<double> time_setups(int fresh, const std::function<void()>& setup,
                                RunRecord& record);

// Fills the end-to-end metrics shared by every workload and applies the
// no-work guard (too few operations, or per-operation time below the timer
// resolution, fails the run).
void finish_end_to_end(const TimedRegion& region, std::uint64_t min_ops,
                       RunRecord& record);

// Allocation counter reading (the counting hooks are linked into the
// benchmark binary, so this advances on every operator new).
inline std::uint64_t allocations() { return ecsdns::obs::allocation_count(); }

// One timed batch: operations completed, wall time and heap allocations
// between construction and finish().
class Lap {
 public:
  Lap() : start_(Clock::now()), allocations_(allocations()) {}
  void finish(std::uint64_t ops) {
    wall_s = seconds_since(start_);
    allocs = allocations() - allocations_;
    this->ops = ops;
  }
  std::uint64_t ops = 0;
  double wall_s = 0;
  std::uint64_t allocs = 0;

 private:
  Clock::time_point start_;
  std::uint64_t allocations_;
};

inline void add_lap(const Lap& lap, TimedRegion& region) {
  region.ops += lap.ops;
  region.wall_s += lap.wall_s;
  region.allocations += lap.allocs;
  if (lap.wall_s > 0) {
    region.rates.push_back(static_cast<double>(lap.ops) / lap.wall_s);
  }
}

// peak_rss_mib is read after this many batches (or at the end of a shorter
// region): a fixed amount of work, so memory that grows slowly with run
// length does not make the figure depend on speed.
inline constexpr std::uint64_t kRssBatches = 8;

// Calls batch(index) until `seconds` have elapsed (at least once). Each
// call returns the Lap of its timed part; anything it does after
// Lap::finish (output checks) is not timed.
template <class Batch>
void run_batches(double seconds, std::uint64_t& next_index, TimedRegion& region,
                 Batch&& batch) {
  const auto start = Clock::now();
  do {
    add_lap(batch(next_index++), region);
    if (next_index == kRssBatches) region.peak_rss_mib = peak_rss_mib();
  } while (seconds_since(start) < seconds);
  if (region.peak_rss_mib == 0) region.peak_rss_mib = peak_rss_mib();
}

// ---- traced run ----

struct Span {
  const char* name;  // a string literal: spans outlive their call sites
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint32_t id;      // 1-based; 0 = none
  std::uint32_t parent;  // enclosing span, 0 at top level
  std::uint64_t batch;   // shared id of the request or batch
};

// Single-threaded span log kept in memory and written out when the run
// ends. Spans nest by construction order (a stack), so a span's self time
// is its duration minus its direct children's durations.
class SpanLog {
 public:
  static SpanLog& instance();

  void enable(std::size_t capacity);
  bool enabled() const noexcept { return enabled_; }
  std::uint32_t open(const char* name, std::uint64_t batch);
  void close(std::uint32_t id);

  struct Totals {
    std::uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  // Per span name: count, total and self time.
  std::map<std::string, Totals> totals() const;
  std::uint64_t dropped() const noexcept { return dropped_; }

  // JSON lines: one header line, then one line per span.
  bool write(const std::string& path, const std::string& header_json) const;

 private:
  bool enabled_ = false;
  std::size_t capacity_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

// RAII span; a no-op when the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t batch = 0)
      : id_(SpanLog::instance().enabled() ? SpanLog::instance().open(name, batch)
                                          : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) SpanLog::instance().close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::uint32_t id_;
};

}  // namespace perfbench
