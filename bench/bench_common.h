// Shared helpers for the experiment binaries: flag parsing, the
// paper-vs-measured report format every bench prints, and the ObsSession
// wrapper that exports the run's metrics/trace when asked to.
#pragma once

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "dnscore/annotations.h"
#include "obs/alloc_counter.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ecsdns::bench {

// Parses "--name=value" integer flags; returns `fallback` when absent. A
// malformed value — empty, trailing garbage ("--shards=4x"), or out of
// range — is a hard error (exit 2): silently truncating would run the
// bench with a number the user never asked for.
inline long flag(int argc, char** argv, const char* name, long fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) != 0) continue;
    const char* text = argv[i] + prefix.size();
    errno = 0;
    char* end = nullptr;
    const long value = std::strtol(text, &end, 10);
    if (end == text || *end != '\0') {
      std::fprintf(stderr, "error: %s: expected an integer, got \"%s\"\n",
                   argv[i], text);
      std::exit(2);
    }
    if (errno == ERANGE) {
      std::fprintf(stderr, "error: %s: value out of range\n", argv[i]);
      std::exit(2);
    }
    return value;
  }
  return fallback;
}

// The shared default for every bench's --threads flag: hardware_concurrency,
// never less than 1.
inline long default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<long>(hw);
}

// Parses "--name=value" string flags; returns "" when absent.
inline std::string str_flag(int argc, char** argv, const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return {};
}

// High-water-mark resident set size of this process in bytes (VmHWM from
// /proc/self/status), or 0 where procfs is unavailable. A property of the
// run environment like wall_ms — never simulation state — so it is exempt
// from the cross-shard byte-identity contract.
ECSDNS_NONDETERMINISTIC_OK inline std::uint64_t peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  std::uint64_t kib = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB",
                    reinterpret_cast<unsigned long long*>(&kib)) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib * 1024;
}

// Per-run observability scope. Construct at the top of main(); on
// destruction it writes the global registry to --metrics-out=FILE and the
// trace ring to --trace-out=FILE (tracing is only switched on when a trace
// destination was requested, so untraced runs pay one cold branch per event).
class ObsSession {
 public:
  ObsSession(int argc, char** argv, const char* run_name)
      : run_name_(run_name),
        metrics_path_(str_flag(argc, argv, "metrics-out")),
        trace_path_(str_flag(argc, argv, "trace-out")),
        shards_(flag(argc, argv, "shards", 1)),
        threads_(flag(argc, argv, "threads", 0)),
        start_(std::chrono::steady_clock::now()) {
    if (shards_ < 1) shards_ = 1;
    if (threads_ < 1) threads_ = default_thread_count();
    auto& registry = obs::MetricsRegistry::global();
    registry.reset();
    obs::preregister_core_metrics(registry);
    // Every bench records its shard count so an exported metrics document
    // says how the run was parallelized (wall_ms is only comparable within
    // one shard count; the simulation metrics must not differ at all).
    // The thread count is the same kind of run metadata.
    registry.gauge("run.shards").set(shards_);
    registry.gauge("run.threads").set(threads_);
    auto& tracer = obs::TraceRing::global();
    tracer.clear();
    tracer.set_enabled(!trace_path_.empty());
  }

  // The validated --shards=N value (>= 1, default 1).
  long shards() const { return shards_; }
  // The validated --threads=N value; absent or < 1 resolves to
  // default_thread_count().
  long threads() const { return threads_; }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  ~ObsSession() { finish(); }

  void finish() {
    if (finished_) return;
    finished_ = true;
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    if (!metrics_path_.empty()) {
      // Heap allocations observed during this run (see obs/alloc_counter.h;
      // non-zero only in binaries linking bench/alloc_hooks.cpp). A run
      // property like wall_ms, not simulation state, so it is exempt from
      // the cross-shard byte-identity contract.
      obs::MetricsRegistry::global().gauge("run.allocations").set(
          static_cast<std::int64_t>(obs::allocation_count() - start_allocations_));
      // Peak RSS at export time: every bench reports memory, not just the
      // perf harness's getrusage wrapper. Run metadata like wall_ms.
      obs::MetricsRegistry::global().gauge("run.peak_rss_bytes").set(
          static_cast<std::int64_t>(peak_rss_bytes()));
      const std::string doc = obs::metrics_json(obs::MetricsRegistry::global(),
                                                run_name_, wall_ms);
      if (obs::write_text_file(metrics_path_, doc)) {
        std::fprintf(stderr, "[obs] metrics written to %s\n",
                     metrics_path_.c_str());
      } else {
        std::fprintf(stderr, "[obs] failed to write %s\n",
                     metrics_path_.c_str());
      }
    }
    auto& tracer = obs::TraceRing::global();
    if (!trace_path_.empty()) {
      const std::string doc = obs::trace_json(tracer);
      if (obs::write_text_file(trace_path_, doc)) {
        std::fprintf(stderr, "[obs] trace written to %s (%llu events)\n",
                     trace_path_.c_str(),
                     static_cast<unsigned long long>(tracer.recorded()));
      } else {
        std::fprintf(stderr, "[obs] failed to write %s\n",
                     trace_path_.c_str());
      }
    }
    tracer.set_enabled(false);
  }

 private:
  std::string run_name_;
  std::string metrics_path_;
  std::string trace_path_;
  long shards_ = 1;
  long threads_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t start_allocations_ = obs::allocation_count();
  bool finished_ = false;
};

inline void banner(const char* experiment, const char* paper_artifact) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("reproduces: %s\n", paper_artifact);
  std::printf("================================================================\n");
}

inline void compare(const char* metric, const char* paper, const char* measured) {
  std::printf("  %-46s paper: %-18s measured: %s\n", metric, paper, measured);
}

}  // namespace ecsdns::bench
