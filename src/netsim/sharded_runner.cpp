#include "netsim/sharded_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "netsim/topology.h"

namespace ecsdns::netsim {

namespace {

// Monotonic microseconds for the opt-in runtime metrics. steady_clock, not
// wall clock: timing is run metadata, never simulation input.
std::uint64_t runtime_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::size_t run_sharded(std::size_t shards, const RunnerConfig& config,
                        obs::MetricsRegistry& merged, const ShardFn& fn) {
  if (shards == 0) throw std::invalid_argument("run_sharded: no shards");
  std::size_t threads = config.threads;
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  threads = std::min(threads, shards);

  std::vector<obs::MetricsRegistry> registries(shards);
  std::vector<std::exception_ptr> errors(shards);
  std::vector<std::uint64_t> finished_us(threads, 0);
  auto work = [&](std::size_t w) {
    for (std::size_t i = w; i < shards; i += threads) {
      const std::uint64_t t0 = config.runtime_metrics ? runtime_now_us() : 0;
      try {
        fn(i, registries[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      if (config.runtime_metrics) {
        registries[i]
            .counter("engine.shard" + std::to_string(i) + ".busy_us")
            .inc(runtime_now_us() - t0);
      }
    }
    if (config.runtime_metrics) finished_us[w] = runtime_now_us();
  };

  std::size_t pinned = 0;
  if (threads == 1 && !config.pin_threads) {
    work(0);
  } else {
    std::vector<int> targets;
    if (config.pin_threads) {
      targets = config.pin_cpus.empty() ? Topology::detect().pin_order()
                                        : config.pin_cpus;
    }
    std::atomic<std::size_t> pins{0};
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w) {
      pool.emplace_back([&, w] {
        char name[16];
        std::snprintf(name, sizeof(name), "shard-%zu", w);
        set_current_thread_name(name);
        if (!targets.empty() &&
            pin_current_thread_to_cpu(targets[w % targets.size()])) {
          pins.fetch_add(1, std::memory_order_relaxed);
        }
        work(w);
      });
    }
    for (auto& t : pool) t.join();
    pinned = pins.load(std::memory_order_relaxed);
    if (config.pin_threads && pinned < threads) {
      // Graceful fallback, not an error: containers and restricted CI deny
      // the affinity syscall. Results are unaffected; only say so once.
      std::fprintf(stderr,
                   "[run_sharded] warning: pinned %zu/%zu workers "
                   "(affinity unavailable); continuing unpinned\n",
                   pinned, threads);
    }
  }
  if (config.runtime_metrics) {
    const std::uint64_t joined = runtime_now_us();
    for (std::size_t w = 0; w < threads; ++w) {
      registries[w].histogram("engine.barrier_wait_us").observe(joined - finished_us[w]);
    }
  }

  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  for (const auto& registry : registries) merged.merge_from(registry);
  return pinned;
}

}  // namespace ecsdns::netsim
