#include "netsim/sharded_runner.h"

#include <pthread.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

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

void run_sharded(std::size_t shards, const RunnerConfig& config,
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

  if (threads == 1) {
    work(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w) {
      pool.emplace_back([&, w] {
        char name[16];
        std::snprintf(name, sizeof(name), "shard-%zu", w);
        set_current_thread_name(name);
        work(w);
      });
    }
    for (auto& t : pool) t.join();
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
}

void set_current_thread_name(const char* name) {
  char truncated[16];
  std::strncpy(truncated, name, sizeof(truncated) - 1);
  truncated[sizeof(truncated) - 1] = '\0';
  pthread_setname_np(pthread_self(), truncated);
}

}  // namespace ecsdns::netsim
