// Timer-queue microbenchmarks: the hierarchical timer wheel at the
// pending-set sizes the streaming pipeline actually holds (one arrival
// timer per fleet member, so 1M pending at paper scale). The profiled
// steady-state op is the event loop's inner loop: pop the earliest timer,
// do nothing, reschedule one at a random future offset.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "bench_common.h"

#include "netsim/event_loop.h"
#include "netsim/rng.h"
#include "netsim/timer_wheel.h"

namespace {

using namespace ecsdns;
using netsim::SimTime;

// Mean gap between a popped timer and its replacement. Matches the trace
// generators' inter-query gaps (seconds of sim time in microsecond units),
// so wheel entries spread across levels 3-5 the way real arrivals do.
constexpr double kMeanGapUs = 2.0e6;

void BM_TimerWheelChurn(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  netsim::TimerWheel<unsigned> queue;
  netsim::Rng rng(7);
  SimTime now = 0;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < pending; ++i) {
    queue.push(static_cast<SimTime>(rng.exponential(kMeanGapUs)), seq++, 0u);
  }
  netsim::TimerEntry<unsigned> entry{};
  for (auto _ : state) {
    queue.pop_next(entry);
    now = entry.when;
    queue.push(now + 1 + static_cast<SimTime>(rng.exponential(kMeanGapUs)),
               seq++, 0u);
  }
  benchmark::DoNotOptimize(now);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TimerWheelChurn)->Arg(1000)->Arg(100000)->Arg(1000000);

// End-to-end through the EventLoop (std::function payloads, schedule_at
// validation): one self-rescheduling chain per simulated member, run for a
// fixed count of firings.
void BM_EventLoopWheel(benchmark::State& state) {
  const auto chains = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    netsim::EventLoop loop;
    netsim::Rng rng(11);
    std::uint64_t fired = 0;
    const std::uint64_t quota = chains * 4;
    std::function<void()> tick;
    // One shared callback: reschedules itself until the quota is met.
    tick = [&] {
      if (++fired >= quota) return;
      loop.schedule_at(
          loop.now() + 1 + static_cast<SimTime>(rng.exponential(kMeanGapUs)),
          tick);
    };
    for (std::size_t i = 0; i < chains; ++i) {
      loop.schedule_at(1 + static_cast<SimTime>(rng.exponential(kMeanGapUs)),
                       tick);
    }
    state.ResumeTiming();
    loop.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chains) * 4);
}
BENCHMARK(BM_EventLoopWheel)->Arg(1000)->Arg(100000);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the obs flags
// (--metrics-out/--trace-out) are not google-benchmark flags, so they are
// consumed by ObsSession before Initialize() sees argv.
int main(int argc, char** argv) {
  ecsdns::bench::ObsSession obs_session(argc, argv, "micro_timer");
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) continue;
    if (std::strncmp(argv[i], "--trace-out=", 12) == 0) continue;
    passthrough.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
