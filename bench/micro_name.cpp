// Engineering microbenchmarks for dnscore::Name — the packed small-buffer
// representation every cache key and wire message flows through. Three name
// shapes bracket the design space: a short CDN hostname (inline storage),
// a deep QNAME-minimization-style chain (inline, many labels), and a
// maximal 255-octet name (heap spill).
#include <benchmark/benchmark.h>

#include <string>

#include "bench_common.h"

#include "dnscore/name.h"
#include "dnscore/wire.h"

namespace {

using namespace ecsdns;
using dnscore::Name;
using dnscore::WireReader;
using dnscore::WireWriter;

// Presentation-form inputs for the three shapes.
std::string shape_text(int shape) {
  switch (shape) {
    case 0:  // short: the common CDN hostname, packs to 17 octets (inline)
      return "www.example.com";
    case 1: {  // deep: 12 labels, packs to 43 octets (inline, label-heavy)
      std::string text = "a";
      for (char c = 'b'; c <= 'l'; ++c) {
        text += '.';
        text += c;
      }
      text += ".example.com";
      return text;
    }
    default: {  // max: 4 x 61-octet labels + "ex" = 251 packed octets (heap)
      std::string text;
      for (int i = 0; i < 4; ++i) {
        if (!text.empty()) text += '.';
        text += std::string(61, static_cast<char>('a' + i));
      }
      text += ".ex";
      return text;
    }
  }
}

const char* shape_label(int shape) {
  return shape == 0 ? "short" : shape == 1 ? "deep" : "max255";
}

void BM_NameFromString(benchmark::State& state) {
  const std::string text = shape_text(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Name::from_string(text));
  }
  state.SetLabel(shape_label(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_NameFromString)->Arg(0)->Arg(1)->Arg(2);

void BM_NameSerialize(benchmark::State& state) {
  const Name name = Name::from_string(shape_text(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    WireWriter writer;
    name.serialize(writer);
    benchmark::DoNotOptimize(writer.data());
  }
  state.SetLabel(shape_label(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_NameSerialize)->Arg(0)->Arg(1)->Arg(2);

void BM_NameParse(benchmark::State& state) {
  const Name name = Name::from_string(shape_text(static_cast<int>(state.range(0))));
  WireWriter writer;
  name.serialize(writer);
  const auto wire = writer.data();
  for (auto _ : state) {
    WireReader reader(wire);
    benchmark::DoNotOptimize(Name::parse(reader));
  }
  state.SetLabel(shape_label(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_NameParse)->Arg(0)->Arg(1)->Arg(2);

// Worst case for the lazy hash cache: a fresh Name per iteration, so every
// hash() walks the octets. The cached path is BM_NameHashCached.
void BM_NameHashCold(benchmark::State& state) {
  const std::string text = shape_text(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const Name name = Name::from_string(text);
    benchmark::DoNotOptimize(name.hash());
  }
  state.SetLabel(shape_label(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_NameHashCold)->Arg(0)->Arg(1)->Arg(2);

// The cache-probe path: the same Name hashed repeatedly. After the first
// call hash() is one relaxed atomic load of the cached value, so this times
// a cached-hash load, not hashing cost (that is BM_NameHashCold); sub-ns
// results are expected.
void BM_NameHashCached(benchmark::State& state) {
  const Name name = Name::from_string(shape_text(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(name.hash());
  }
  state.SetLabel(std::string(shape_label(static_cast<int>(state.range(0)))) +
                 " (cached-hash load, not hashing cost)");
}
BENCHMARK(BM_NameHashCached)->Arg(0)->Arg(1)->Arg(2);

// Case-insensitive equality of equal names — the full-buffer compare that
// open-addressing probes pay on every hash match.
void BM_NameCompareEqual(benchmark::State& state) {
  const std::string text = shape_text(static_cast<int>(state.range(0)));
  std::string upper = text;
  for (char& c : upper) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  const Name a = Name::from_string(text);
  const Name b = Name::from_string(upper);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a == b);
  }
  state.SetLabel(shape_label(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_NameCompareEqual)->Arg(0)->Arg(1)->Arg(2);

// Copying is what keying containers on Name costs: inline names are a flat
// 64-byte copy, the max shape adds one heap block.
void BM_NameCopy(benchmark::State& state) {
  const Name name = Name::from_string(shape_text(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    Name copy = name;
    benchmark::DoNotOptimize(copy);
  }
  state.SetLabel(shape_label(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_NameCopy)->Arg(0)->Arg(1)->Arg(2);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the obs flags
// (--metrics-out/--trace-out) are not google-benchmark flags, so they are
// consumed by ObsSession before Initialize() sees argv.
int main(int argc, char** argv) {
  ecsdns::bench::ObsSession obs_session(argc, argv, "micro_name");
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
