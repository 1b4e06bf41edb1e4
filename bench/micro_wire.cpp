// Engineering microbenchmarks (google-benchmark): the DNS wire codec and
// ECS option paths that every simulated packet crosses.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include "dnscore/message.h"
#include "dnscore/message_view.h"
#include "netsim/buffer_pool.h"

namespace {

using namespace ecsdns::dnscore;

Message sample_response() {
  Message q = Message::make_query(42, Name::from_string("www.example.com"), RRType::A);
  q.set_ecs(EcsOption::for_query(Prefix::parse("100.64.7.0/24")));
  Message r = Message::make_response(q);
  r.header.aa = true;
  for (int i = 0; i < 4; ++i) {
    r.answers.push_back(ResourceRecord::make_a(
        Name::from_string("www.example.com"), 20,
        IpAddress::v4(95, 0, 0, static_cast<std::uint8_t>(i + 1))));
  }
  r.set_ecs(EcsOption::for_response(Prefix::parse("100.64.7.0/24"), 24));
  return r;
}

void BM_MessageSerialize(benchmark::State& state) {
  const Message m = sample_response();
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.serialize());
  }
}
BENCHMARK(BM_MessageSerialize);

void BM_MessageParse(benchmark::State& state) {
  const auto wire = sample_response().serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Message::parse({wire.data(), wire.size()}));
  }
}
BENCHMARK(BM_MessageParse);

void BM_QueryRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    Message q = Message::make_query(7, Name::from_string("a.b.example.com"), RRType::A);
    q.set_ecs(EcsOption::for_query(Prefix::parse("10.1.2.0/24")));
    const auto wire = q.serialize();
    benchmark::DoNotOptimize(Message::parse({wire.data(), wire.size()}));
  }
}
BENCHMARK(BM_QueryRoundTrip);

void BM_MessageViewConstruct(benchmark::State& state) {
  const auto wire = sample_response().serialize();
  for (auto _ : state) {
    // Full validation walk, zero materialization — the lazy counterpart of
    // BM_MessageParse over the same bytes.
    benchmark::DoNotOptimize(MessageView({wire.data(), wire.size()}));
  }
}
BENCHMARK(BM_MessageViewConstruct);

void BM_MessageViewDispatch(benchmark::State& state) {
  // Header, question and decoded ECS option, read through a view. The
  // benchmark's name is a BENCH_PR10.json key.
  Message q = Message::make_query(42, Name::from_string("www.example.com"), RRType::A);
  q.set_ecs(EcsOption::for_query(Prefix::parse("100.64.7.0/24")));
  const auto wire = q.serialize();
  for (auto _ : state) {
    const MessageView view({wire.data(), wire.size()});
    benchmark::DoNotOptimize(view.qname());
    benchmark::DoNotOptimize(view.qtype());
    benchmark::DoNotOptimize(view.has_ecs());
    benchmark::DoNotOptimize(view.ecs());
  }
}
BENCHMARK(BM_MessageViewDispatch);

void BM_MessageSerializeIntoPooled(benchmark::State& state) {
  const Message m = sample_response();
  ecsdns::netsim::BufferPool pool;
  for (auto _ : state) {
    auto buf = pool.acquire();
    {
      WireWriter writer(buf);
      m.serialize_into(writer);
    }
    benchmark::DoNotOptimize(buf.data());
    pool.release(std::move(buf));
  }
}
BENCHMARK(BM_MessageSerializeIntoPooled);

void BM_NameParseCompressed(benchmark::State& state) {
  WireWriter w;
  Name::from_string("example.com").serialize(w);
  const std::size_t www_at = w.size();
  w.u8(3);
  w.u8('w');
  w.u8('w');
  w.u8('w');
  w.u16(0xc000);
  const auto buf = std::move(w).take();
  for (auto _ : state) {
    WireReader r({buf.data(), buf.size()});
    r.seek(www_at);
    benchmark::DoNotOptimize(Name::parse(r));
  }
}
BENCHMARK(BM_NameParseCompressed);

void BM_EcsEncodeDecode(benchmark::State& state) {
  const auto prefix = Prefix::parse("203.119.87.0/24");
  for (auto _ : state) {
    const auto opt = EcsOption::for_query(prefix).to_edns();
    benchmark::DoNotOptimize(EcsOption::from_edns(opt));
  }
}
BENCHMARK(BM_EcsEncodeDecode);

void BM_EcsValidate(benchmark::State& state) {
  const auto ecs = EcsOption::for_query(Prefix::parse("203.119.87.0/21"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecs.validate(true));
  }
}
BENCHMARK(BM_EcsValidate);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the obs flags
// (--metrics-out/--trace-out) are not google-benchmark flags, so they are
// consumed by ObsSession before Initialize() sees argv.
int main(int argc, char** argv) {
  ecsdns::bench::ObsSession obs_session(argc, argv, "micro_wire");
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
