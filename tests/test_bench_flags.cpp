// The bench binaries' shared flag parsing and ObsSession export schema.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "obs/metrics.h"

namespace ecsdns::bench {
namespace {

// Owns mutable argv storage (flag() takes char**, as main() provides).
struct Argv {
  explicit Argv(std::initializer_list<const char*> args) {
    for (const char* a : args) store.emplace_back(a);
    for (auto& s : store) ptrs.push_back(s.data());
  }
  int argc() { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }

  std::vector<std::string> store;
  std::vector<char*> ptrs;
};

TEST(BenchFlags, ParsesPresentAndAbsentIntegerFlags) {
  Argv args({"bench", "--shards=4", "--minutes=90", "--offset=-12"});
  EXPECT_EQ(flag(args.argc(), args.argv(), "shards", 1), 4);
  EXPECT_EQ(flag(args.argc(), args.argv(), "minutes", 5), 90);
  EXPECT_EQ(flag(args.argc(), args.argv(), "offset", 0), -12);
  EXPECT_EQ(flag(args.argc(), args.argv(), "absent", 7), 7);
  // "--shards=4" must not satisfy a lookup for "shard".
  EXPECT_EQ(flag(args.argc(), args.argv(), "shard", 3), 3);
}

TEST(BenchFlags, ParsesStringFlags) {
  Argv args({"bench", "--metrics-out=/tmp/m.json"});
  EXPECT_EQ(str_flag(args.argc(), args.argv(), "metrics-out"), "/tmp/m.json");
  EXPECT_EQ(str_flag(args.argc(), args.argv(), "trace-out"), "");
}

using BenchFlagsDeathTest = ::testing::Test;

TEST(BenchFlagsDeathTest, RejectsTrailingGarbage) {
  // Before the strict parser, "--shards=4x" silently ran with 4 shards.
  Argv args({"bench", "--shards=4x"});
  EXPECT_EXIT(flag(args.argc(), args.argv(), "shards", 1),
              ::testing::ExitedWithCode(2), "expected an integer");
}

TEST(BenchFlagsDeathTest, RejectsEmptyAndNonNumericValues) {
  Argv empty({"bench", "--shards="});
  EXPECT_EXIT(flag(empty.argc(), empty.argv(), "shards", 1),
              ::testing::ExitedWithCode(2), "expected an integer");
  Argv alpha({"bench", "--shards=four"});
  EXPECT_EXIT(flag(alpha.argc(), alpha.argv(), "shards", 1),
              ::testing::ExitedWithCode(2), "expected an integer");
}

TEST(BenchFlagsDeathTest, RejectsOutOfRangeValues) {
  Argv args({"bench", "--shards=999999999999999999999999999"});
  EXPECT_EXIT(flag(args.argc(), args.argv(), "shards", 1),
              ::testing::ExitedWithCode(2), "out of range");
}

TEST(BenchFlags, ObsSessionRecordsShardsAndExportSchema) {
  const std::string path = ::testing::TempDir() + "bench_flags_metrics.json";
  const std::string out_flag = "--metrics-out=" + path;
  Argv args({"bench", "--shards=3", out_flag.c_str()});
  {
    ObsSession session(args.argc(), args.argv(), "schema-test");
    EXPECT_EQ(session.shards(), 3);
    obs::MetricsRegistry::global().counter("cache_sim.queries").inc(5);
    session.finish();
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << path;
  std::string doc;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) doc.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  // The schema the satellite pins down: run identity, wall-clock duration,
  // and the shard count of the run.
  for (const char* key :
       {"\"schema\":\"ecsdns.metrics.v1\"", "\"run\":\"schema-test\"",
        "\"wall_ms\":", "\"run.shards\":{\"value\":3,\"max\":3}",
        "\"cache_sim.queries\":5"}) {
    EXPECT_NE(doc.find(key), std::string::npos) << "missing " << key << " in " << doc;
  }
}

TEST(BenchFlags, ObsSessionDefaultsToOneShard) {
  Argv args({"bench"});
  ObsSession session(args.argc(), args.argv(), "default-shards");
  EXPECT_EQ(session.shards(), 1);
  Argv zero({"bench", "--shards=0"});
  ObsSession session0(zero.argc(), zero.argv(), "zero-shards");
  EXPECT_EQ(session0.shards(), 1);
}

TEST(BenchFlagsDeathTest, ThreadsFlagUsesTheStrictParser) {
  Argv threads({"bench", "--threads=2x"});
  EXPECT_EXIT(ObsSession(threads.argc(), threads.argv(), "bad-threads"),
              ::testing::ExitedWithCode(2), "expected an integer");
}

TEST(BenchFlags, ObsSessionParsesThreads) {
  Argv args({"bench", "--threads=3"});
  ObsSession session(args.argc(), args.argv(), "threads");
  EXPECT_EQ(session.threads(), 3);

  // Absent or sub-1 --threads resolves to the shared default.
  EXPECT_GE(default_thread_count(), 1);
  Argv bare({"bench"});
  ObsSession fallback(bare.argc(), bare.argv(), "threads-default");
  EXPECT_EQ(fallback.threads(), default_thread_count());
  Argv zero({"bench", "--threads=0"});
  ObsSession zeroed(zero.argc(), zero.argv(), "threads-zero");
  EXPECT_EQ(zeroed.threads(), default_thread_count());
}

TEST(BenchFlags, ObsSessionExportsThreadGauge) {
  const std::string path = ::testing::TempDir() + "bench_flags_threads.json";
  const std::string out_flag = "--metrics-out=" + path;
  Argv args({"bench", "--threads=2", out_flag.c_str()});
  {
    ObsSession session(args.argc(), args.argv(), "threads-schema");
    session.finish();
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << path;
  std::string doc;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) doc.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  const char* key = "\"run.threads\":{\"value\":2,\"max\":2}";
  EXPECT_NE(doc.find(key), std::string::npos) << "missing " << key << " in " << doc;
}

}  // namespace
}  // namespace ecsdns::bench
