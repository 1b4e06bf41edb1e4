#include "harness.h"

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <fstream>

namespace perfbench {

double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  unsigned long long kib = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

namespace {

bool set_affinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

}  // namespace

std::vector<int> usable_cpus() {
  std::vector<int> out;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
  }
  return out;
}

ScopedPin::ScopedPin(int cpu) : saved_(usable_cpus()) {
  pinned_ = cpu >= 0 && !saved_.empty() && set_affinity({cpu});
}

ScopedPin::~ScopedPin() {
  if (pinned_) set_affinity(saved_);
}

double timer_resolution_ns() {
  static const double resolution = [] {
    std::uint64_t best = ~0ull;
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t a = now_ns();
      std::uint64_t b = now_ns();
      while (b == a) b = now_ns();
      best = std::min(best, b - a);
    }
    return static_cast<double>(best);
  }();
  return resolution;
}

std::vector<double> time_setups(int fresh, const std::function<void()>& setup,
                                RunRecord& record) {
  std::vector<double> out;
  std::fflush(stdout);  // a child must not flush the parent's buffered output
  for (int i = 0; i < fresh; ++i) {
    int fds[2];
    if (pipe(fds) != 0) {
      record.fail("set-up timing: pipe() failed");
      break;
    }
    const pid_t pid = fork();
    if (pid == 0) {
      close(fds[0]);
      const auto start = Clock::now();
      setup();
      const double s = seconds_since(start);
      _exit(write(fds[1], &s, sizeof(s)) == sizeof(s) ? 0 : 1);
    }
    close(fds[1]);
    double s = 0;
    const bool got = pid > 0 && read(fds[0], &s, sizeof(s)) == sizeof(s);
    close(fds[0]);
    int status = 1;
    if (pid > 0) waitpid(pid, &status, 0);
    if (got && WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      out.push_back(s);
    } else {
      record.fail("set-up timing: a fresh set-up process failed");
    }
  }
  const auto start = Clock::now();
  setup();
  out.push_back(seconds_since(start));
  return out;
}

void finish_end_to_end(const TimedRegion& region, std::uint64_t min_ops,
                       RunRecord& record) {
  record.attempted += region.ops;
  const double ops = static_cast<double>(region.ops);
  if (region.ops < min_ops) {
    record.fail("no-work guard: " + std::to_string(region.ops) +
                " operations in the timed region, need at least " +
                std::to_string(min_ops));
  }
  const double per_op_ns = region.ops == 0 ? 0 : region.wall_s * 1e9 / ops;
  if (per_op_ns < timer_resolution_ns()) {
    record.fail("no-work guard: " + std::to_string(per_op_ns) +
                " ns per operation is below the timer resolution");
  }
  record.metrics["qps"] = median(region.rates);
  record.metrics["setup_s"] = median(region.setup_s);
  std::printf("# set-ups (s):");
  for (const double s : region.setup_s) std::printf(" %.6f", s);
  std::printf("\n");
  record.metrics["peak_rss_mib"] = region.peak_rss_mib;
  record.metrics["allocs_per_query"] =
      region.ops == 0 ? 0 : static_cast<double>(region.allocations) / ops;
}

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

void SpanLog::enable(std::size_t capacity) {
  capacity_ = capacity;
  spans_.reserve(capacity);
  enabled_ = true;
}

std::uint32_t SpanLog::open(const char* name, std::uint64_t batch) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return 0;
  }
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  const std::uint32_t parent = stack_.empty() ? 0 : stack_.back();
  spans_.push_back(Span{name, now_ns(), 0, id, parent, batch});
  stack_.push_back(id);
  return id;
}

void SpanLog::close(std::uint32_t id) {
  spans_[id - 1].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  std::vector<double> child_ms(spans_.size() + 1, 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      child_ms[s.parent] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  std::map<std::string, Totals> out;
  for (const Span& s : spans_) {
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    auto& t = out[s.name];
    ++t.count;
    t.total_ms += ms;
    t.self_ms += ms - child_ms[s.id];
  }
  return out;
}

bool SpanLog::write(const std::string& path, const std::string& header_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << header_json << '\n';
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"batch\":"
        << s.batch << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
