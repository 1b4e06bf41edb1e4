// CPU topology and thread-affinity layer (no hwloc dependency).
//
// `Topology` enumerates the machine's online CPUs, physical packages, and
// SMT siblings straight from sysfs (`/sys/devices/system/cpu`). Its one
// product is `pin_order()`: the CPU list a worker pool should pin against —
// one CPU per physical core first (ascending package, then core id), SMT
// siblings only after every physical core already has a worker. Pinning one
// shard per physical core keeps shard workers off each other's cores; SMT
// siblings share execution ports, so they are last-resort targets.
//
// Everything here is best-effort by design: a container with a masked
// sysfs, a restricted seccomp profile, or a cgroup cpuset that denies
// `pthread_setaffinity_np` must degrade to a normal unpinned run, never an
// error. Pinning is a scheduling hint — results are byte-identical with or
// without it (tests/test_parallel_determinism.cpp pins that).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace ecsdns::netsim {

// One online logical CPU as sysfs describes it.
struct CpuInfo {
  int cpu = 0;            // logical cpu number (cpuN)
  int package = 0;        // topology/physical_package_id
  int core = 0;           // topology/core_id (unique within a package)
  bool smt_sibling = false;  // true when another cpu already covers this core
};

class Topology {
 public:
  // Reads the live sysfs tree. Falls back to flat(hardware_concurrency)
  // when sysfs is missing or unreadable (containers often mask it).
  static Topology detect();

  // Same parse against an arbitrary root — tests point this at canned
  // fixture trees. Expects `<root>/online` (cpu-list format, e.g. "0-3,6")
  // and `<root>/cpu<N>/topology/{physical_package_id,core_id}`.
  static Topology from_sysfs(const std::string& root);

  // A synthetic topology of `n` single-thread cores in one package — the
  // fallback when sysfs tells us nothing.
  static Topology flat(std::size_t n);

  const std::vector<CpuInfo>& cpus() const { return cpus_; }
  std::size_t online_cpus() const { return cpus_.size(); }
  std::size_t physical_cores() const;
  std::size_t packages() const;

  // CPU ids in pinning order: one per physical core ascending
  // (package, core), then the SMT siblings in the same order. Worker w
  // pins to pin_order()[w % size]. Empty only when no CPUs were found.
  std::vector<int> pin_order() const;

 private:
  std::vector<CpuInfo> cpus_;
};

// Parses the sysfs cpu-list format ("0-3,5,8-9") into ascending cpu ids.
// Whitespace-tolerant; malformed ranges are skipped rather than fatal.
std::vector<int> parse_cpu_list(std::string_view text);

// Pins the calling thread to a single CPU. Returns false — with no side
// effects — for out-of-range ids (negative or >= CPU_SETSIZE; CPU_SET is
// undefined behaviour there) or when the affinity syscall is denied.
// Callers treat false as "run unpinned", never as an error.
bool pin_current_thread_to_cpu(int cpu);

// Names the calling thread for perf top/htop/TSan reports. Linux caps
// thread names at 15 characters + NUL; longer names are truncated.
void set_current_thread_name(const char* name);

}  // namespace ecsdns::netsim
