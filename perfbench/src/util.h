// Measurement helpers shared by the benchmark's load loops: clocks, process
// resource counters read from /proc and getrusage, percentiles, and the
// flat metric map the benchmark prints as JSON.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic wall clock in microseconds (fractional).
inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process CPU time (user + sys, all threads) in microseconds.
double ProcessCpuUs();

// Peak resident set size (VmHWM) in MB; 0 if unavailable.
double PeakRssMb();
// Returns free heap pages to the OS and restarts the VmHWM peak from the
// current resident size.
void ResetPeakRss();

// Aggregate CPU jiffies from the first line of /proc/stat.
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
};
HostCpu ReadHostCpu();
// Steal share of host CPU time between two samples.
double StealFraction(const HostCpu& before, const HostCpu& after);

// Per-process I/O counters from /proc/self/io (file and pipe reads and
// writes; socket send/recv do not count there), plus the TCP segments
// sent and received in this network namespace from /proc/net/snmp.
struct ProcIo {
  uint64_t syscr = 0;
  uint64_t syscw = 0;
  uint64_t tcp_segments = 0;  // InSegs + OutSegs.
};
ProcIo ReadProcIo();

// Value at quantile q in [0, 1] (nearest rank on a sorted copy); 0 for an
// empty input.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// Metric name -> value, printed as one JSON object.
using Metrics = std::map<std::string, double>;

// Serializes a JSON object {"key": value, ...} with full precision.
std::string ToJson(const Metrics& metrics);

// Recursively removes a directory tree (no error if absent).
void RemoveTree(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
