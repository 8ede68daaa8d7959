#include "util.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/env.h"

namespace perfbench {

double ProcessCpuUs() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto us = [](const struct timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

void ResetPeakRss() {
  malloc_trim(0);  // Hand freed heap pages back first.
  // Writing 5 to clear_refs resets the peak RSS (Linux >= 4.0).
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

HostCpu ReadHostCpu() {
  HostCpu cpu;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return cpu;
  // user nice system idle iowait irq softirq steal ...
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    cpu.total += v;
    if (i == 7) cpu.steal = v;
  }
  return cpu;
}

double StealFraction(const HostCpu& before, const HostCpu& after) {
  const uint64_t total = after.total - before.total;
  if (total == 0) return 0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(total);
}

ProcIo ReadProcIo() {
  ProcIo io;
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "syscr:") io.syscr = value;
    if (key == "syscw:") io.syscw = value;
  }
  // /proc/net/snmp holds a "Tcp:" header line followed by a "Tcp:" value
  // line; pick InSegs and OutSegs by column.
  std::ifstream snmp("/proc/net/snmp");
  std::string line;
  std::vector<std::string> header;
  while (std::getline(snmp, line)) {
    if (line.rfind("Tcp:", 0) != 0) continue;
    std::istringstream fields(line);
    std::vector<std::string> row;
    for (std::string f; fields >> f;) row.push_back(f);
    if (header.empty()) {
      header = row;
      continue;
    }
    for (size_t i = 1; i < row.size() && i < header.size(); ++i) {
      if (header[i] == "InSegs" || header[i] == "OutSegs") {
        io.tcp_segments += std::strtoull(row[i].c_str(), nullptr, 10);
      }
    }
    break;
  }
  return io;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  // Nearest rank: the smallest value with at least q of the values at or
  // below it.
  const double n = static_cast<double>(values.size());
  const size_t rank = std::min(
      values.size() - 1, static_cast<size_t>(std::max(0.0, std::ceil(q * n) - 1)));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

std::string ToJson(const Metrics& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char buf[64];
    if (std::isfinite(value)) {
      snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      snprintf(buf, sizeof(buf), "null");
    }
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": " + buf;
  }
  return out + "}";
}

void RemoveTree(const std::string& path) {
  (void)railgun::Env::Default()->RemoveDirRecursive(path);
}

}  // namespace perfbench
