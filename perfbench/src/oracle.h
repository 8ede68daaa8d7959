// Brute-force reference computations every reply is checked against.
//
// RunningOracle: per-key running sum/count — exact for windows that never
// expire inside a run, because per-key order is preserved end to end.
// WindowOracle: per-key prefix sums over the full event history, answering
// sum/count over [t - delay - size, t - delay] for any window, the same
// inclusive edges as src/window (heads enter at ts <= now - delay, tails
// expire at ts < now - delay - size). Event timestamps must be strictly
// increasing, so every event inside the bounds has already arrived.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/result.h"

namespace perfbench {

// One metric value an event's reply must carry.
struct Expected {
  const std::string* metric;  // Full decorated metric name.
  double value;
};

class RunningOracle {
 public:
  explicit RunningOracle(size_t num_keys) : sum_(num_keys), count_(num_keys) {}
  // Records one event and returns the (sum, count) it must observe.
  void Add(size_t key, double amount, double* sum, int64_t* count) {
    sum_[key] += amount;
    *sum = sum_[key];
    *count = ++count_[key];
  }

 private:
  std::vector<double> sum_;
  std::vector<int64_t> count_;
};

struct WindowBounds {
  int64_t size = 0;   // Micros.
  int64_t delay = 0;  // Micros.
};

class WindowOracle {
 public:
  explicit WindowOracle(size_t num_keys) : keys_(num_keys) {}
  // Appends an event; timestamps must be strictly increasing overall.
  void Add(size_t key, int64_t ts, double amount);
  // Sum and count of `key`'s events with ts in [t - d - s, t - d].
  void Query(size_t key, int64_t t, const WindowBounds& window, double* sum,
             int64_t* count) const;

 private:
  struct Series {
    std::vector<int64_t> ts;
    std::vector<double> prefix;  // prefix[i] = sum of amounts [0, i).
  };
  std::vector<Series> keys_;
};

// True when `result` is OK and carries every expected metric for `group`
// with exactly the expected value (sums are exact: the workloads use
// dyadic amounts, so float addition order does not matter).
bool CheckReply(const railgun::api::EventResult& result,
                const std::string& group, const std::vector<Expected>& want);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
