#include "oracle.h"

#include <algorithm>

namespace perfbench {

void WindowOracle::Add(size_t key, int64_t ts, double amount) {
  Series& s = keys_[key];
  if (s.prefix.empty()) s.prefix.push_back(0);
  s.ts.push_back(ts);
  s.prefix.push_back(s.prefix.back() + amount);
}

void WindowOracle::Query(size_t key, int64_t t, const WindowBounds& window,
                         double* sum, int64_t* count) const {
  const Series& s = keys_[key];
  const int64_t hi = t - window.delay;
  const int64_t lo = hi - window.size;
  const auto first = std::lower_bound(s.ts.begin(), s.ts.end(), lo);
  const auto last = std::upper_bound(s.ts.begin(), s.ts.end(), hi);
  const size_t a = static_cast<size_t>(first - s.ts.begin());
  const size_t b = static_cast<size_t>(last - s.ts.begin());
  if (b <= a) {
    *sum = 0;
    *count = 0;
    return;
  }
  *sum = s.prefix[b] - s.prefix[a];
  *count = static_cast<int64_t>(b - a);
}

bool CheckReply(const railgun::api::EventResult& result,
                const std::string& group, const std::vector<Expected>& want) {
  if (!result.ok()) return false;
  for (const Expected& e : want) {
    const railgun::api::MetricValue* got = result.Find(*e.metric, group);
    if (got == nullptr) return false;
    const railgun::reservoir::FieldValue& v = got->value;
    double actual;
    if (v.is_double()) {
      actual = v.as_double();
    } else if (v.is_int()) {
      actual = static_cast<double>(v.as_int());
    } else {
      return false;
    }
    if (actual != e.value) return false;
  }
  return true;
}

}  // namespace perfbench
