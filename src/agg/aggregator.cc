#include "agg/aggregator.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <deque>

#include "common/coding.h"

namespace railgun::agg {

using reservoir::FieldValue;

StatusOr<AggKind> ParseAggKind(const std::string& name) {
  std::string lower;
  for (char c : name) lower.push_back(static_cast<char>(tolower(c)));
  if (lower == "count") return AggKind::kCount;
  if (lower == "sum") return AggKind::kSum;
  if (lower == "avg") return AggKind::kAvg;
  if (lower == "stddev") return AggKind::kStdDev;
  if (lower == "max") return AggKind::kMax;
  if (lower == "min") return AggKind::kMin;
  if (lower == "last") return AggKind::kLast;
  if (lower == "prev") return AggKind::kPrev;
  if (lower == "countdistinct") return AggKind::kCountDistinct;
  return Status::InvalidArgument("unknown aggregation: " + name);
}

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCount: return "count";
    case AggKind::kSum: return "sum";
    case AggKind::kAvg: return "avg";
    case AggKind::kStdDev: return "stdDev";
    case AggKind::kMax: return "max";
    case AggKind::kMin: return "min";
    case AggKind::kLast: return "last";
    case AggKind::kPrev: return "prev";
    case AggKind::kCountDistinct: return "countDistinct";
  }
  return "?";
}

namespace {

double RunSum(const FieldValue* values, size_t n) {
  double sum = 0;
  for (size_t i = 0; i < n; ++i) sum += values[i].ToNumber();
  return sum;
}

// -------------------------------------------------------- count
class CountAggregator : public Aggregator {
 public:
  Status Enter(const FieldValue*, const uint64_t*, size_t n,
               std::string* state, AggContext*) override {
    return Bump(state, static_cast<int64_t>(n));
  }
  Status Expire(const FieldValue*, const uint64_t*, size_t n,
                std::string* state, AggContext*) override {
    return Bump(state, -static_cast<int64_t>(n));
  }
  StatusOr<FieldValue> Result(const std::string& state) const override {
    int64_t n = 0;
    if (!state.empty()) {
      Slice in(state);
      if (!GetVarsint64(&in, &n)) return Status::Corruption("count state");
    }
    return FieldValue(n);
  }

 private:
  static Status Bump(std::string* state, int64_t delta) {
    int64_t n = 0;
    if (!state->empty()) {
      Slice in(*state);
      if (!GetVarsint64(&in, &n)) return Status::Corruption("count state");
    }
    state->clear();
    PutVarsint64(state, n + delta);
    return Status::OK();
  }
};

// -------------------------------------------------------- sum
class SumAggregator : public Aggregator {
 public:
  Status Enter(const FieldValue* values, const uint64_t*, size_t n,
               std::string* state, AggContext*) override {
    return Bump(state, RunSum(values, n));
  }
  Status Expire(const FieldValue* values, const uint64_t*, size_t n,
                std::string* state, AggContext*) override {
    return Bump(state, -RunSum(values, n));
  }
  StatusOr<FieldValue> Result(const std::string& state) const override {
    double sum = 0;
    if (!state.empty()) {
      Slice in(state);
      if (!GetDouble(&in, &sum)) return Status::Corruption("sum state");
    }
    return FieldValue(sum);
  }

 private:
  static Status Bump(std::string* state, double delta) {
    double sum = 0;
    if (!state->empty()) {
      Slice in(*state);
      if (!GetDouble(&in, &sum)) return Status::Corruption("sum state");
    }
    state->clear();
    PutDouble(state, sum + delta);
    return Status::OK();
  }
};

// -------------------------------------------------------- avg
class AvgAggregator : public Aggregator {
 public:
  Status Enter(const FieldValue* values, const uint64_t*, size_t n,
               std::string* state, AggContext*) override {
    return Bump(state, RunSum(values, n), static_cast<int64_t>(n));
  }
  Status Expire(const FieldValue* values, const uint64_t*, size_t n,
                std::string* state, AggContext*) override {
    return Bump(state, -RunSum(values, n), -static_cast<int64_t>(n));
  }
  StatusOr<FieldValue> Result(const std::string& state) const override {
    double sum = 0;
    int64_t n = 0;
    RAILGUN_RETURN_IF_ERROR(Parse(state, &sum, &n));
    return FieldValue(n == 0 ? 0.0 : sum / static_cast<double>(n));
  }

 private:
  static Status Parse(const std::string& state, double* sum, int64_t* n) {
    if (state.empty()) {
      *sum = 0;
      *n = 0;
      return Status::OK();
    }
    Slice in(state);
    if (!GetDouble(&in, sum) || !GetVarsint64(&in, n)) {
      return Status::Corruption("avg state");
    }
    return Status::OK();
  }
  static Status Bump(std::string* state, double dsum, int64_t dn) {
    double sum;
    int64_t n;
    RAILGUN_RETURN_IF_ERROR(Parse(*state, &sum, &n));
    state->clear();
    PutDouble(state, sum + dsum);
    PutVarsint64(state, n + dn);
    return Status::OK();
  }
};

// -------------------------------------------------------- stdDev
// Welford's online algorithm (paper cites [50]); expiry uses the inverse
// update, which is numerically acceptable for the window sizes involved.
class StdDevAggregator : public Aggregator {
 public:
  Status Enter(const FieldValue* values, const uint64_t*, size_t count,
               std::string* state, AggContext*) override {
    int64_t n;
    double mean, m2;
    RAILGUN_RETURN_IF_ERROR(Parse(*state, &n, &mean, &m2));
    for (size_t i = 0; i < count; ++i) {
      const double x = values[i].ToNumber();
      ++n;
      const double delta = x - mean;
      mean += delta / static_cast<double>(n);
      m2 += delta * (x - mean);
    }
    Store(state, n, mean, m2);
    return Status::OK();
  }
  Status Expire(const FieldValue* values, const uint64_t*, size_t count,
                std::string* state, AggContext*) override {
    int64_t n;
    double mean, m2;
    RAILGUN_RETURN_IF_ERROR(Parse(*state, &n, &mean, &m2));
    for (size_t i = 0; i < count; ++i) {
      const double x = values[i].ToNumber();
      if (n <= 1) {
        n = 0;
        mean = 0;
        m2 = 0;
        continue;
      }
      // Inverse Welford step.
      const double mean_prev =
          (static_cast<double>(n) * mean - x) / static_cast<double>(n - 1);
      m2 -= (x - mean) * (x - mean_prev);
      if (m2 < 0) m2 = 0;  // Guard against rounding drift.
      mean = mean_prev;
      --n;
    }
    Store(state, n, mean, m2);
    return Status::OK();
  }
  StatusOr<FieldValue> Result(const std::string& state) const override {
    int64_t n;
    double mean, m2;
    RAILGUN_RETURN_IF_ERROR(Parse(state, &n, &mean, &m2));
    if (n < 2) return FieldValue(0.0);
    return FieldValue(std::sqrt(m2 / static_cast<double>(n - 1)));
  }

 private:
  static Status Parse(const std::string& state, int64_t* n, double* mean,
                      double* m2) {
    if (state.empty()) {
      *n = 0;
      *mean = 0;
      *m2 = 0;
      return Status::OK();
    }
    Slice in(state);
    if (!GetVarsint64(&in, n) || !GetDouble(&in, mean) ||
        !GetDouble(&in, m2)) {
      return Status::Corruption("stddev state");
    }
    return Status::OK();
  }
  static void Store(std::string* state, int64_t n, double mean, double m2) {
    state->clear();
    PutVarsint64(state, n);
    PutDouble(state, mean);
    PutDouble(state, m2);
  }
};

// -------------------------------------------------------- max / min
// Monotonic deque of (value, event offset): O(1) amortized enter/expire,
// exact under expiry (paper stores "a deque structure [30]"). Where
// values never expire, only the front can ever be the result, so the
// deque holds at most that one entry (an older, longer state collapses
// to its front on the next Enter).
class ExtremumAggregator : public Aggregator {
 public:
  ExtremumAggregator(bool is_max, bool values_expire)
      : is_max_(is_max), values_expire_(values_expire) {}

  Status Enter(const FieldValue* values, const uint64_t* offsets, size_t n,
               std::string* state, AggContext*) override {
    std::deque<Entry> dq;
    RAILGUN_RETURN_IF_ERROR(Parse(*state, &dq));
    if (!values_expire_ && dq.size() > 1) dq.resize(1);
    for (size_t i = 0; i < n; ++i) {
      const double x = values[i].ToNumber();
      if (!values_expire_) {
        if (dq.empty() || Dominates(x, dq.front().value)) {
          dq.assign(1, {x, offsets[i]});
        }
        continue;
      }
      while (!dq.empty() && Dominates(x, dq.back().value)) dq.pop_back();
      dq.push_back({x, offsets[i]});
    }
    Store(state, dq);
    return Status::OK();
  }
  Status Expire(const FieldValue*, const uint64_t* offsets, size_t n,
                std::string* state, AggContext*) override {
    std::deque<Entry> dq;
    RAILGUN_RETURN_IF_ERROR(Parse(*state, &dq));
    for (size_t i = 0; i < n; ++i) {
      if (!dq.empty() && dq.front().offset == offsets[i]) dq.pop_front();
    }
    Store(state, dq);
    return Status::OK();
  }
  StatusOr<FieldValue> Result(const std::string& state) const override {
    std::deque<Entry> dq;
    RAILGUN_RETURN_IF_ERROR(Parse(state, &dq));
    if (dq.empty()) return FieldValue(0.0);
    return FieldValue(dq.front().value);
  }

 private:
  struct Entry {
    double value;
    uint64_t offset;
  };
  bool Dominates(double incoming, double resident) const {
    return is_max_ ? incoming >= resident : incoming <= resident;
  }
  static Status Parse(const std::string& state, std::deque<Entry>* dq) {
    dq->clear();
    if (state.empty()) return Status::OK();
    Slice in(state);
    uint32_t n;
    if (!GetVarint32(&in, &n)) return Status::Corruption("deque state");
    for (uint32_t i = 0; i < n; ++i) {
      Entry e;
      uint64_t off;
      if (!GetDouble(&in, &e.value) || !GetVarint64(&in, &off)) {
        return Status::Corruption("deque state");
      }
      e.offset = off;
      dq->push_back(e);
    }
    return Status::OK();
  }
  static void Store(std::string* state, const std::deque<Entry>& dq) {
    state->clear();
    PutVarint32(state, static_cast<uint32_t>(dq.size()));
    for (const auto& e : dq) {
      PutDouble(state, e.value);
      PutVarint64(state, e.offset);
    }
  }
  const bool is_max_;
  const bool values_expire_;
};

// -------------------------------------------------------- last / prev
class LastPrevAggregator : public Aggregator {
 public:
  explicit LastPrevAggregator(bool prev) : prev_(prev) {}

  Status Enter(const FieldValue* values, const uint64_t*, size_t n,
               std::string* state, AggContext*) override {
    double last = 0, prev = 0;
    uint32_t count = 0;
    RAILGUN_RETURN_IF_ERROR(Parse(*state, &count, &last, &prev));
    for (size_t i = 0; i < n; ++i) {
      prev = last;
      last = values[i].ToNumber();
    }
    count = static_cast<uint32_t>(std::min<size_t>(count + n, 2));
    state->clear();
    PutVarint32(state, count);
    PutDouble(state, last);
    PutDouble(state, prev);
    return Status::OK();
  }
  // `last`/`prev` track arrival recency, not window membership.
  Status Expire(const FieldValue*, const uint64_t*, size_t, std::string*,
                AggContext*) override {
    return Status::OK();
  }
  StatusOr<FieldValue> Result(const std::string& state) const override {
    double last = 0, prev = 0;
    uint32_t n = 0;
    RAILGUN_RETURN_IF_ERROR(Parse(state, &n, &last, &prev));
    if (prev_) return FieldValue(n >= 2 ? prev : 0.0);
    return FieldValue(n >= 1 ? last : 0.0);
  }

 private:
  static Status Parse(const std::string& state, uint32_t* n, double* last,
                      double* prev) {
    if (state.empty()) {
      *n = 0;
      *last = *prev = 0;
      return Status::OK();
    }
    Slice in(state);
    if (!GetVarint32(&in, n) || !GetDouble(&in, last) ||
        !GetDouble(&in, prev)) {
      return Status::Corruption("last/prev state");
    }
    return Status::OK();
  }
  const bool prev_;
};

// -------------------------------------------------------- countDistinct
// Distinct count with per-value reference counts in the auxiliary column
// family (paper: "the countDistinct uses an auxiliary column-family in
// RocksDB to hold the counts").
class CountDistinctAggregator : public Aggregator {
 public:
  Status Enter(const FieldValue* values, const uint64_t*, size_t n,
               std::string* state, AggContext* ctx) override {
    RAILGUN_RETURN_IF_ERROR(CheckContext(ctx));
    std::string aux_key = ctx->aux_key_prefix;
    std::string stored;
    int64_t added = 0;
    for (size_t i = 0; i < n; ++i) {
      aux_key.resize(ctx->aux_key_prefix.size());
      aux_key += values[i].ToString();
      int64_t refs = 0;
      Status s = ctx->db->Get(ctx->aux_cf, aux_key, &stored);
      if (s.ok()) {
        Slice in(stored);
        if (!GetVarsint64(&in, &refs)) return Status::Corruption("aux state");
      } else if (!s.IsNotFound()) {
        return s;
      }
      ++refs;
      stored.clear();
      PutVarsint64(&stored, refs);
      RAILGUN_RETURN_IF_ERROR(ctx->db->Put(ctx->aux_cf, aux_key, stored));
      if (refs == 1) ++added;
    }
    return added == 0 ? Status::OK() : BumpDistinct(state, added);
  }
  Status Expire(const FieldValue* values, const uint64_t*, size_t n,
                std::string* state, AggContext* ctx) override {
    RAILGUN_RETURN_IF_ERROR(CheckContext(ctx));
    std::string aux_key = ctx->aux_key_prefix;
    std::string stored;
    int64_t removed = 0;
    for (size_t i = 0; i < n; ++i) {
      aux_key.resize(ctx->aux_key_prefix.size());
      aux_key += values[i].ToString();
      Status s = ctx->db->Get(ctx->aux_cf, aux_key, &stored);
      if (s.IsNotFound()) continue;  // Never entered (reset?).
      RAILGUN_RETURN_IF_ERROR(s);
      int64_t refs = 0;
      Slice in(stored);
      if (!GetVarsint64(&in, &refs)) return Status::Corruption("aux state");
      --refs;
      if (refs <= 0) {
        RAILGUN_RETURN_IF_ERROR(ctx->db->Delete(ctx->aux_cf, aux_key));
        ++removed;
        continue;
      }
      stored.clear();
      PutVarsint64(&stored, refs);
      RAILGUN_RETURN_IF_ERROR(ctx->db->Put(ctx->aux_cf, aux_key, stored));
    }
    return removed == 0 ? Status::OK() : BumpDistinct(state, -removed);
  }
  StatusOr<FieldValue> Result(const std::string& state) const override {
    int64_t n = 0;
    if (!state.empty()) {
      Slice in(state);
      if (!GetVarsint64(&in, &n)) {
        return Status::Corruption("countDistinct state");
      }
    }
    return FieldValue(n);
  }

 private:
  static Status CheckContext(const AggContext* ctx) {
    if (ctx == nullptr || ctx->db == nullptr) {
      return Status::InvalidArgument("countDistinct needs an AggContext");
    }
    return Status::OK();
  }
  static Status BumpDistinct(std::string* state, int64_t delta) {
    int64_t n = 0;
    if (!state->empty()) {
      Slice in(*state);
      if (!GetVarsint64(&in, &n)) {
        return Status::Corruption("countDistinct state");
      }
    }
    state->clear();
    PutVarsint64(state, n + delta);
    return Status::OK();
  }
};

}  // namespace

std::unique_ptr<Aggregator> Aggregator::Create(AggKind kind,
                                               bool values_expire) {
  switch (kind) {
    case AggKind::kCount:
      return std::make_unique<CountAggregator>();
    case AggKind::kSum:
      return std::make_unique<SumAggregator>();
    case AggKind::kAvg:
      return std::make_unique<AvgAggregator>();
    case AggKind::kStdDev:
      return std::make_unique<StdDevAggregator>();
    case AggKind::kMax:
      return std::make_unique<ExtremumAggregator>(/*is_max=*/true,
                                                  values_expire);
    case AggKind::kMin:
      return std::make_unique<ExtremumAggregator>(/*is_max=*/false,
                                                  values_expire);
    case AggKind::kLast:
      return std::make_unique<LastPrevAggregator>(/*prev=*/false);
    case AggKind::kPrev:
      return std::make_unique<LastPrevAggregator>(/*prev=*/true);
    case AggKind::kCountDistinct:
      return std::make_unique<CountDistinctAggregator>();
  }
  return nullptr;
}

}  // namespace railgun::agg
