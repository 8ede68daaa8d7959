// Tests for every aggregator (paper Fig. 4), including expiry semantics,
// a property sweep comparing the incremental aggregators against
// brute-force recomputation over a sliding window, and a check that the
// length of the runs values arrive in does not change results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "agg/aggregator.h"
#include "common/random.h"
#include "storage/db.h"

namespace railgun::agg {
namespace {

using reservoir::FieldValue;

// One-value runs.
Status EnterOne(Aggregator* agg, const FieldValue& value, uint64_t offset,
                std::string* state, AggContext* ctx) {
  return agg->Enter(&value, &offset, 1, state, ctx);
}
Status ExpireOne(Aggregator* agg, const FieldValue& value, uint64_t offset,
                 std::string* state, AggContext* ctx) {
  return agg->Expire(&value, &offset, 1, state, ctx);
}

double ResultOf(Aggregator* agg, const std::string& state) {
  auto r = agg->Result(state);
  EXPECT_TRUE(r.ok());
  return r.value().ToNumber();
}

TEST(AggKindTest, ParseAllNames) {
  EXPECT_EQ(ParseAggKind("count").value(), AggKind::kCount);
  EXPECT_EQ(ParseAggKind("SUM").value(), AggKind::kSum);
  EXPECT_EQ(ParseAggKind("Avg").value(), AggKind::kAvg);
  EXPECT_EQ(ParseAggKind("stdDev").value(), AggKind::kStdDev);
  EXPECT_EQ(ParseAggKind("max").value(), AggKind::kMax);
  EXPECT_EQ(ParseAggKind("min").value(), AggKind::kMin);
  EXPECT_EQ(ParseAggKind("last").value(), AggKind::kLast);
  EXPECT_EQ(ParseAggKind("prev").value(), AggKind::kPrev);
  EXPECT_EQ(ParseAggKind("countDistinct").value(), AggKind::kCountDistinct);
  EXPECT_FALSE(ParseAggKind("median").ok());
}

TEST(CountTest, EnterExpire) {
  auto agg = Aggregator::Create(AggKind::kCount);
  std::string state;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        EnterOne(agg.get(), FieldValue(1.0), i, &state, nullptr).ok());
  }
  EXPECT_EQ(ResultOf(agg.get(), state), 5);
  ASSERT_TRUE(
      ExpireOne(agg.get(), FieldValue(1.0), 0, &state, nullptr).ok());
  EXPECT_EQ(ResultOf(agg.get(), state), 4);
}

TEST(SumTest, EnterExpireWithNegatives) {
  auto agg = Aggregator::Create(AggKind::kSum);
  std::string state;
  ASSERT_TRUE(EnterOne(agg.get(), FieldValue(10.5), 1, &state, nullptr).ok());
  ASSERT_TRUE(EnterOne(agg.get(), FieldValue(-3.25), 2, &state, nullptr).ok());
  EXPECT_DOUBLE_EQ(ResultOf(agg.get(), state), 7.25);
  ASSERT_TRUE(ExpireOne(agg.get(), FieldValue(10.5), 1, &state, nullptr).ok());
  EXPECT_DOUBLE_EQ(ResultOf(agg.get(), state), -3.25);
}

TEST(AvgTest, TracksSumAndCount) {
  auto agg = Aggregator::Create(AggKind::kAvg);
  std::string state;
  for (double v : {2.0, 4.0, 6.0}) {
    ASSERT_TRUE(EnterOne(agg.get(), FieldValue(v), 1, &state, nullptr).ok());
  }
  EXPECT_DOUBLE_EQ(ResultOf(agg.get(), state), 4.0);
  ASSERT_TRUE(ExpireOne(agg.get(), FieldValue(2.0), 1, &state, nullptr).ok());
  EXPECT_DOUBLE_EQ(ResultOf(agg.get(), state), 5.0);
}

TEST(AvgTest, EmptyWindowIsZero) {
  auto agg = Aggregator::Create(AggKind::kAvg);
  std::string state;
  EXPECT_DOUBLE_EQ(ResultOf(agg.get(), state), 0.0);
  ASSERT_TRUE(EnterOne(agg.get(), FieldValue(5.0), 1, &state, nullptr).ok());
  ASSERT_TRUE(ExpireOne(agg.get(), FieldValue(5.0), 1, &state, nullptr).ok());
  EXPECT_DOUBLE_EQ(ResultOf(agg.get(), state), 0.0);
}

TEST(StdDevTest, MatchesClosedForm) {
  auto agg = Aggregator::Create(AggKind::kStdDev);
  std::string state;
  const double values[] = {2, 4, 4, 4, 5, 5, 7, 9};
  for (double v : values) {
    ASSERT_TRUE(EnterOne(agg.get(), FieldValue(v), 1, &state, nullptr).ok());
  }
  // Sample stddev of this classic set: sqrt(32/7).
  EXPECT_NEAR(ResultOf(agg.get(), state), std::sqrt(32.0 / 7.0), 1e-9);
}

TEST(StdDevTest, ExpiryInvertsWelford) {
  auto agg = Aggregator::Create(AggKind::kStdDev);
  std::string state;
  // Enter 1..6, expire 1: result equals stddev of 2..6.
  for (int v = 1; v <= 6; ++v) {
    ASSERT_TRUE(EnterOne(agg.get(), FieldValue(static_cast<double>(v)), 1,
                         &state, nullptr)
                    .ok());
  }
  ASSERT_TRUE(ExpireOne(agg.get(), FieldValue(1.0), 1, &state, nullptr).ok());
  // stddev({2,3,4,5,6}) = sqrt(10/4).
  EXPECT_NEAR(ResultOf(agg.get(), state), std::sqrt(10.0 / 4.0), 1e-9);
}

TEST(MaxMinTest, MonotonicDequeExactUnderExpiry) {
  auto max_agg = Aggregator::Create(AggKind::kMax);
  auto min_agg = Aggregator::Create(AggKind::kMin);
  std::string max_state, min_state;

  const double values[] = {5, 3, 8, 1, 8, 2};
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(EnterOne(max_agg.get(), FieldValue(values[i]), i,
                         &max_state, nullptr).ok());
    ASSERT_TRUE(EnterOne(min_agg.get(), FieldValue(values[i]), i,
                         &min_state, nullptr).ok());
  }
  EXPECT_DOUBLE_EQ(ResultOf(max_agg.get(), max_state), 8);
  EXPECT_DOUBLE_EQ(ResultOf(min_agg.get(), min_state), 1);

  // Expire events 0..3 (FIFO): window = {8, 2}.
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(ExpireOne(max_agg.get(), FieldValue(values[i]), i,
                          &max_state, nullptr).ok());
    ASSERT_TRUE(ExpireOne(min_agg.get(), FieldValue(values[i]), i,
                          &min_state, nullptr).ok());
  }
  EXPECT_DOUBLE_EQ(ResultOf(max_agg.get(), max_state), 8);
  EXPECT_DOUBLE_EQ(ResultOf(min_agg.get(), min_state), 2);
}

TEST(MaxMinTest, NonExpiringStateKeepsOnlyTheExtremum) {
  for (AggKind kind : {AggKind::kMax, AggKind::kMin}) {
    SCOPED_TRACE(AggKindName(kind));
    const bool is_max = kind == AggKind::kMax;
    auto expiring = Aggregator::Create(kind);
    auto bounded = Aggregator::Create(kind, /*values_expire=*/false);
    std::string long_state, state;
    double best = is_max ? -1e300 : 1e300;
    size_t size_after_first = 0;
    for (uint64_t i = 0; i < 2000; ++i) {
      // Falling values for max, rising for min: nothing is dominated.
      const double x = is_max ? 1e6 - i : static_cast<double>(i);
      best = is_max ? std::max(best, x) : std::min(best, x);
      ASSERT_TRUE(EnterOne(expiring.get(), FieldValue(x), i, &long_state,
                           nullptr).ok());
      ASSERT_TRUE(
          EnterOne(bounded.get(), FieldValue(x), i, &state, nullptr).ok());
      ASSERT_DOUBLE_EQ(ResultOf(bounded.get(), state), best);
      if (i == 0) size_after_first = state.size();
    }
    EXPECT_EQ(state.size(), size_after_first);
    EXPECT_GT(long_state.size(), 1000 * size_after_first);

    // A state written with every entry (same format) collapses to its
    // front on the next Enter and keeps the same result.
    ASSERT_TRUE(EnterOne(bounded.get(), FieldValue(is_max ? 0.0 : 1e7),
                         2000, &long_state, nullptr).ok());
    EXPECT_EQ(long_state, state);
    EXPECT_DOUBLE_EQ(ResultOf(bounded.get(), long_state), best);
  }
}

TEST(LastPrevTest, TracksRecency) {
  auto last_agg = Aggregator::Create(AggKind::kLast);
  auto prev_agg = Aggregator::Create(AggKind::kPrev);
  std::string last_state, prev_state;

  ASSERT_TRUE(EnterOne(last_agg.get(), FieldValue(1.0), 1, &last_state,
                       nullptr).ok());
  ASSERT_TRUE(EnterOne(prev_agg.get(), FieldValue(1.0), 1, &prev_state,
                       nullptr).ok());
  EXPECT_DOUBLE_EQ(ResultOf(last_agg.get(), last_state), 1.0);
  EXPECT_DOUBLE_EQ(ResultOf(prev_agg.get(), prev_state), 0.0);  // No prev yet.

  ASSERT_TRUE(EnterOne(last_agg.get(), FieldValue(2.0), 2, &last_state,
                       nullptr).ok());
  ASSERT_TRUE(EnterOne(prev_agg.get(), FieldValue(2.0), 2, &prev_state,
                       nullptr).ok());
  EXPECT_DOUBLE_EQ(ResultOf(last_agg.get(), last_state), 2.0);
  EXPECT_DOUBLE_EQ(ResultOf(prev_agg.get(), prev_state), 1.0);
}

// A fresh DB with an auxiliary column family, where countDistinct keeps
// its per-value counts.
struct AuxDb {
  explicit AuxDb(const std::string& path) {
    EXPECT_TRUE(storage::DestroyDB(path).ok());
    EXPECT_TRUE(storage::DB::Open(storage::DBOptions(), path, &db).ok());
    auto created = db->CreateColumnFamily("aux");
    EXPECT_TRUE(created.ok());
    cf = created.value();
  }
  AggContext Context(const std::string& prefix) {
    return AggContext{db.get(), cf, prefix};
  }
  std::unique_ptr<storage::DB> db;
  uint32_t cf = 0;
};

class CountDistinctTest : public ::testing::Test {
 protected:
  AuxDb aux_{"/tmp/railgun_agg_cd_test"};
  AggContext ctx_ = aux_.Context("m1|card9|");
};

TEST_F(CountDistinctTest, CountsDistinctWithRefCounts) {
  auto agg = Aggregator::Create(AggKind::kCountDistinct);
  std::string state;
  // addr1, addr2, addr1 => 2 distinct.
  ASSERT_TRUE(EnterOne(agg.get(), FieldValue("addr1"), 1, &state, &ctx_).ok());
  ASSERT_TRUE(EnterOne(agg.get(), FieldValue("addr2"), 2, &state, &ctx_).ok());
  ASSERT_TRUE(EnterOne(agg.get(), FieldValue("addr1"), 3, &state, &ctx_).ok());
  EXPECT_EQ(ResultOf(agg.get(), state), 2);

  // Expire one addr1: still 2 distinct (refcount 1 left).
  ASSERT_TRUE(ExpireOne(agg.get(), FieldValue("addr1"), 1, &state, &ctx_).ok());
  EXPECT_EQ(ResultOf(agg.get(), state), 2);
  // Expire the second addr1: down to 1.
  ASSERT_TRUE(ExpireOne(agg.get(), FieldValue("addr1"), 3, &state, &ctx_).ok());
  EXPECT_EQ(ResultOf(agg.get(), state), 1);
}

TEST_F(CountDistinctTest, RequiresContext) {
  auto agg = Aggregator::Create(AggKind::kCountDistinct);
  std::string state;
  EXPECT_FALSE(
      EnterOne(agg.get(), FieldValue("x"), 1, &state, nullptr).ok());
}

// A random value: numbers in quarter steps, or for countDistinct one of
// a few strings, so equal values recur within a window and within a run.
FieldValue RandomValue(AggKind kind, Random64* rng) {
  if (kind == AggKind::kCountDistinct) {
    return FieldValue("v" + std::to_string(rng->Uniform(6)));
  }
  return FieldValue(std::floor(rng->NextDouble() * 100) / 4.0);
}

// Property sweep: every aggregator matches brute-force recomputation
// over a sliding count-window of random data.
class AggPropertyTest : public ::testing::TestWithParam<AggKind> {};

TEST_P(AggPropertyTest, MatchesBruteForceUnderSlidingWindow) {
  const AggKind kind = GetParam();
  auto agg = Aggregator::Create(kind);
  AuxDb aux("/tmp/railgun_agg_property_test");
  AggContext ctx = aux.Context("m1|card1|");
  std::string state;
  Random64 rng(static_cast<uint64_t>(kind) + 100);

  std::deque<std::pair<uint64_t, FieldValue>> window;  // (offset, value)
  const size_t window_size = 20;
  for (uint64_t i = 0; i < 500; ++i) {
    const FieldValue v = RandomValue(kind, &rng);
    ASSERT_TRUE(EnterOne(agg.get(), v, i, &state, &ctx).ok());
    window.push_back({i, v});
    if (window.size() > window_size) {
      auto [off, old] = window.front();
      window.pop_front();
      ASSERT_TRUE(ExpireOne(agg.get(), old, off, &state, &ctx).ok());
    }

    // Brute force over the window contents.
    std::vector<double> xs;
    for (auto& [o, x] : window) xs.push_back(x.ToNumber());
    double expected = 0;
    switch (kind) {
      case AggKind::kCount:
        expected = static_cast<double>(xs.size());
        break;
      case AggKind::kSum:
        for (double x : xs) expected += x;
        break;
      case AggKind::kAvg: {
        double sum = 0;
        for (double x : xs) sum += x;
        expected = sum / static_cast<double>(xs.size());
        break;
      }
      case AggKind::kMax:
        expected = *std::max_element(xs.begin(), xs.end());
        break;
      case AggKind::kMin:
        expected = *std::min_element(xs.begin(), xs.end());
        break;
      case AggKind::kStdDev: {
        if (xs.size() < 2) {
          expected = 0;
        } else {
          double mean = 0;
          for (double x : xs) mean += x;
          mean /= static_cast<double>(xs.size());
          double m2 = 0;
          for (double x : xs) m2 += (x - mean) * (x - mean);
          expected = std::sqrt(m2 / static_cast<double>(xs.size() - 1));
        }
        break;
      }
      case AggKind::kLast:
        expected = xs.back();
        break;
      case AggKind::kPrev:
        // prev tracks arrival order, and the window holds the newest
        // values, so prev is the window's second-newest value.
        expected = xs.size() >= 2 ? xs[xs.size() - 2] : 0.0;
        break;
      case AggKind::kCountDistinct: {
        std::set<std::string> distinct;
        for (auto& [o, x] : window) distinct.insert(x.ToString());
        expected = static_cast<double>(distinct.size());
        break;
      }
    }
    ASSERT_NEAR(ResultOf(agg.get(), state), expected, 1e-6)
        << AggKindName(kind) << " diverged at step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, AggPropertyTest,
    ::testing::Values(AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                      AggKind::kStdDev, AggKind::kMax, AggKind::kMin,
                      AggKind::kLast, AggKind::kPrev,
                      AggKind::kCountDistinct));

// The plan hands each aggregator whatever run of one entity's values a
// batch happens to hold, so results must not depend on run length: the
// same stream applied one value per call and in random 1..8-value runs
// must agree.
class AggBatchingTest : public ::testing::TestWithParam<AggKind> {};

TEST_P(AggBatchingTest, RunLengthDoesNotChangeResults) {
  const AggKind kind = GetParam();
  auto single = Aggregator::Create(kind);
  auto batched = Aggregator::Create(kind);
  AuxDb aux("/tmp/railgun_agg_batching_test");
  AggContext single_ctx = aux.Context("m1|single|");
  AggContext batched_ctx = aux.Context("m1|batched|");
  std::string single_state, batched_state;
  Random64 rng(static_cast<uint64_t>(kind) + 999);

  std::deque<std::pair<uint64_t, FieldValue>> window;  // (offset, value)
  const size_t window_size = 17;
  uint64_t offset = 0;
  bool run_repeats_a_value = false;
  for (int round = 0; round < 60; ++round) {
    // Enter a run of 1..8 values (run lengths vary like real batches).
    const size_t n = 1 + rng.Uniform(8);
    std::vector<FieldValue> values;
    std::vector<uint64_t> offsets;
    for (size_t i = 0; i < n; ++i) {
      values.push_back(RandomValue(kind, &rng));
      offsets.push_back(offset++);
      run_repeats_a_value |=
          std::count(values.begin(), values.end(), values.back()) > 1;
    }
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(EnterOne(single.get(), values[i], offsets[i],
                           &single_state, &single_ctx)
                      .ok());
      window.push_back({offsets[i], values[i]});
    }
    ASSERT_TRUE(batched
                    ->Enter(values.data(), offsets.data(), n, &batched_state,
                            &batched_ctx)
                    .ok());

    // Expire down to the window size, also as one run.
    values.clear();
    offsets.clear();
    while (window.size() > window_size) {
      offsets.push_back(window.front().first);
      values.push_back(window.front().second);
      window.pop_front();
    }
    for (size_t i = 0; i < values.size(); ++i) {
      ASSERT_TRUE(ExpireOne(single.get(), values[i], offsets[i],
                            &single_state, &single_ctx)
                      .ok());
    }
    if (!values.empty()) {
      ASSERT_TRUE(batched
                      ->Expire(values.data(), offsets.data(), values.size(),
                               &batched_state, &batched_ctx)
                      .ok());
    }

    const double want = ResultOf(single.get(), single_state);
    const double got = ResultOf(batched.get(), batched_state);
    if (kind == AggKind::kSum || kind == AggKind::kAvg ||
        kind == AggKind::kStdDev) {
      // sum and avg add a run's total in one step, which can round
      // differently.
      ASSERT_NEAR(got, want, 1e-9)
          << AggKindName(kind) << " diverged at round " << round;
    } else {
      ASSERT_EQ(got, want) << AggKindName(kind) << " diverged at round "
                           << round;
    }
  }
  if (kind == AggKind::kCountDistinct) {
    EXPECT_TRUE(run_repeats_a_value);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, AggBatchingTest,
    ::testing::Values(AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                      AggKind::kStdDev, AggKind::kMax, AggKind::kMin,
                      AggKind::kLast, AggKind::kPrev,
                      AggKind::kCountDistinct));

}  // namespace
}  // namespace railgun::agg
