// Tests for the task plan DAG: prefix sharing, metric correctness across
// window kinds, filters, multiple group-bys, backfill, window position
// checkpoint/restore, and the write-back state table.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "common/env.h"
#include "plan/task_plan.h"

namespace railgun::plan {
namespace {

using reservoir::Event;
using reservoir::FieldType;
using reservoir::FieldValue;

class TaskPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/railgun_plan_test";
    ASSERT_TRUE(Env::Default()->RemoveDirRecursive(dir_).ok());
    reservoir::ReservoirOptions ropts;
    ropts.chunk_target_bytes = 2048;
    ropts.async_io = false;
    ropts.schema_fields = {{"cardId", FieldType::kString},
                           {"merchantId", FieldType::kString},
                           {"amount", FieldType::kDouble}};
    reservoir_ = std::make_unique<reservoir::Reservoir>(ropts, dir_ + "/res");
    ASSERT_TRUE(reservoir_->Open().ok());
    storage::DBOptions dopts;
    ASSERT_TRUE(storage::DB::Open(dopts, dir_ + "/db", &db_).ok());
    plan_ = std::make_unique<TaskPlan>(reservoir_.get(), db_.get());
    ASSERT_TRUE(plan_->Init().ok());
  }

  void AddQuery(const std::string& sql) {
    auto q = query::ParseQuery(sql);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    ASSERT_TRUE(plan_->AddQuery(q.value()).ok());
  }

  // Appends and processes one event; returns metric_name|group -> value.
  std::map<std::string, double> Step(Micros ts, const std::string& card,
                                     const std::string& merchant,
                                     double amount) {
    Event e;
    e.timestamp = ts;
    e.id = ++next_id_;
    e.offset = next_id_;
    e.values = {FieldValue(card), FieldValue(merchant), FieldValue(amount)};
    bool accepted;
    EXPECT_TRUE(reservoir_->Append(e, &accepted).ok());
    std::vector<MetricResult> results;
    EXPECT_TRUE(plan_->ProcessEvent(e, &results).ok());
    std::map<std::string, double> out;
    for (const auto& r : results) {
      out[r.metric_name + "|" + r.group_key] = r.value.ToNumber();
    }
    return out;
  }

  std::string dir_;
  std::unique_ptr<reservoir::Reservoir> reservoir_;
  std::unique_ptr<storage::DB> db_;
  std::unique_ptr<TaskPlan> plan_;
  uint64_t next_id_ = 0;
};

TEST_F(TaskPlanTest, PrefixSharingBuildsMinimalDag) {
  // Q1 and Q2 of the paper share the window; Q1 groups by card, Q2 by
  // merchant: 1 window node, 1 filter node, 2 group nodes, 3 metrics
  // (paper Fig. 6).
  AddQuery("SELECT sum(amount), count(*) FROM p GROUP BY cardId "
           "OVER sliding 5 minutes");
  AddQuery("SELECT avg(amount) FROM p GROUP BY merchantId "
           "OVER sliding 5 minutes");
  EXPECT_EQ(plan_->num_window_nodes(), 1u);
  EXPECT_EQ(plan_->num_filter_nodes(), 1u);
  EXPECT_EQ(plan_->num_group_nodes(), 2u);
  EXPECT_EQ(plan_->num_metrics(), 3u);
  // Shared window => one head + one tail iterator.
  EXPECT_EQ(plan_->num_edge_iterators(), 2u);
}

TEST_F(TaskPlanTest, DistinctWindowsSplitTheDag) {
  AddQuery("SELECT count(*) FROM p GROUP BY cardId OVER sliding 5 minutes");
  AddQuery("SELECT count(*) FROM p GROUP BY cardId OVER sliding 1 hour");
  EXPECT_EQ(plan_->num_window_nodes(), 2u);
  // Shared head, two tails.
  EXPECT_EQ(plan_->num_edge_iterators(), 3u);
}

TEST_F(TaskPlanTest, SlidingSumAndCountPerCard) {
  AddQuery("SELECT sum(amount), count(*) FROM p GROUP BY cardId "
           "OVER sliding 5 minutes");

  Step(1 * kMicrosPerMinute, "cardA", "m1", 10);
  Step(2 * kMicrosPerMinute, "cardB", "m1", 100);
  auto r = Step(3 * kMicrosPerMinute, "cardA", "m2", 20);
  EXPECT_DOUBLE_EQ(r["sum(amount) over sliding 5m by cardId|cardA"], 30);
  EXPECT_DOUBLE_EQ(r["count(*) over sliding 5m by cardId|cardA"], 2);

  // At minute 7, the minute-1 event has expired for cardA.
  auto r2 = Step(7 * kMicrosPerMinute, "cardA", "m1", 5);
  EXPECT_DOUBLE_EQ(r2["sum(amount) over sliding 5m by cardId|cardA"], 25);
  EXPECT_DOUBLE_EQ(r2["count(*) over sliding 5m by cardId|cardA"], 2);
}

TEST_F(TaskPlanTest, FilterExcludesEventsFromStateAndResults) {
  AddQuery("SELECT count(*) FROM p WHERE amount > 50 GROUP BY cardId "
           "OVER sliding 1 hour");
  auto r1 = Step(1000, "c", "m", 100);
  EXPECT_EQ(r1.size(), 1u);
  auto r2 = Step(2000, "c", "m", 10);  // Filtered out.
  EXPECT_TRUE(r2.empty());
  auto r3 = Step(3000, "c", "m", 60);
  EXPECT_DOUBLE_EQ(
      r3["count(*) over sliding 1h by cardId|c"], 2);  // 100 & 60.
}

TEST_F(TaskPlanTest, TumblingWindowResetsAggregation) {
  AddQuery("SELECT sum(amount) FROM p GROUP BY cardId "
           "OVER tumbling 1 minute");
  auto r1 = Step(10 * kMicrosPerSecond, "c", "m", 5);
  auto r2 = Step(50 * kMicrosPerSecond, "c", "m", 7);
  EXPECT_DOUBLE_EQ(r2["sum(amount) over tumbling 1m by cardId|c"], 12);
  // New tumbling instance after the minute boundary.
  auto r3 = Step(70 * kMicrosPerSecond, "c", "m", 3);
  EXPECT_DOUBLE_EQ(r3["sum(amount) over tumbling 1m by cardId|c"], 3);
}

TEST_F(TaskPlanTest, InfiniteWindowNeverForgets) {
  AddQuery("SELECT countDistinct(merchantId) FROM p GROUP BY cardId "
           "OVER infinite");
  Step(1, "c", "m1", 1);
  Step(2 * kMicrosPerDay, "c", "m2", 1);
  Step(4 * kMicrosPerDay, "c", "m1", 1);
  auto r = Step(30 * kMicrosPerDay, "c", "m3", 1);
  EXPECT_DOUBLE_EQ(
      r["countDistinct(merchantId) over infinite by cardId|c"], 3);
}

TEST_F(TaskPlanTest, MaxMinStateStaysBoundedWhereValuesNeverExpire) {
  // Interleaved falling highs and rising lows: no value dominates the
  // ones before it, so an expiring window's max and min deques would
  // keep them all. Infinite and tumbling windows never expire a value,
  // so their states keep one entry each.
  AddQuery("SELECT max(amount), min(amount) FROM p GROUP BY cardId "
           "OVER infinite");
  AddQuery("SELECT max(amount), min(amount) FROM p GROUP BY cardId "
           "OVER tumbling 1 hour");
  double max_seen = -1e300, min_seen = 1e300;
  uint64_t bytes_after_warmup = 0;
  for (int i = 0; i < 2000; ++i) {
    const double amount = i % 2 == 0 ? 10000.0 - i : i;
    max_seen = std::max(max_seen, amount);
    min_seen = std::min(min_seen, amount);
    // One second apart: all 2000 events fall in the first hour's epoch.
    auto r = Step((i + 1) * kMicrosPerSecond, "c", "m", amount);
    for (const char* window : {"infinite", "tumbling 1h"}) {
      const std::string suffix = std::string(" over ") + window + " by cardId|c";
      ASSERT_DOUBLE_EQ(r["max(amount)" + suffix], max_seen) << i;
      ASSERT_DOUBLE_EQ(r["min(amount)" + suffix], min_seen) << i;
    }
    if (i == 10) bytes_after_warmup = plan_->state_stats().bytes;
  }
  EXPECT_EQ(plan_->state_stats().bytes, bytes_after_warmup);
}

TEST_F(TaskPlanTest, CountDistinctExpiresWithWindow) {
  AddQuery("SELECT countDistinct(merchantId) FROM p GROUP BY cardId "
           "OVER sliding 10 minutes");
  Step(1 * kMicrosPerMinute, "c", "mA", 1);
  Step(2 * kMicrosPerMinute, "c", "mB", 1);
  auto r1 = Step(3 * kMicrosPerMinute, "c", "mA", 1);
  EXPECT_DOUBLE_EQ(
      r1["countDistinct(merchantId) over sliding 10m by cardId|c"], 2);
  // At minute 13, the events from minutes 1-2 expired; only the
  // minute-3 mA and this mC remain.
  auto r2 = Step(13 * kMicrosPerMinute, "c", "mC", 1);
  EXPECT_DOUBLE_EQ(
      r2["countDistinct(merchantId) over sliding 10m by cardId|c"], 2);
}

TEST_F(TaskPlanTest, MultiGroupByKeysConcatenate) {
  AddQuery("SELECT count(*) FROM p GROUP BY cardId, merchantId "
           "OVER sliding 1 hour");
  Step(1000, "c1", "m1", 1);
  Step(2000, "c1", "m2", 1);
  auto r = Step(3000, "c1", "m1", 1);
  bool found = false;
  for (const auto& [k, v] : r) {
    if (k.find("c1\x1fm1") != std::string::npos) {
      EXPECT_DOUBLE_EQ(v, 2);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(TaskPlanTest, BackfillComputesOverHistoricalEvents) {
  AddQuery("SELECT count(*) FROM p GROUP BY cardId OVER sliding 1 hour");
  for (int i = 0; i < 50; ++i) {
    Step(i * kMicrosPerMinute, "c", "m", 2.0);
  }
  // Add sum(amount) later and backfill it from the reservoir
  // (paper §6 future work: metrics backfill).
  auto q = query::ParseQuery(
      "SELECT sum(amount) FROM p GROUP BY cardId OVER sliding 1 hour");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(plan_->AddQueryBackfilled(q.value()).ok());

  // The next event sees a fully backfilled hour of history: events at
  // minutes 0-49 are all inside [t-60m, t] for t = minute 50.
  auto r = Step(50 * kMicrosPerMinute, "c", "m", 2.0);
  EXPECT_DOUBLE_EQ(r["sum(amount) over sliding 1h by cardId|c"], 102.0);
  EXPECT_DOUBLE_EQ(r["count(*) over sliding 1h by cardId|c"], 51);
}

TEST_F(TaskPlanTest, WindowPositionsSurviveSaveRestore) {
  AddQuery("SELECT sum(amount) FROM p GROUP BY cardId "
           "OVER sliding 5 minutes");
  for (int i = 0; i < 30; ++i) {
    Step(i * kMicrosPerMinute, "c", "m", 1.0);
  }
  std::string blob;
  plan_->SaveWindowPositions(&blob);
  EXPECT_FALSE(blob.empty());
  // States live in the plan's write-back table until a checkpoint write
  // puts them in the DB that plan2 shares.
  storage::WriteBatch batch;
  ASSERT_TRUE(plan_->WriteBack(&batch).ok());

  // A new plan over the same reservoir/db, restored, continues with
  // identical results.
  auto plan2 = std::make_unique<TaskPlan>(reservoir_.get(), db_.get());
  ASSERT_TRUE(plan2->Init().ok());
  auto q = query::ParseQuery(
      "SELECT sum(amount) FROM p GROUP BY cardId OVER sliding 5 minutes");
  ASSERT_TRUE(plan2->RestoreWindowPositions(blob, {q.value()}).ok());

  Event e;
  e.timestamp = 30 * kMicrosPerMinute;
  e.id = 1000;
  e.offset = 1000;
  e.values = {FieldValue("c"), FieldValue("m"), FieldValue(1.0)};
  bool accepted;
  ASSERT_TRUE(reservoir_->Append(e, &accepted).ok());

  std::vector<MetricResult> r1, r2;
  ASSERT_TRUE(plan_->ProcessEvent(e, &r1).ok());
  // plan2's restored iterators sit at exactly the positions plan_ had
  // before this event, so processing it re-applies the *same* delta
  // (same enters, same expires) to the shared state store — the
  // reported value must therefore be identical. A mispositioned restore
  // would double-expire or double-enter and diverge.
  ASSERT_TRUE(plan2->ProcessEvent(e, &r2).ok());
  ASSERT_EQ(r1.size(), 1u);
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_NEAR(r2[0].value.ToNumber(), r1[0].value.ToNumber(), 1e-9);
}

TEST_F(TaskPlanTest, CorruptStoredStateFailsWithoutDirtyingTheTable) {
  AddQuery("SELECT sum(amount) FROM p GROUP BY cardId "
           "OVER sliding 5 minutes");
  // The first metric's state key for entity "c" (TaskPlan::StateKey).
  ASSERT_TRUE(db_->Put(storage::kDefaultColumnFamily, "m1|c", "bad").ok());

  Event e;
  e.timestamp = kMicrosPerMinute;
  e.id = e.offset = 1;
  e.values = {FieldValue("c"), FieldValue("m"), FieldValue(5.0)};
  bool accepted;
  ASSERT_TRUE(reservoir_->Append(e, &accepted).ok());
  std::vector<MetricResult> results;
  const Status s = plan_->ProcessEvent(e, &results);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  storage::WriteBatch batch;
  auto written = plan_->WriteBack(&batch);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(written.value(), 0u);
  std::string stored;
  ASSERT_TRUE(db_->Get(storage::kDefaultColumnFamily, "m1|c", &stored).ok());
  EXPECT_EQ(stored, "bad");
}

// One plan over its own reservoir and state store.
struct PlanHarness {
  PlanHarness(const std::string& dir, size_t write_buffer_size) {
    EXPECT_TRUE(Env::Default()->RemoveDirRecursive(dir).ok());
    reservoir::ReservoirOptions ropts;
    ropts.chunk_target_bytes = 2048;
    ropts.async_io = false;
    ropts.schema_fields = {{"cardId", FieldType::kString},
                           {"merchantId", FieldType::kString},
                           {"amount", FieldType::kDouble}};
    reservoir = std::make_unique<reservoir::Reservoir>(ropts, dir + "/res");
    EXPECT_TRUE(reservoir->Open().ok());
    storage::DBOptions dopts;
    dopts.write_buffer_size = write_buffer_size;
    EXPECT_TRUE(storage::DB::Open(dopts, dir + "/db", &db).ok());
    plan = std::make_unique<TaskPlan>(reservoir.get(), db.get());
    EXPECT_TRUE(plan->Init().ok());
  }

  void Add(const std::string& sql, bool backfill) {
    auto q = query::ParseQuery(sql);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    ASSERT_TRUE((backfill ? plan->AddQueryBackfilled(q.value())
                          : plan->AddQuery(q.value()))
                    .ok());
  }

  std::vector<MetricResult> Process(const Event& e) {
    bool accepted;
    EXPECT_TRUE(reservoir->Append(e, &accepted).ok());
    std::vector<MetricResult> results;
    const Status s = plan->ProcessEvent(e, &results);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return results;
  }

  std::unique_ptr<reservoir::Reservoir> reservoir;
  std::unique_ptr<storage::DB> db;
  std::unique_ptr<TaskPlan> plan;
};

TEST(TaskPlanStateTableTest, FrequentSweepsMatchANeverSweepingPlan) {
  // A 16 KiB write buffer gives the table a 64 KiB budget, far below the
  // working set, so the swept plan writes back and reloads its states
  // about every hundred events; the default budget never sweeps here.
  PlanHarness swept("/tmp/railgun_plan_test_swept", 16 << 10);
  PlanHarness resident("/tmp/railgun_plan_test_resident",
                       storage::DBOptions().write_buffer_size);
  const std::vector<std::string> queries = {
      "SELECT sum(amount), count(*), max(amount) FROM p GROUP BY cardId "
      "OVER sliding 5 minutes",
      "SELECT avg(amount), stdDev(amount) FROM p GROUP BY merchantId "
      "OVER sliding 10 minutes",
      "SELECT sum(amount) FROM p WHERE amount > 50 GROUP BY cardId "
      "OVER sliding 3 minutes",
      "SELECT count(*), sum(amount) FROM p GROUP BY cardId "
      "OVER tumbling 2 minutes",
      "SELECT countDistinct(merchantId) FROM p GROUP BY cardId "
      "OVER sliding 4 minutes",
  };
  for (const auto& q : queries) {
    swept.Add(q, /*backfill=*/false);
    resident.Add(q, /*backfill=*/false);
  }

  std::mt19937_64 rng(20211014);
  Micros ts = 0;
  const int kEvents = 1500;
  for (int i = 1; i <= kEvents; ++i) {
    if (i == kEvents / 2) {
      // A backfilled island replays history under the same budget.
      const std::string late =
          "SELECT min(amount), count(*) FROM p GROUP BY merchantId "
          "OVER sliding 6 minutes";
      swept.Add(late, /*backfill=*/true);
      resident.Add(late, /*backfill=*/true);
    }
    // Bursts of equal timestamps make multi-event enter/expire runs.
    if (rng() % 3 != 0) {
      ts += static_cast<Micros>(rng() % 20) * kMicrosPerSecond;
    }
    Event e;
    e.timestamp = ts;
    e.id = e.offset = static_cast<uint64_t>(i);
    e.values = {FieldValue("card" + std::to_string(rng() % 300)),
                FieldValue("m" + std::to_string(rng() % 15)),
                FieldValue(static_cast<double>(rng() % 10000) / 100.0)};
    const std::vector<MetricResult> got = swept.Process(e);
    const std::vector<MetricResult> want = resident.Process(e);
    ASSERT_EQ(got.size(), want.size()) << "event " << i;
    for (size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].metric_name, want[k].metric_name);
      EXPECT_EQ(got[k].group_key, want[k].group_key);
      EXPECT_EQ(got[k].value.ToNumber(), want[k].value.ToNumber())
          << "event " << i << " " << got[k].metric_name;
    }
  }
  EXPECT_GE(swept.plan->state_stats().sweeps, 10u);
  EXPECT_EQ(resident.plan->state_stats().sweeps, 0u);
  EXPECT_GT(resident.plan->state_stats().hits, 0u);
}

TEST_F(TaskPlanTest, UnknownFieldsRejected) {
  auto q1 = query::ParseQuery(
      "SELECT sum(nope) FROM p GROUP BY cardId OVER infinite");
  ASSERT_TRUE(q1.ok());
  EXPECT_FALSE(plan_->AddQuery(q1.value()).ok());
  auto q2 = query::ParseQuery(
      "SELECT count(*) FROM p GROUP BY nope OVER infinite");
  ASSERT_TRUE(q2.ok());
  EXPECT_FALSE(plan_->AddQuery(q2.value()).ok());
}

TEST(TaskPlanEdgeLifetimeTest, MisalignedWindowsOverEvictedChunksMatch) {
  // The plan reads drained events through pointers into reservoir
  // chunks. A two-chunk cache with asynchronous I/O and prefetch, small
  // chunks and misaligned delayed windows spanning many of them evict
  // the chunks the tails drain while their pointers are in use; every
  // reported sum and count must still match a recomputation over the
  // raw event list.
  const std::string dir = "/tmp/railgun_plan_lifetime_test";
  ASSERT_TRUE(Env::Default()->RemoveDirRecursive(dir).ok());
  reservoir::ReservoirOptions ropts;
  ropts.chunk_target_bytes = 512;
  ropts.cache_capacity = 2;
  ropts.async_io = true;
  ropts.enable_prefetch = true;
  ropts.schema_fields = {{"cardId", FieldType::kString},
                         {"merchantId", FieldType::kString},
                         {"amount", FieldType::kDouble}};
  reservoir::Reservoir reservoir(ropts, dir + "/res");
  ASSERT_TRUE(reservoir.Open().ok());
  std::unique_ptr<storage::DB> db;
  ASSERT_TRUE(storage::DB::Open(storage::DBOptions(), dir + "/db", &db).ok());
  TaskPlan plan(&reservoir, db.get());
  ASSERT_TRUE(plan.Init().ok());

  struct Window {
    Micros size;
    Micros delay;
  };
  const std::vector<Window> windows = {{40, 0}, {25, 9}, {70, 17}, {33, 50}};
  for (size_t w = 0; w < windows.size(); ++w) {
    const std::string sql =
        "SELECT sum(amount), count(*) FROM p GROUP BY cardId OVER sliding " +
        std::to_string(windows[w].size) + " seconds delayed by " +
        std::to_string(windows[w].delay) + " seconds";
    auto q = query::ParseQuery(sql);
    ASSERT_TRUE(q.ok()) << sql;
    // Half the windows in island 0, half backfilled into their own.
    ASSERT_TRUE((w % 2 == 0 ? plan.AddQuery(q.value())
                            : plan.AddQueryBackfilled(q.value()))
                    .ok());
  }

  std::mt19937_64 rng(15);
  std::vector<Event> events;
  Micros ts = 0;
  for (uint64_t i = 1; i <= 1200; ++i) {
    // Mostly one event a second; every 150 events a jump past every
    // window, so one step expires many chunks' worth of events.
    ts += (i % 150 == 0 ? 120 : static_cast<Micros>(rng() % 3)) *
          kMicrosPerSecond;
    Event e;
    e.timestamp = ts;
    e.id = e.offset = i;
    e.values = {FieldValue("card" + std::to_string(rng() % 5)),
                FieldValue("m" + std::to_string(rng() % 7)),
                FieldValue(static_cast<double>(rng() % 64))};
    bool accepted = false;
    ASSERT_TRUE(reservoir.Append(e, &accepted).ok());
    events.push_back(e);
    std::vector<MetricResult> results;
    ASSERT_TRUE(plan.ProcessEvent(e, &results).ok());
    ASSERT_EQ(results.size(), 2 * windows.size());

    // Results come per window in creation order (island 0's first).
    const std::vector<size_t> order = {0, 2, 1, 3};
    for (size_t k = 0; k < order.size(); ++k) {
      const Window& w = windows[order[k]];
      const Micros newest = ts - w.delay * kMicrosPerSecond;
      const Micros oldest = newest - w.size * kMicrosPerSecond;
      double sum = 0, count = 0;
      for (const Event& past : events) {
        if (past.values[0] == e.values[0] && past.timestamp >= oldest &&
            past.timestamp <= newest) {
          sum += past.values[2].ToNumber();
          ++count;
        }
      }
      ASSERT_EQ(results[2 * k].value.ToNumber(), sum)
          << results[2 * k].metric_name << " event " << i;
      ASSERT_EQ(results[2 * k + 1].value.ToNumber(), count)
          << results[2 * k + 1].metric_name << " event " << i;
    }
  }
  EXPECT_GT(reservoir.cache_stats().evictions, 0u);
}

}  // namespace
}  // namespace railgun::plan
