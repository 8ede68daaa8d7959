// Failure-injection tests: torn and corrupted files, crash points
// between the checkpoint protocol's steps, and replica bootstrap from
// partially-written donors. These validate the recovery story of paper
// §4.1.1 ("only the most recent events can be lost, and quickly
// recovered from Kafka") and §4.2.
#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/env.h"
#include "engine/task_processor.h"
#include "reservoir/reservoir.h"
#include "storage/db.h"

namespace railgun {
namespace {

using engine::EventEnvelope;
using engine::ReplyEnvelope;
using engine::StreamDef;
using engine::TaskProcessor;
using engine::TaskProcessorOptions;
using reservoir::Event;
using reservoir::FieldType;
using reservoir::FieldValue;
using reservoir::Reservoir;
using reservoir::ReservoirOptions;

ReservoirOptions SmallReservoirOptions() {
  ReservoirOptions options;
  options.chunk_target_bytes = 1024;
  options.segment_max_bytes = 8 * 1024;
  options.async_io = false;
  options.schema_fields = {{"card", FieldType::kString},
                           {"amount", FieldType::kDouble}};
  return options;
}

Event SimpleEvent(Micros ts, uint64_t id) {
  Event e;
  e.timestamp = ts;
  e.id = id;
  e.offset = id;
  e.values = {FieldValue("card1"), FieldValue(1.0)};
  return e;
}

// Appends a torn (half-written) chunk record to the newest segment,
// simulating a crash mid-append.
void TearNewestSegment(const std::string& dir) {
  Env* env = Env::Default();
  std::vector<std::string> children;
  ASSERT_TRUE(env->ListDir(dir, &children).ok());
  std::string newest;
  for (const auto& child : children) {
    if (child.rfind("segment-", 0) == 0 && child > newest) newest = child;
  }
  ASSERT_FALSE(newest.empty());
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewAppendableFile(dir + "/" + newest, &file).ok());
  // A record header promising 4096 payload bytes, then only 10 bytes.
  std::string torn;
  PutFixed32(&torn, 4096);
  PutFixed32(&torn, 0xdeadbeef);
  PutFixed64(&torn, 999999);
  torn += "shortdata!";
  ASSERT_TRUE(file->Append(torn).ok());
  ASSERT_TRUE(file->Close().ok());
}

TEST(ReservoirRecoveryTest, TornSegmentTailIsIgnoredOnOpen) {
  const std::string dir = "/tmp/railgun_recovery_torn";
  ASSERT_TRUE(Env::Default()->RemoveDirRecursive(dir).ok());
  uint64_t persisted;
  {
    Reservoir res(SmallReservoirOptions(), dir);
    ASSERT_TRUE(res.Open().ok());
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(res.Append(SimpleEvent(i * 1000, i + 1)).ok());
    }
    persisted = res.LastPersistedOffset();
    ASSERT_GT(persisted, 0u);
  }
  TearNewestSegment(dir);

  Reservoir res(SmallReservoirOptions(), dir);
  ASSERT_TRUE(res.Open().ok());
  EXPECT_EQ(res.LastPersistedOffset(), persisted);
  auto iter = res.NewIterator();
  uint64_t count = 0;
  while (!iter->AtEnd()) {
    ++count;
    iter->Advance();
  }
  EXPECT_EQ(count, persisted);
}

TEST(ReservoirRecoveryTest, CorruptedChunkPayloadDetectedByCrc) {
  const std::string dir = "/tmp/railgun_recovery_crc";
  ASSERT_TRUE(Env::Default()->RemoveDirRecursive(dir).ok());
  {
    Reservoir res(SmallReservoirOptions(), dir);
    ASSERT_TRUE(res.Open().ok());
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(res.Append(SimpleEvent(i * 1000, i + 1)).ok());
    }
  }
  // Flip a byte in the middle of the first segment's data.
  Env* env = Env::Default();
  const std::string segment = dir + "/segment-000001.seg";
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env, segment, &contents).ok());
  contents[contents.size() / 2] ^= 0x5a;
  ASSERT_TRUE(WriteStringToFile(env, contents, segment).ok());

  Reservoir res(SmallReservoirOptions(), dir);
  ASSERT_TRUE(res.Open().ok());
  // Iterating eventually hits the corrupted chunk: the iterator must
  // stop (or skip past it via later chunks) rather than return garbage;
  // the chunk read path reports checksum mismatch.
  auto iter = res.NewIterator();
  uint64_t clean = 0;
  while (!iter->AtEnd() && clean < 1000) {
    EXPECT_EQ(iter->event().values.size(), 2u);  // Decoded sanely.
    ++clean;
    iter->Advance();
  }
  // Some prefix (possibly zero) of events is readable; no crash, no
  // corruption passed through.
  SUCCEED();
}

class TaskProcessorRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/railgun_recovery_taskproc";
    ASSERT_TRUE(Env::Default()->RemoveDirRecursive(dir_).ok());
    stream_.name = "payments";
    stream_.fields = {{"cardId", FieldType::kString},
                      {"amount", FieldType::kDouble}};
    stream_.partitioners = {"cardId"};
    stream_.queries = {
        query::ParseQuery("SELECT count(*), sum(amount) FROM payments "
                          "GROUP BY cardId OVER sliding 1 hour")
            .value()};
    options_.reservoir.chunk_target_bytes = 1024;
    options_.checkpoint_interval_events = 1000000;
  }

  msg::Message MakeMessage(uint64_t offset) {
    const reservoir::Schema schema(0, stream_.fields);
    EventEnvelope env;
    env.request_id = offset + 1;
    env.reply_topic = "replies.r";
    env.event = SimpleEvent(static_cast<Micros>(offset) * 1000, offset + 1);
    env.event.values = {FieldValue("cardZ"), FieldValue(2.0)};
    msg::Message m;
    m.topic = "payments.cardId";
    m.partition = 0;
    m.offset = offset;
    EncodeEventEnvelope(env, schema, &m.payload);
    return m;
  }

  // Runs a processor over offsets [from, to), checkpointing at
  // `checkpoint_at` (if within range). Returns the final count.
  double RunRange(uint64_t from, uint64_t to, int64_t checkpoint_at) {
    TaskProcessor proc(options_, dir_, stream_, "payments.cardId");
    EXPECT_TRUE(proc.Open().ok());
    EXPECT_LE(proc.replay_offset(), from);
    ReplyEnvelope reply;
    for (uint64_t i = proc.replay_offset(); i < to; ++i) {
      EXPECT_TRUE(proc.ProcessMessage(MakeMessage(i), &reply).ok());
      if (static_cast<int64_t>(i) == checkpoint_at) {
        EXPECT_TRUE(proc.Checkpoint().ok());
      }
    }
    double count = -1;
    for (const auto& r : reply.results) {
      if (r.metric_name.rfind("count", 0) == 0) count = r.value.ToNumber();
    }
    return count;
  }

  // One event per second over forty cards with varying amounts, so a
  // one-minute window enters and expires continuously.
  msg::Message CardMessage(uint64_t offset) const {
    const reservoir::Schema schema(0, stream_.fields);
    EventEnvelope env;
    env.request_id = offset + 1;
    env.reply_topic = "replies.r";
    env.event = SimpleEvent(static_cast<Micros>(offset) * kMicrosPerSecond,
                            offset + 1);
    env.event.values = {FieldValue("card" + std::to_string(offset * 7 % 40)),
                        FieldValue(static_cast<double>(offset % 13))};
    msg::Message m;
    m.topic = "payments.cardId";
    m.offset = offset;
    EncodeEventEnvelope(env, schema, &m.payload);
    return m;
  }

  static std::string Render(const ReplyEnvelope& reply) {
    std::string out;
    for (const auto& r : reply.results) {
      out += r.metric_name + "[" + r.group_key + "]=" + r.value.ToString() +
             ";";
    }
    return out;
  }

  std::string dir_;
  StreamDef stream_;
  TaskProcessorOptions options_;
};

TEST_F(TaskProcessorRecoveryTest, RepeatedCrashReplayConverges) {
  // Process 0..300 with a checkpoint at 150; "crash"; recover and
  // process to 400; "crash" again without a new checkpoint; recover and
  // process to 500. Counts must stay exact throughout.
  EXPECT_EQ(RunRange(0, 300, 150), 300);
  EXPECT_EQ(RunRange(300, 400, -1), 400);
  EXPECT_EQ(RunRange(400, 500, -1), 500);
}

TEST_F(TaskProcessorRecoveryTest, CrashBeforeFirstCheckpointRebuildsAll) {
  EXPECT_EQ(RunRange(0, 200, -1), 200);
  // No checkpoint taken: recovery replays everything from offset 0.
  TaskProcessor proc(options_, dir_, stream_, "payments.cardId");
  ASSERT_TRUE(proc.Open().ok());
  EXPECT_EQ(proc.replay_offset(), 0u);
  ReplyEnvelope reply;
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(proc.ProcessMessage(MakeMessage(i), &reply).ok());
  }
  double count = -1;
  for (const auto& r : reply.results) {
    if (r.metric_name.rfind("count", 0) == 0) count = r.value.ToNumber();
  }
  EXPECT_EQ(count, 200);
}

TEST_F(TaskProcessorRecoveryTest, StaleCheckpointDirIsAtomic) {
  // A crash mid-checkpoint leaves ckpt.tmp; recovery must use the last
  // complete checkpoint (or none), never the torn one.
  EXPECT_EQ(RunRange(0, 100, 50), 100);
  Env* env = Env::Default();
  ASSERT_TRUE(env->CreateDir(dir_ + "/ckpt.tmp").ok());
  ASSERT_TRUE(
      WriteStringToFile(env, "garbage", dir_ + "/ckpt.tmp/CURRENT").ok());
  EXPECT_EQ(RunRange(100, 150, -1), 150);
}

TEST_F(TaskProcessorRecoveryTest, DonorCloneOfRunningStateIsUsable) {
  // Clone from a donor directory that has a checkpoint plus newer,
  // unsynced writes — the clone must land on the checkpoint boundary
  // and replay forward cleanly.
  EXPECT_EQ(RunRange(0, 250, 120), 250);

  const std::string clone_dir = dir_ + "_clone";
  ASSERT_TRUE(Env::Default()->RemoveDirRecursive(clone_dir).ok());
  ASSERT_TRUE(
      TaskProcessor::CloneData(Env::Default(), dir_, clone_dir).ok());

  TaskProcessor proc(options_, clone_dir, stream_, "payments.cardId");
  ASSERT_TRUE(proc.Open().ok());
  ReplyEnvelope reply;
  for (uint64_t i = proc.replay_offset(); i < 250; ++i) {
    ASSERT_TRUE(proc.ProcessMessage(MakeMessage(i), &reply).ok());
  }
  double count = -1;
  for (const auto& r : reply.results) {
    if (r.metric_name.rfind("count", 0) == 0) count = r.value.ToNumber();
  }
  EXPECT_EQ(count, 250);
}

TEST_F(TaskProcessorRecoveryTest,
       CrashDropsDirtyStateAndReplayMatchesCleanRun) {
  // Forty cards and a one-minute window over one-second events: states
  // expire continuously and the table holds many dirty entries at the
  // crash. The plan writes states back only at checkpoints and budget
  // sweeps, so everything after offset 150 dies with the processor
  // (or, after a sweep, in the live DB the rollback discards).
  stream_.queries = {
      query::ParseQuery("SELECT count(*), sum(amount), max(amount) FROM "
                        "payments GROUP BY cardId OVER sliding 1 minute")
          .value()};
  constexpr uint64_t kEvents = 400;
  constexpr uint64_t kCheckpointAt = 150;
  constexpr uint64_t kCrashAt = 300;

  std::vector<std::string> clean;
  {
    const std::string clean_dir = dir_ + "_clean";
    ASSERT_TRUE(Env::Default()->RemoveDirRecursive(clean_dir).ok());
    TaskProcessor proc(options_, clean_dir, stream_, "payments.cardId");
    ASSERT_TRUE(proc.Open().ok());
    ReplyEnvelope reply;
    for (uint64_t i = 0; i < kEvents; ++i) {
      ASSERT_TRUE(proc.ProcessMessage(CardMessage(i), &reply).ok());
      clean.push_back(Render(reply));
    }
  }

  // The default budget keeps every state resident; a 1 KiB write buffer
  // (4 KiB budget) sweeps post-checkpoint states into the live DB.
  for (const size_t write_buffer : {options_.db.write_buffer_size,
                                    size_t{1024}}) {
    SCOPED_TRACE("write_buffer_size " + std::to_string(write_buffer));
    ASSERT_TRUE(Env::Default()->RemoveDirRecursive(dir_).ok());
    TaskProcessorOptions options = options_;
    options.db.write_buffer_size = write_buffer;
    {
      TaskProcessor proc(options, dir_, stream_, "payments.cardId");
      ASSERT_TRUE(proc.Open().ok());
      ReplyEnvelope reply;
      for (uint64_t i = 0; i < kCrashAt; ++i) {
        ASSERT_TRUE(proc.ProcessMessage(CardMessage(i), &reply).ok());
        ASSERT_EQ(Render(reply), clean[i]) << "offset " << i;
        if (i == kCheckpointAt) {
          ASSERT_TRUE(proc.Checkpoint().ok());
        }
      }
      if (write_buffer == 1024) {
        EXPECT_GT(proc.task_plan()->state_stats().sweeps, 0u);
      }
    }  // Crash: no checkpoint after offset 150.

    TaskProcessor proc(options, dir_, stream_, "payments.cardId");
    ASSERT_TRUE(proc.Open().ok());
    ASSERT_LE(proc.replay_offset(), kCheckpointAt + 1);
    ReplyEnvelope reply;
    for (uint64_t i = proc.replay_offset(); i < kEvents; ++i) {
      ASSERT_TRUE(proc.ProcessMessage(CardMessage(i), &reply).ok());
      // Offsets up to the checkpoint are replayed into the reservoir
      // only; everything after it must reproduce the clean run.
      if (i > kCheckpointAt) {
        ASSERT_EQ(Render(reply), clean[i]) << "offset " << i;
      }
    }
  }
}

TEST_F(TaskProcessorRecoveryTest, MetricAddedAfterOpenRecoversItsWindows) {
  // ADD METRIC after CREATE STREAM: the task opens with no queries and
  // SyncQueries backfills the metric into its own plan island. A
  // recovered task must resume that island's window edges where the
  // checkpoint left them, not restart them at the oldest event and
  // count the checkpointed window a second time.
  const query::QueryDef metric =
      query::ParseQuery("SELECT count(*), sum(amount) FROM payments "
                        "GROUP BY cardId OVER sliding 1 minute")
          .value();
  StreamDef with_metric = stream_;
  with_metric.queries = {metric};
  stream_.queries.clear();
  constexpr uint64_t kEvents = 400;
  constexpr uint64_t kCheckpointAt = 150;
  constexpr uint64_t kCrashAt = 300;

  // Opens a processor on the bare stream, then adds the metric.
  auto run = [&](const std::string& dir, uint64_t crash_at,
                 std::vector<std::string>* replies) {
    TaskProcessor proc(options_, dir, stream_, "payments.cardId");
    ASSERT_TRUE(proc.Open().ok());
    ASSERT_TRUE(proc.SyncQueries(with_metric).ok());
    ReplyEnvelope reply;
    for (uint64_t i = 0; i < crash_at; ++i) {
      ASSERT_TRUE(proc.ProcessMessage(CardMessage(i), &reply).ok());
      replies->push_back(Render(reply));
      if (i == kCheckpointAt) {
        ASSERT_TRUE(proc.Checkpoint().ok());
      }
    }
  };
  std::vector<std::string> clean, crashed;
  const std::string clean_dir = dir_ + "_clean";
  ASSERT_TRUE(Env::Default()->RemoveDirRecursive(clean_dir).ok());
  run(clean_dir, kEvents, &clean);
  run(dir_, kCrashAt, &crashed);
  ASSERT_EQ(crashed[kCrashAt - 1], clean[kCrashAt - 1]);

  // The restarted task gets the current stream definition.
  TaskProcessor proc(options_, dir_, with_metric, "payments.cardId");
  ASSERT_TRUE(proc.Open().ok());
  ASSERT_LE(proc.replay_offset(), kCheckpointAt + 1);
  ReplyEnvelope reply;
  for (uint64_t i = proc.replay_offset(); i < kEvents; ++i) {
    ASSERT_TRUE(proc.ProcessMessage(CardMessage(i), &reply).ok());
    if (i > kCheckpointAt) {
      ASSERT_EQ(Render(reply), clean[i]) << "offset " << i;
    }
  }
}

// Rewrites a window-layout blob in the form checkpoints had before the
// layout was recorded: one length-prefixed position blob per island.
std::string WithoutLayout(const std::string& blob) {
  Slice in(blob);
  in.remove_prefix(1);  // Layout tag.
  uint64_t next_metric_id;
  uint32_t num_islands;
  EXPECT_TRUE(GetVarint64(&in, &next_metric_id));
  EXPECT_TRUE(GetVarint32(&in, &num_islands));
  std::string legacy;
  for (uint32_t i = 0; i < num_islands; ++i) {
    uint32_t num_queries;
    EXPECT_TRUE(GetVarint32(&in, &num_queries));
    for (uint32_t k = 0; k < num_queries; ++k) {
      Slice statement;
      uint64_t first_metric_id;
      EXPECT_TRUE(GetLengthPrefixedSlice(&in, &statement));
      EXPECT_TRUE(GetVarint64(&in, &first_metric_id));
    }
    Slice positions;
    EXPECT_TRUE(GetLengthPrefixedSlice(&in, &positions));
    PutLengthPrefixedSlice(&legacy, positions);
  }
  EXPECT_TRUE(in.empty());
  return legacy;
}

TEST_F(TaskProcessorRecoveryTest, CheckpointWithoutLayoutStillRecovers) {
  // A task checkpointed before the island layout was recorded has only
  // positions in __ckpt_winpos. Its queries were all planned when the
  // task opened, so restoring by island index resumes them exactly.
  stream_.queries = {
      query::ParseQuery("SELECT count(*), sum(amount) FROM payments "
                        "GROUP BY cardId OVER sliding 1 minute")
          .value()};
  constexpr uint64_t kEvents = 400;
  constexpr uint64_t kCheckpointAt = 150;
  constexpr uint64_t kCrashAt = 300;

  std::vector<std::string> clean;
  {
    TaskProcessor proc(options_, dir_, stream_, "payments.cardId");
    ASSERT_TRUE(proc.Open().ok());
    ReplyEnvelope reply;
    for (uint64_t i = 0; i < kCrashAt; ++i) {
      ASSERT_TRUE(proc.ProcessMessage(CardMessage(i), &reply).ok());
      clean.push_back(Render(reply));
      if (i == kCheckpointAt) {
        ASSERT_TRUE(proc.Checkpoint().ok());
      }
    }
    for (uint64_t i = kCrashAt; i < kEvents; ++i) {
      ReplyEnvelope later;
      ASSERT_TRUE(proc.ProcessMessage(CardMessage(i), &later).ok());
      clean.push_back(Render(later));
    }
  }  // Crash: no checkpoint after offset 150.

  {
    std::unique_ptr<storage::DB> ckpt;
    ASSERT_TRUE(storage::DB::Open(options_.db, dir_ + "/ckpt", &ckpt).ok());
    std::string blob;
    ASSERT_TRUE(
        ckpt->Get(storage::kDefaultColumnFamily, "__ckpt_winpos", &blob)
            .ok());
    ASSERT_TRUE(ckpt->Put(storage::kDefaultColumnFamily, "__ckpt_winpos",
                          WithoutLayout(blob))
                    .ok());
    ASSERT_TRUE(ckpt->Flush().ok());
  }

  TaskProcessor proc(options_, dir_, stream_, "payments.cardId");
  ASSERT_TRUE(proc.Open().ok());
  ASSERT_LE(proc.replay_offset(), kCheckpointAt + 1);
  ReplyEnvelope reply;
  for (uint64_t i = proc.replay_offset(); i < kEvents; ++i) {
    ASSERT_TRUE(proc.ProcessMessage(CardMessage(i), &reply).ok());
    if (i > kCheckpointAt) {
      ASSERT_EQ(Render(reply), clean[i]) << "offset " << i;
    }
  }
}

TEST_F(TaskProcessorRecoveryTest, MetricAddedAfterCheckpointIsBackfilled) {
  // A metric added between the last checkpoint and the crash is not in
  // the checkpointed layout: recovery backfills it from the reservoir
  // instead of sharing the restored edges of the metrics that are.
  const query::QueryDef first =
      query::ParseQuery("SELECT count(*) FROM payments "
                        "GROUP BY cardId OVER sliding 1 minute")
          .value();
  const query::QueryDef second =
      query::ParseQuery("SELECT sum(amount) FROM payments "
                        "GROUP BY cardId OVER sliding 1 minute")
          .value();
  StreamDef one = stream_, both = stream_;
  one.queries = {first};
  both.queries = {first, second};
  constexpr uint64_t kEvents = 400;
  constexpr uint64_t kCheckpointAt = 150;
  constexpr uint64_t kSecondAt = 200;
  constexpr uint64_t kCrashAt = 300;

  auto run = [&](const std::string& dir, uint64_t crash_at,
                 std::vector<std::string>* replies) {
    TaskProcessor proc(options_, dir, one, "payments.cardId");
    ASSERT_TRUE(proc.Open().ok());
    ReplyEnvelope reply;
    for (uint64_t i = 0; i < crash_at; ++i) {
      if (i == kSecondAt) {
        ASSERT_TRUE(proc.SyncQueries(both).ok());
      }
      ASSERT_TRUE(proc.ProcessMessage(CardMessage(i), &reply).ok());
      replies->push_back(Render(reply));
      if (i == kCheckpointAt) {
        ASSERT_TRUE(proc.Checkpoint().ok());
      }
    }
  };
  std::vector<std::string> clean, crashed;
  const std::string clean_dir = dir_ + "_clean";
  ASSERT_TRUE(Env::Default()->RemoveDirRecursive(clean_dir).ok());
  run(clean_dir, kEvents, &clean);
  run(dir_, kCrashAt, &crashed);

  TaskProcessor proc(options_, dir_, both, "payments.cardId");
  ASSERT_TRUE(proc.Open().ok());
  ReplyEnvelope reply;
  for (uint64_t i = proc.replay_offset(); i < kEvents; ++i) {
    ASSERT_TRUE(proc.ProcessMessage(CardMessage(i), &reply).ok());
    // Before kSecondAt the clean run had no second metric to report.
    if (i >= kSecondAt) {
      ASSERT_EQ(Render(reply), clean[i]) << "offset " << i;
    }
  }
}

}  // namespace
}  // namespace railgun
