// Tests for the engine layer: wire envelopes, stream/partitioner
// routing, task processor checkpoint/recovery, and coordinator donor
// lookup.
#include <gtest/gtest.h>

#include "engine/coordinator.h"
#include "engine/stream_def.h"
#include "engine/task_processor.h"
#include "introspect/registry.h"
#include "msg/broker.h"

namespace railgun::engine {
namespace {

using reservoir::Event;
using reservoir::FieldType;
using reservoir::FieldValue;

StreamDef PaymentsStream() {
  StreamDef stream;
  stream.name = "payments";
  stream.fields = {{"cardId", FieldType::kString},
                   {"merchantId", FieldType::kString},
                   {"amount", FieldType::kDouble}};
  stream.partitioners = {"cardId", "merchantId"};
  stream.partitions_per_topic = 2;
  auto q1 = query::ParseQuery(
      "SELECT sum(amount), count(*) FROM payments GROUP BY cardId "
      "OVER sliding 5 minutes");
  auto q2 = query::ParseQuery(
      "SELECT avg(amount) FROM payments GROUP BY merchantId "
      "OVER sliding 5 minutes");
  stream.queries = {q1.value(), q2.value()};
  return stream;
}

Event PaymentEvent(Micros ts, uint64_t id, const std::string& card,
                   const std::string& merchant, double amount) {
  Event e;
  e.timestamp = ts;
  e.id = id;
  e.values = {FieldValue(card), FieldValue(merchant), FieldValue(amount)};
  return e;
}

TEST(StreamDefTest, TopicNamingAndQueryRouting) {
  const StreamDef stream = PaymentsStream();
  EXPECT_EQ(stream.TopicFor("cardId"), "payments.cardId");
  EXPECT_EQ(stream.PartitionerForQuery(stream.queries[0]).value(), "cardId");
  EXPECT_EQ(stream.PartitionerForQuery(stream.queries[1]).value(),
            "merchantId");

  auto global = query::ParseQuery(
      "SELECT count(*) FROM payments OVER sliding 1 hour");
  EXPECT_EQ(stream.PartitionerForQuery(global.value()).value(), "cardId");

  auto uncovered = query::ParseQuery(
      "SELECT count(*) FROM payments GROUP BY amount OVER infinite");
  EXPECT_FALSE(stream.PartitionerForQuery(uncovered.value()).ok());
}

TEST(WireTest, EventEnvelopeRoundTrip) {
  const StreamDef stream = PaymentsStream();
  const reservoir::Schema schema(0, stream.fields);
  EventEnvelope env;
  env.request_id = 0xabcdef12345ull;
  env.reply_topic = "replies.node3";
  env.event = PaymentEvent(123456, 77, "card9", "m3", 42.5);

  std::string encoded;
  EncodeEventEnvelope(env, schema, &encoded);
  EventEnvelope decoded;
  ASSERT_TRUE(DecodeEventEnvelope(encoded, schema, &decoded).ok());
  EXPECT_EQ(decoded.request_id, env.request_id);
  EXPECT_EQ(decoded.reply_topic, env.reply_topic);
  EXPECT_EQ(decoded.event.timestamp, 123456);
  EXPECT_EQ(decoded.event.id, 77u);
  EXPECT_EQ(decoded.event.values[0].as_string(), "card9");
  EXPECT_DOUBLE_EQ(decoded.event.values[2].as_double(), 42.5);
}

TEST(WireTest, ReplyEnvelopeRoundTripAllValueTypes) {
  ReplyEnvelope env;
  env.request_id = 99;
  env.results = {{"count(*)", "card1", FieldValue(int64_t{7})},
                 {"sum(amount)", "card1", FieldValue(1.5)},
                 {"flag", "card1", FieldValue(true)},
                 {"last(city)", "card1", FieldValue("lisbon")}};
  std::string encoded;
  EncodeReplyEnvelope(env, &encoded);
  ReplyEnvelope decoded;
  ASSERT_TRUE(DecodeReplyEnvelope(encoded, &decoded).ok());
  ASSERT_EQ(decoded.results.size(), 4u);
  EXPECT_EQ(decoded.results[0].value.as_int(), 7);
  EXPECT_DOUBLE_EQ(decoded.results[1].value.as_double(), 1.5);
  EXPECT_TRUE(decoded.results[2].value.as_bool());
  EXPECT_EQ(decoded.results[3].value.as_string(), "lisbon");
}

TEST(WireTest, CorruptEnvelopesRejected) {
  const StreamDef stream = PaymentsStream();
  const reservoir::Schema schema(0, stream.fields);
  EventEnvelope env;
  EXPECT_FALSE(DecodeEventEnvelope("short", schema, &env).ok());
  ReplyEnvelope reply;
  EXPECT_FALSE(DecodeReplyEnvelope("x", &reply).ok());
}

class TaskProcessorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/railgun_taskproc_test";
    ASSERT_TRUE(Env::Default()->RemoveDirRecursive(dir_).ok());
    stream_ = PaymentsStream();
    options_.reservoir.chunk_target_bytes = 2048;
    options_.checkpoint_interval_events = 1000000;  // Manual only.
  }

  msg::Message MakeMessage(uint64_t offset, Micros ts, uint64_t id,
                           const std::string& card, double amount) {
    const reservoir::Schema schema(0, stream_.fields);
    EventEnvelope env;
    env.request_id = id;
    env.reply_topic = "replies.x";
    env.event = PaymentEvent(ts, id, card, "m1", amount);
    msg::Message m;
    m.topic = "payments.cardId";
    m.partition = 0;
    m.offset = offset;
    m.key = card;
    EncodeEventEnvelope(env, schema, &m.payload);
    return m;
  }

  std::string dir_;
  StreamDef stream_;
  TaskProcessorOptions options_;
};

TEST_F(TaskProcessorTest, ComputesOnlyQueriesRoutedToItsTopic) {
  TaskProcessor proc(options_, dir_, stream_, "payments.cardId");
  ASSERT_TRUE(proc.Open().ok());
  // The cardId topic computes Q1 (sum + count by card), not Q2.
  EXPECT_EQ(proc.task_plan()->num_metrics(), 2u);

  ReplyEnvelope reply;
  ASSERT_TRUE(
      proc.ProcessMessage(MakeMessage(0, 1000, 1, "cardA", 10.0), &reply)
          .ok());
  ASSERT_EQ(reply.results.size(), 2u);
  EXPECT_EQ(reply.request_id, 1u);
}

TEST_F(TaskProcessorTest, ColumnarBatchMatchesScalarProcessing) {
  // Same event stream through the scalar ProcessMessage path and the
  // columnar ProcessBatch path must produce identical replies and state.
  TaskProcessor scalar(options_, dir_ + "/scalar", stream_,
                       "payments.cardId");
  ASSERT_TRUE(scalar.Open().ok());
  TaskProcessor columnar(options_, dir_ + "/columnar", stream_,
                         "payments.cardId");
  ASSERT_TRUE(columnar.Open().ok());

  std::vector<msg::Message> messages;
  const char* cards[] = {"cardA", "cardA", "cardB", "cardA", "cardB"};
  for (uint64_t i = 0; i < 25; ++i) {
    messages.push_back(MakeMessage(i, 1000 * static_cast<Micros>(i + 1),
                                   i + 1, cards[i % 5],
                                   0.25 * static_cast<double>(i)));
  }

  std::vector<ReplyEnvelope> scalar_replies(messages.size());
  for (size_t i = 0; i < messages.size(); ++i) {
    ASSERT_TRUE(
        scalar.ProcessMessage(messages[i], &scalar_replies[i]).ok());
  }

  msg::MessageBatch batch;
  batch.Adopt(std::move(messages));
  std::vector<ReplyEnvelope> batch_replies;
  size_t failed = 7;
  ASSERT_TRUE(
      columnar.ProcessBatch(batch.views(), &batch_replies, &failed).ok());
  EXPECT_EQ(failed, 0u);
  ASSERT_EQ(batch_replies.size(), scalar_replies.size());
  for (size_t i = 0; i < batch_replies.size(); ++i) {
    EXPECT_EQ(batch_replies[i].request_id, scalar_replies[i].request_id);
    EXPECT_EQ(batch_replies[i].reply_topic, scalar_replies[i].reply_topic);
    ASSERT_EQ(batch_replies[i].results.size(),
              scalar_replies[i].results.size());
    for (size_t r = 0; r < batch_replies[i].results.size(); ++r) {
      EXPECT_EQ(batch_replies[i].results[r].metric_name,
                scalar_replies[i].results[r].metric_name);
      EXPECT_EQ(batch_replies[i].results[r].group_key,
                scalar_replies[i].results[r].group_key);
      EXPECT_DOUBLE_EQ(batch_replies[i].results[r].value.ToNumber(),
                       scalar_replies[i].results[r].value.ToNumber())
          << "message " << i << " metric " << r;
    }
  }
  EXPECT_EQ(columnar.processed_count(), scalar.processed_count());
}

TEST_F(TaskProcessorTest, BatchSkipsUndecodableMessagesAndCounts) {
  TaskProcessor proc(options_, dir_, stream_, "payments.cardId");
  ASSERT_TRUE(proc.Open().ok());

  std::vector<msg::Message> messages;
  messages.push_back(MakeMessage(0, 1000, 1, "cardA", 1.0));
  msg::Message bad = MakeMessage(1, 2000, 2, "cardB", 2.0);
  bad.payload = "not an envelope";
  messages.push_back(std::move(bad));
  messages.push_back(MakeMessage(2, 3000, 3, "cardA", 3.0));

  msg::MessageBatch batch;
  batch.Adopt(std::move(messages));
  std::vector<ReplyEnvelope> replies;
  size_t failed = 0;
  ASSERT_TRUE(proc.ProcessBatch(batch.views(), &replies, &failed).ok());
  EXPECT_EQ(failed, 1u);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].request_id, 1u);
  EXPECT_EQ(replies[1].request_id, 0u);  // Skipped slot: no reply routed.
  EXPECT_EQ(replies[2].request_id, 3u);
  EXPECT_EQ(proc.processed_count(), 2u);
}

TEST_F(TaskProcessorTest, CheckpointAndRecoveryReplayIsExactlyOnce) {
  {
    TaskProcessor proc(options_, dir_, stream_, "payments.cardId");
    ASSERT_TRUE(proc.Open().ok());
    ReplyEnvelope reply;
    for (uint64_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(proc.ProcessMessage(
                          MakeMessage(i, 1000 * static_cast<Micros>(i + 1),
                                      i + 1, "cardA", 1.0),
                          &reply)
                      .ok());
    }
    ASSERT_TRUE(proc.Checkpoint().ok());
    // 20 more messages after the checkpoint (these will be replayed).
    for (uint64_t i = 100; i < 120; ++i) {
      ASSERT_TRUE(proc.ProcessMessage(
                          MakeMessage(i, 1000 * static_cast<Micros>(i + 1),
                                      i + 1, "cardA", 1.0),
                          &reply)
                      .ok());
    }
    // Last reply before "crash": count = 120.
    EXPECT_DOUBLE_EQ(reply.results[1].value.ToNumber(), 120);
  }

  // Recover: replay must resume at (or before) offset 100 — it may be
  // earlier to rebuild the open chunk lost with the crash — and
  // reconverge without double counting.
  TaskProcessor proc(options_, dir_, stream_, "payments.cardId");
  ASSERT_TRUE(proc.Open().ok());
  EXPECT_LE(proc.replay_offset(), 100u);
  ReplyEnvelope reply;
  for (uint64_t i = proc.replay_offset(); i < 120; ++i) {
    ASSERT_TRUE(proc.ProcessMessage(
                        MakeMessage(i, 1000 * static_cast<Micros>(i + 1),
                                    i + 1, "cardA", 1.0),
                        &reply)
                    .ok());
  }
  // Same result as before the crash: no double counting.
  ASSERT_EQ(reply.results.size(), 2u);
  EXPECT_DOUBLE_EQ(reply.results[1].value.ToNumber(), 120);
  EXPECT_DOUBLE_EQ(reply.results[0].value.ToNumber(), 120.0);
}

TEST_F(TaskProcessorTest, ReservoirCountersReachTheRegistry) {
  introspect::Registry registry;
  options_.registry = &registry;
  // Two cached chunks and synchronous I/O: the 5-minute tail trails the
  // head by several chunks, so it reads chunks already evicted, each
  // with a synchronous load.
  options_.reservoir.cache_capacity = 2;
  options_.reservoir.async_io = false;
  auto value = [&](const std::string& name) {
    for (const auto& sample : registry.Snapshot()) {
      if (sample.name == name) return sample.value;
    }
    return -1.0;
  };
  TaskProcessor proc(options_, dir_, stream_, "payments.cardId");
  ASSERT_TRUE(proc.Open().ok());
  ReplyEnvelope reply;
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(proc.ProcessMessage(
                        MakeMessage(i, kMicrosPerSecond * static_cast<Micros>(
                                                               i + 1),
                                    i + 1, "cardA", 1.0),
                        &reply)
                    .ok());
  }
  const reservoir::ReservoirStats stats = proc.reservoir()->stats();
  const reservoir::ChunkCache::Stats cache = proc.reservoir()->cache_stats();
  ASSERT_GT(stats.chunk_loads, 0u);
  EXPECT_EQ(value("reservoir.chunk_loads"), stats.chunk_loads);
  EXPECT_EQ(value("reservoir.sync_chunk_loads"), stats.sync_chunk_loads);
  EXPECT_EQ(stats.sync_chunk_loads, stats.chunk_loads);  // No prefetcher.
  EXPECT_EQ(value("reservoir.cache.hits"), cache.hits);
  EXPECT_EQ(value("reservoir.cache.misses"), cache.misses);
  EXPECT_GT(value("reservoir.cache.evictions"), 0);
  EXPECT_EQ(value("reservoir.cache.evictions"), cache.evictions);
}

TEST_F(TaskProcessorTest, StateTableCountersReachTheRegistry) {
  introspect::Registry registry;
  options_.registry = &registry;
  auto value = [&](const std::string& name) {
    for (const auto& sample : registry.Snapshot()) {
      if (sample.name == name) return sample.value;
    }
    return -1.0;
  };
  {
    TaskProcessor proc(options_, dir_, stream_, "payments.cardId");
    ASSERT_TRUE(proc.Open().ok());
    ReplyEnvelope reply;
    // Two cards: each card's first event misses (loads its states);
    // every other lookup, entering or reporting, hits.
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(proc.ProcessMessage(
                          MakeMessage(i, 1000 * static_cast<Micros>(i + 1),
                                      i + 1, i % 2 == 0 ? "cardA" : "cardB",
                                      1.0),
                          &reply)
                      .ok());
    }
    ASSERT_TRUE(proc.Checkpoint().ok());
    EXPECT_EQ(value("plan.state.misses"), 2);
    EXPECT_EQ(value("plan.state.hits"), 18);
    EXPECT_EQ(value("plan.state.sweeps"), 0);
    EXPECT_GT(value("plan.state.bytes"), 0);
    // One checkpoint wrote sum and count for both cards.
    EXPECT_EQ(value("plan.state.checkpoint_dirty_keys.count"), 1);
    EXPECT_EQ(value("plan.state.checkpoint_dirty_keys.max"), 4);
  }
  // A destroyed task's table leaves the bytes gauge.
  EXPECT_EQ(value("plan.state.bytes"), 0);
}

TEST_F(TaskProcessorTest, CloneDataBootstrapsAnotherProcessor) {
  {
    TaskProcessor donor(options_, dir_, stream_, "payments.cardId");
    ASSERT_TRUE(donor.Open().ok());
    ReplyEnvelope reply;
    for (uint64_t i = 0; i < 200; ++i) {
      ASSERT_TRUE(donor.ProcessMessage(
                          MakeMessage(i, 1000 * static_cast<Micros>(i + 1),
                                      i + 1, "cardA", 2.0),
                          &reply)
                      .ok());
    }
    ASSERT_TRUE(donor.Checkpoint().ok());
  }

  const std::string target_dir = dir_ + "_target";
  ASSERT_TRUE(Env::Default()->RemoveDirRecursive(target_dir).ok());
  ASSERT_TRUE(
      TaskProcessor::CloneData(Env::Default(), dir_, target_dir).ok());

  TaskProcessor recovered(options_, target_dir, stream_, "payments.cardId");
  ASSERT_TRUE(recovered.Open().ok());
  // Replay resumes early enough to rebuild the donor's lost open chunk.
  EXPECT_LE(recovered.replay_offset(), 200u);

  ReplyEnvelope reply;
  for (uint64_t i = recovered.replay_offset(); i < 200; ++i) {
    ASSERT_TRUE(recovered.ProcessMessage(
                        MakeMessage(i, 1000 * static_cast<Micros>(i + 1),
                                    i + 1, "cardA", 2.0),
                        &reply)
                    .ok());
  }
  ASSERT_TRUE(recovered.ProcessMessage(MakeMessage(200, 201000, 201, "cardA",
                                                   2.0),
                                       &reply)
                  .ok());
  // 5-minute window holds all 201 events (timestamps within 201 ms):
  // no event lost, none double-counted across clone + replay.
  EXPECT_DOUBLE_EQ(reply.results[1].value.ToNumber(), 201);
}

TEST(CoordinatorTest, DonorLookupPrefersActiveThenReplicaThenStale) {
  Coordinator coordinator(2);
  coordinator.RegisterUnitDir("u1", "/data/u1");
  coordinator.RegisterUnitDir("u2", "/data/u2");
  coordinator.RegisterUnitDir("u3", "/data/u3");

  std::vector<msg::MemberInfo> members = {
      {"u1", "node=n1", {}}, {"u2", "node=n2", {}}, {"u3", "node=n3", {}}};
  std::vector<msg::TopicPartition> partitions = {{"t", 0}};
  coordinator.Assign(members, partitions);

  // Someone (not the holder) asks for a donor.
  const msg::TopicPartition task{"t", 0};
  std::string requester = "u3";
  const std::string donor = coordinator.FindDonorDir(task, requester);
  EXPECT_FALSE(donor.empty());
  EXPECT_NE(donor.find(Coordinator::TaskSubdir(task)), std::string::npos);
  // The holder asking for itself must get a *different* unit (or none).
  for (const auto& m : members) {
    const std::string d = coordinator.FindDonorDir(task, m.member_id);
    EXPECT_EQ(d.find("/data/" + m.member_id), std::string::npos);
  }
}

TEST(CoordinatorTest, GenerationAdvancesPerAssign) {
  Coordinator coordinator(1);
  EXPECT_EQ(coordinator.generation(), 0u);
  std::vector<msg::MemberInfo> members = {{"u1", "node=n1", {}}};
  coordinator.Assign(members, {{"t", 0}});
  EXPECT_EQ(coordinator.generation(), 1u);
  coordinator.Assign(members, {{"t", 0}});
  EXPECT_EQ(coordinator.generation(), 2u);
  // Perfectly sticky: nothing moved on the second run.
  EXPECT_EQ(coordinator.total_moved_active(), 1);  // Only the first.
}

}  // namespace
}  // namespace railgun::engine
