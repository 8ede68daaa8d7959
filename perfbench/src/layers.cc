#include "layers.h"

#include <algorithm>
#include <cstdio>

#include "engine/column_batch.h"
#include "engine/stream_def.h"
#include "engine/task_processor.h"
#include "msg/remote/wire.h"
#include "oracle.h"
#include "query/ddl.h"
#include "timed_bus.h"
#include "timed_env.h"
#include "window/window_operator.h"

namespace perfbench {

namespace engine = railgun::engine;
namespace msg = railgun::msg;
namespace wire = railgun::msg::remote;
using railgun::Slice;
using railgun::Status;
using railgun::api::EventResult;
using railgun::reservoir::Event;

namespace {

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// One NodeStack phase: setup, warmup, measured run. The decorator
// counters are snapshotted around the measured run only.
struct NodePhase {
  PhaseResult run;
  TimedBus::Counters bus_before, bus_after;
  TimedEnv::Counters res_before, res_after, db_before, db_after;
};

bool RunNodePhase(const std::string& dir, uint64_t seed, double seconds,
                  const WorkloadSpec& spec, bool decorated, NodePhase* out,
                  uint64_t* attempted, uint64_t* failed) {
  RemoveTree(dir);
  StackOptions options;
  options.dir = dir;
  options.remote = spec.remote;
  options.decorated = decorated;
  Decorators d;
  std::unique_ptr<Stack> stack = NewNodeStack(options, &d);
  EventSource source(spec, seed);
  const Status s = stack->Start(spec);
  if (!s.ok()) {
    fprintf(stderr, "node stack setup failed: %s\n", s.ToString().c_str());
    return false;
  }
  std::vector<PhaseResult> unmeasured;
  if (spec.history > 0) {
    unmeasured.push_back(
        RunClosedLoop(stack.get(), &source, spec, spec.history, 0));
  }
  auto run = [&](double secs) {
    return RunOpenLoop(stack.get(), &source, spec,
                       static_cast<uint64_t>(secs * spec.rate));
  };
  unmeasured.push_back(run(kWarmupSeconds));
  if (decorated) {
    out->bus_before = d.bus->counters();
    out->res_before = d.reservoir_env->counters();
    out->db_before = d.db_env->counters();
  }
  out->run = run(seconds);
  if (decorated) {
    out->bus_after = d.bus->counters();
    out->res_after = d.reservoir_env->counters();
    out->db_after = d.db_env->counters();
  }
  unmeasured.push_back(out->run);
  for (const PhaseResult& r : unmeasured) {
    *attempted += r.attempted;
    *failed += r.failed;
  }
  stack->Stop();
  stack.reset();
  RemoveTree(dir);
  return true;
}

// ---------------------------------------------------------------- replay

// Per-event costs from a single-threaded replay of the workload's events
// through each layer's public calls, in µs unless noted.
struct ReplayCosts {
  double encode = 0;         // EncodeEventEnvelope.
  double decode = 0;         // ColumnBatch::Decode.
  double process = 0;        // TaskProcessor::ProcessBatch.
  double reply_encode = 0;   // EncodeReplyEnvelope.
  double reply_decode = 0;   // DecodeReplyEnvelope.
  double msg_produce = 0;    // InProcessBus::ProduceBatch (events + replies).
  double msg_poll = 0;       // InProcessBus::Poll without parking.
  double codec = 0;          // msg/remote frame codecs (remote only).
  double wire_bytes = 0;     // Bytes on the wire per event (remote only).
  double append = 0;         // Reservoir::Append.
  double advance = 0;        // WindowManager::Advance.
  double edge_events = 0;    // Events drained by the edges, per event.
  double plan = 0;           // TaskPlan::ProcessEvent.
  double rmw = 0;            // DB::Get + DB::Put, per pair.
  double checkpoint_ms = 0;  // TaskProcessor::Checkpoint, median.
  uint64_t events = 0;
  uint64_t failed = 0;
};

EventResult ToResult(const std::vector<engine::MetricReply>& replies) {
  EventResult result;
  for (const auto& r : replies) {
    result.metrics.push_back({r.metric_name, r.group_key, r.value});
  }
  return result;
}

bool Replay(const std::string& dir, uint64_t seed, double seconds,
            const WorkloadSpec& spec, ReplayCosts* c) {
  RemoveTree(dir);
  (void)railgun::Env::Default()->CreateDir(dir);
  auto schema_def = railgun::query::ParseCreateStream(spec.create_stream);
  if (!schema_def.ok()) return false;
  engine::StreamDef def;
  def.name = schema_def.value().name;
  def.fields = schema_def.value().fields;
  def.partitioners = schema_def.value().partitioners;
  def.partitions_per_topic = schema_def.value().partitions_per_topic;
  const std::string topic = def.TopicFor(def.partitioners[0]);
  engine::TaskProcessor task(engine::TaskProcessorOptions(), dir + "/task",
                             def, topic);
  Status s = task.Open();
  // Metrics arrive one at a time after the task exists, as on the live
  // path (each becomes its own plan island).
  std::vector<railgun::window::WindowSpec> windows;
  for (const std::string& statement : spec.metrics) {
    if (!s.ok()) break;
    auto ddl = railgun::query::ParseDdl(statement);
    if (!ddl.ok()) return false;
    windows.push_back(ddl.value().metric.window);
    def.queries.push_back(ddl.value().metric);
    s = task.SyncQueries(def);
  }
  if (!s.ok()) {
    fprintf(stderr, "replay setup failed: %s\n", s.ToString().c_str());
    return false;
  }
  const railgun::reservoir::Schema& schema = *task.reservoir()->schema();
  // Standalone window manager with the workload's windows, advanced per
  // event to time the window layer on its own.
  railgun::window::WindowManager windows_mgr(task.reservoir());
  for (const auto& w : windows) windows_mgr.GetOrCreate(w);
  railgun::window::EdgeDeltas edges;

  // The replay's messages travel through an in-process bus, produced and
  // polled (without parking) from this thread.
  railgun::msg::BusOptions bus_options;
  bus_options.delivery_delay = 0;
  msg::InProcessBus bus(bus_options);
  const std::string reply_topic = "replies.node0";
  if (!bus.CreateTopic(topic, 1).ok() || !bus.CreateTopic(reply_topic, 1).ok() ||
      !bus.Subscribe("replay.unit", "replay.units", {topic}, "", nullptr, {})
           .ok() ||
      !bus.Subscribe("fe.replay", "replay.fe", {reply_topic}, "", nullptr, {})
           .ok()) {
    return false;
  }
  // Produces the records and polls them back; false if any went missing.
  auto round_trip = [&](const std::string& to, const std::string& consumer,
                        std::vector<msg::ProduceRecord> records, bool measured,
                        msg::MessageBatch* out) {
    const size_t n = records.size();
    double t = NowUs();
    const bool produced = bus.ProduceBatch(to, std::move(records)).ok();
    if (measured) c->msg_produce += NowUs() - t;
    t = NowUs();
    out->Clear();
    msg::MessageBatch part;
    std::vector<msg::Message> all;
    // The first poll of a consumer delivers its assignment.
    for (int attempt = 0; produced && all.size() < n && attempt < 4;
         ++attempt) {
      std::vector<msg::Message> got;
      if (!bus.Poll(consumer, n - all.size(), &got, 0).ok()) break;
      for (auto& m : got) all.push_back(std::move(m));
    }
    out->Adopt(std::move(all));
    if (measured) c->msg_poll += NowUs() - t;
    return out->size() == n;
  };

  EventSource source(spec, seed);
  std::vector<GenEvent> batch(spec.batch);
  msg::MessageBatch polled;
  msg::MessageBatch polled_replies;
  std::vector<engine::ReplyEnvelope> replies;
  std::vector<railgun::plan::MetricResult> plan_results;
  engine::ColumnBatch columns;
  uint64_t process_events = 0, direct_events = 0;
  double wire_bytes = 0;

  // measured = false: history seeding, through ProcessBatch untimed.
  auto run_batch = [&](bool measured, bool direct) {
    for (GenEvent& e : batch) source.Next(&e);
    std::vector<msg::ProduceRecord> records;
    double t = NowUs();
    for (GenEvent& e : batch) {
      engine::EventEnvelope env;
      env.request_id = e.event.id;
      env.reply_topic = reply_topic;
      env.event = e.event;
      msg::ProduceRecord r;
      r.key = e.group;
      engine::EncodeEventEnvelope(env, schema, &r.payload);
      records.push_back(std::move(r));
    }
    if (measured) c->encode += NowUs() - t;
    if (measured && spec.remote) {
      // Client -> broker: one columnar produce frame for the batch.
      t = NowUs();
      wire::Frame frame;
      frame.opcode = static_cast<uint8_t>(wire::OpCode::kProduceColumnar);
      wire::PutColumnarProduceBatch(&frame.payload, topic, records);
      std::string bytes;
      wire::EncodeFrame(frame, &bytes);
      Slice in(bytes);
      wire::Frame decoded;
      std::string got_topic;
      std::vector<msg::ProduceRecord> got;
      if (!wire::DecodeFrame(&in, &decoded).ok()) ++c->failed;
      Slice payload(decoded.payload);
      if (!wire::GetColumnarProduceBatch(&payload, &got_topic, &got)) {
        ++c->failed;
      }
      c->codec += NowUs() - t;
      wire_bytes += static_cast<double>(bytes.size());
    }
    if (!round_trip(topic, "replay.unit", std::move(records), measured,
                    &polled)) {
      c->failed += batch.size();
      return;
    }
    const std::vector<msg::MessageView>& views = polled.views();
    if (measured) {
      t = NowUs();
      columns.Decode(views, schema);
      c->decode += NowUs() - t;
    }

    if (!direct) {
      size_t failed = 0;
      t = NowUs();
      s = task.ProcessBatch(views, &replies, &failed);
      if (measured) c->process += NowUs() - t;
      if (!s.ok()) failed = batch.size();
      c->failed += failed;
      if (measured) process_events += batch.size();
    } else {
      // The same work, layer by layer: reservoir append, window edges,
      // plan update, and one state read-modify-write per event.
      replies.assign(batch.size(), engine::ReplyEnvelope());
      for (size_t i = 0; i < batch.size(); ++i) {
        Event event = batch[i].event;
        event.offset = views[i].offset;
        t = NowUs();
        s = task.reservoir()->Append(event);
        const double t1 = NowUs();
        windows_mgr.Advance(event.timestamp, &edges);
        const double t2 = NowUs();
        plan_results.clear();
        if (s.ok()) s = task.task_plan()->ProcessEvent(event, &plan_results);
        const double t3 = NowUs();
        std::string state;
        const std::string key = "perfbench/" + batch[i].group;
        (void)task.db()->Get(railgun::storage::kDefaultColumnFamily, key,
                             &state);
        state.assign(8, 'x');
        if (s.ok()) {
          s = task.db()->Put(railgun::storage::kDefaultColumnFamily, key,
                             state);
        }
        const double t4 = NowUs();
        c->append += t1 - t;
        c->advance += t2 - t1;
        c->plan += t3 - t2;
        c->rmw += t4 - t3;
        for (const auto& [off, v] : edges.entered_by_offset) {
          c->edge_events += static_cast<double>(v.size());
        }
        for (const auto& [off, v] : edges.expired_by_offset) {
          c->edge_events += static_cast<double>(v.size());
        }
        if (!s.ok()) ++c->failed;
        replies[i].request_id = batch[i].event.id;
        for (auto& r : plan_results) {
          replies[i].results.push_back(
              {std::move(r.metric_name), std::move(r.group_key),
               std::move(r.value)});
        }
      }
      direct_events += batch.size();
    }
    if (!direct) {
      // Keep the standalone edges level with the stream (they are timed
      // only in the layer-by-layer batches).
      for (const GenEvent& e : batch) {
        windows_mgr.Advance(e.event.timestamp, &edges);
      }
    }

    // Reply path: the unit encodes and publishes, the front end polls
    // and decodes.
    std::vector<msg::ProduceRecord> reply_records;
    t = NowUs();
    for (const engine::ReplyEnvelope& r : replies) {
      msg::ProduceRecord record;
      engine::EncodeReplyEnvelope(r, &record.payload);
      reply_records.push_back(std::move(record));
    }
    if (measured) c->reply_encode += NowUs() - t;
    if (!round_trip(reply_topic, "fe.replay", std::move(reply_records),
                    measured, &polled_replies)) {
      c->failed += batch.size();
      return;
    }
    std::vector<engine::ReplyEnvelope> decoded(polled_replies.size());
    t = NowUs();
    for (size_t i = 0; i < polled_replies.size(); ++i) {
      if (!engine::DecodeReplyEnvelope(polled_replies[i].payload, &decoded[i])
               .ok()) {
        ++c->failed;
      }
    }
    if (measured) c->reply_decode += NowUs() - t;
    if (measured && spec.remote) {
      // Broker -> client: the reply poll response frame.
      t = NowUs();
      wire::Frame frame;
      frame.opcode = static_cast<uint8_t>(wire::OpCode::kPollColumnar) |
                     wire::kResponseBit;
      wire::PutStatus(&frame.payload, Status::OK());
      wire::PutTopicPartitionList(&frame.payload, {});
      wire::PutTopicPartitionList(&frame.payload, {});
      std::vector<msg::Message> reply_messages(polled_replies.size());
      for (size_t i = 0; i < polled_replies.size(); ++i) {
        reply_messages[i].topic = reply_topic;
        reply_messages[i].offset = polled_replies[i].offset;
        reply_messages[i].payload = polled_replies[i].payload.ToString();
      }
      wire::PutColumnarMessageList(&frame.payload, reply_messages);
      std::string bytes;
      wire::EncodeFrame(frame, &bytes);
      Slice in(bytes);
      wire::Frame got;
      Status st;
      std::vector<msg::TopicPartition> tps;
      msg::MessageBatch polled;
      bool ok = wire::DecodeFrame(&in, &got).ok();
      Slice payload(got.payload);
      ok = ok && wire::GetStatus(&payload, &st) &&
           wire::GetTopicPartitionList(&payload, &tps) &&
           wire::GetTopicPartitionList(&payload, &tps) &&
           wire::GetColumnarMessageList(&payload, &polled);
      if (!ok) ++c->failed;
      c->codec += NowUs() - t;
      wire_bytes += static_cast<double>(bytes.size());
    }
    // Every replayed reply is checked like a live one.
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!CheckReply(ToResult(decoded[i].results), batch[i].group,
                      batch[i].expected)) {
        ++c->failed;
      }
    }
    if (measured) c->events += batch.size();
  };

  for (uint64_t seeded = 0; seeded < spec.history; seeded += spec.batch) {
    run_batch(false, false);
  }
  // Alternate ProcessBatch batches with layer-by-layer batches until the
  // time budget (or, for the open-loop workload, its event count) is
  // spent. Checkpoints are timed separately below.
  const double deadline = NowUs() + seconds * 1e6;
  const uint64_t max_events = static_cast<uint64_t>(seconds * spec.rate);
  bool direct = false;
  while ((NowUs() < deadline && c->events < max_events) ||
         direct_events == 0 || process_events == 0) {
    run_batch(true, direct);
    direct = !direct;
  }
  std::vector<double> ckpt;
  for (int i = 0; i < 3; ++i) {
    const double t = NowUs();
    if (!task.Checkpoint().ok()) ++c->failed;
    ckpt.push_back((NowUs() - t) / 1000.0);
  }
  c->checkpoint_ms = Median(ckpt);

  const double n = static_cast<double>(c->events);
  c->encode /= n;
  c->decode /= n;
  c->reply_encode /= n;
  c->reply_decode /= n;
  c->codec /= n;
  c->msg_produce /= n;
  c->msg_poll /= n;
  c->wire_bytes = wire_bytes / n;
  c->process /= static_cast<double>(process_events);
  c->edge_events /= static_cast<double>(direct_events);
  c->append /= static_cast<double>(direct_events);
  c->advance /= static_cast<double>(direct_events);
  c->plan /= static_cast<double>(direct_events);
  c->rmw /= static_cast<double>(direct_events);
  RemoveTree(dir);
  return true;
}

}  // namespace

void CollectTaskStats(Stack* stack, LayerContext* out) {
  std::vector<double> processed;
  for (engine::TaskProcessor* task : stack->Tasks()) {
    const auto cache = task->reservoir()->cache_stats();
    out->cache_hits += static_cast<double>(cache.hits);
    out->cache_misses += static_cast<double>(cache.misses);
    out->sync_loads +=
        static_cast<double>(task->reservoir()->stats().sync_chunk_loads);
    out->live_iterators +=
        static_cast<double>(task->reservoir()->num_live_iterators());
    const auto levels =
        task->db()->GetLevelStats(railgun::storage::kDefaultColumnFamily);
    if (!levels.empty()) {
      out->l0_files_max = std::max(out->l0_files_max,
                                   static_cast<double>(levels[0].num_files));
    }
    out->edge_iterators =
        std::max(out->edge_iterators,
                 static_cast<double>(task->task_plan()->num_edge_iterators()));
    processed.push_back(static_cast<double>(task->processed_count()));
  }
  double total = 0, max = 0;
  for (double p : processed) {
    total += p;
    max = std::max(max, p);
  }
  out->processed = total;
  out->partition_skew =
      processed.empty() ? 0 : max / (total / static_cast<double>(processed.size()));
}

bool RunLayers(const std::string& dir, uint64_t seed, double seconds,
               const WorkloadSpec& spec, const PhaseResult& untraced,
               LayerContext* context, Metrics* metrics, uint64_t* attempted,
               uint64_t* failed) {
  Metrics& m = *metrics;
  const double events = static_cast<double>(untraced.attempted);

  // --- Untraced api::Client run.
  const double cpu_api = Ratio(untraced.cpu_us, events);
  m["api.submit_us_per_event"] = Ratio(untraced.submit_us, events);
  m["gen.us_per_event"] = Ratio(untraced.gen_us, events);
  m["gen.lag_p99_ms"] = Quantile(untraced.lag_us, 0.99) / 1000.0;
  const double syscalls =
      static_cast<double>((untraced.io_after.syscr - untraced.io_before.syscr) +
                          (untraced.io_after.syscw - untraced.io_before.syscw));
  m["host.syscalls_per_event"] = Ratio(syscalls, events);
  // Socket send/recv calls are not in /proc/self/io; TCP segments sent
  // and received on the loopback stand in for them. The socket layer
  // exists only on the remote workload.
  const double segments = static_cast<double>(untraced.io_after.tcp_segments -
                                              untraced.io_before.tcp_segments);
  m["remote.syscalls_per_event"] = spec.remote ? Ratio(segments, events) : 0;
  const double lookups = context->cache_hits + context->cache_misses;
  m["reservoir.cache_hit_ratio"] = Ratio(context->cache_hits, lookups);
  m["reservoir.cache_lookups_per_kevent"] =
      Ratio(lookups, context->processed) * 1000.0;
  m["reservoir.sync_loads_per_kevent"] =
      Ratio(context->sync_loads, context->processed) * 1000.0;
  m["reservoir.live_iterators"] = context->live_iterators;
  m["storage.l0_files_max"] = context->l0_files_max;
  m["window.edge_iterators"] = context->edge_iterators;
  m["unit.partition_skew"] = context->partition_skew;

  // --- Hand-assembled stack, without and with the timing decorators.
  NodePhase plain, traced;
  if (!RunNodePhase(dir + "/plain", seed, seconds, spec, false, &plain,
                    attempted, failed) ||
      !RunNodePhase(dir + "/traced", seed, seconds, spec, true, &traced,
                    attempted, failed)) {
    return false;
  }
  const double cpu_plain = Ratio(plain.run.cpu_us, static_cast<double>(plain.run.attempted));
  const double n = static_cast<double>(traced.run.attempted);
  const double cpu_traced = Ratio(traced.run.cpu_us, n);
  m["trace.overhead_frac"] = Ratio(cpu_traced - cpu_plain, cpu_plain);
  const TimedBus::Counters& b0 = traced.bus_before;
  const TimedBus::Counters& b1 = traced.bus_after;
  const double produce_us = b1.produce_us - b0.produce_us;
  const double produce_records =
      static_cast<double>(b1.produce_records - b0.produce_records);
  const double poll_work_us = b1.poll_work_us - b0.poll_work_us;
  const double poll_wait_us = b1.poll_wait_us - b0.poll_wait_us;
  m["msg.produce_us_per_record"] = Ratio(produce_us, produce_records);
  m["msg.records_per_produce"] = Ratio(
      produce_records, static_cast<double>(b1.produce_calls - b0.produce_calls));
  m["msg.poll_wait_frac"] = Ratio(poll_wait_us, poll_wait_us + poll_work_us);
  m["msg.backlog_max"] = static_cast<double>(traced.run.backlog_max);
  m["msg.bytes_per_event"] =
      Ratio(static_cast<double>(b1.produce_bytes - b0.produce_bytes), n);
  m["frontend.pending_max"] = static_cast<double>(traced.run.pending_max);
  m["unit.batch_mean"] = Ratio(
      static_cast<double>(b1.unit_poll_messages - b0.unit_poll_messages),
      static_cast<double>(b1.unit_polls_nonempty - b0.unit_polls_nonempty));
  m["reservoir.write_bytes_per_event"] = Ratio(
      static_cast<double>(traced.res_after.write_bytes -
                          traced.res_before.write_bytes),
      n);
  m["storage.wal_bytes_per_event"] = Ratio(
      static_cast<double>(traced.db_after.wal_bytes - traced.db_before.wal_bytes),
      n);
  std::vector<double> syncs(
      traced.res_after.sync_us.begin() + traced.res_before.sync_us.size(),
      traced.res_after.sync_us.end());
  syncs.insert(syncs.end(),
               traced.db_after.sync_us.begin() + traced.db_before.sync_us.size(),
               traced.db_after.sync_us.end());
  m["storage.sync_ms_p99"] = Quantile(syncs, 0.99) / 1000.0;

  // --- Single-threaded replay.
  ReplayCosts c;
  if (!Replay(dir + "/replay", seed, seconds, spec, &c)) return false;
  *attempted += c.events;
  *failed += c.failed;
  m["frontend.encode_us_per_event"] = c.encode;
  m["frontend.reply_decode_us_per_event"] = c.reply_decode;
  m["unit.decode_us_per_event"] = c.decode;
  m["unit.process_us_per_event"] = c.process;
  m["unit.reply_encode_us_per_event"] = c.reply_encode;
  m["remote.codec_us_per_event"] = c.codec;
  m["remote.wire_bytes_per_event"] = c.wire_bytes;
  m["reservoir.append_us_per_event"] = c.append;
  m["window.advance_us_per_event"] = c.advance;
  m["window.edge_events_per_event"] = c.edge_events;
  m["plan.process_us_per_event"] = c.plan;
  m["plan.state_us_per_event"] = c.plan - c.advance;
  m["storage.rmw_us"] = c.rmw;
  m["storage.checkpoint_ms"] = c.checkpoint_ms;
  const double job_us = c.encode + c.msg_produce + c.msg_poll + c.process +
                        c.reply_encode + c.reply_decode + c.codec;
  m["unit.replay_eps"] = Ratio(1e6, job_us);
  // Two messages are polled per event: the event and its reply.
  m["msg.poll_work_us_per_message"] = c.msg_poll / 2;

  // --- Reconciliation against the untraced process CPU per event: the
  // disjoint per-event rows of the request path. api.submit covers row
  // binding and the front end's encode on the caller's thread; the rest
  // are the replay's bus, unit, reply and wire costs.
  const double budget = m["api.submit_us_per_event"] + c.msg_produce +
                        c.msg_poll + c.process + c.reply_encode +
                        c.reply_decode + c.codec;
  m["reconcile.layers_us_per_event"] = budget;
  m["reconcile.residual_frac"] = Ratio(cpu_api - budget, cpu_api);
  return true;
}

bool OracleSelfTest() {
  bool ok = true;
  auto expect = [&ok](bool cond, const char* what) {
    if (!cond) {
      fprintf(stderr, "self-test FAILED: %s\n", what);
      ok = false;
    }
  };

  // Window edges: [t - d - s, t - d], both ends inclusive.
  WindowOracle w(2);
  for (int64_t ts = 10; ts <= 100; ts += 10) w.Add(0, ts, 1.0);
  w.Add(1, 105, 8.0);
  double sum;
  int64_t count;
  w.Query(0, 100, WindowBounds{30, 20}, &sum, &count);  // [50, 80]
  expect(count == 4 && sum == 4.0, "inclusive window edges");
  w.Query(0, 100, WindowBounds{29, 21}, &sum, &count);  // [50, 79]
  expect(count == 3, "head edge excludes ts > t - delay");
  w.Query(0, 100, WindowBounds{1000, 0}, &sum, &count);
  expect(count == 10 && sum == 10.0, "window covering all history");
  w.Query(1, 100, WindowBounds{1000, 0}, &sum, &count);
  expect(count == 0, "keys are independent");

  // Reply checks: the true values pass, any corruption fails.
  const std::string sum_name = "sum(amount) over sliding 5m by cardId";
  const std::string count_name = "count(*) over sliding 5m by cardId";
  EventResult good;
  good.metrics.push_back({sum_name, "card1", 12.5});
  good.metrics.push_back({count_name, "card1", int64_t{3}});
  const std::vector<Expected> want = {{&sum_name, 12.5}, {&count_name, 3}};
  expect(CheckReply(good, "card1", want), "true values accepted");
  EventResult bad = good;
  bad.metrics[0].value = 12.75;
  expect(!CheckReply(bad, "card1", want), "corrupted sum rejected");
  bad = good;
  bad.metrics[1].value = int64_t{4};
  expect(!CheckReply(bad, "card1", want), "corrupted count rejected");
  std::vector<Expected> corrupted = want;
  corrupted[0].value += 0.25;
  expect(!CheckReply(good, "card1", corrupted),
         "corrupted expected value rejected");
  expect(!CheckReply(good, "card2", want), "wrong group rejected");
  bad = good;
  bad.metrics.pop_back();
  expect(!CheckReply(bad, "card1", want), "missing metric rejected");
  bad = good;
  bad.status = Status::Unavailable("timed out");
  expect(!CheckReply(bad, "card1", want), "non-OK reply rejected");

  // The workload's own reference: running sums for ingest.
  WorkloadSpec spec;
  expect(LookupWorkload("ingest", &spec), "ingest workload exists");
  EventSource source(spec, 7);
  GenEvent first, again;
  source.Next(&first);
  for (int i = 1; i < 1024; ++i) source.Next(&again);
  source.Next(&again);  // Same card as `first`, second event.
  expect(again.group == first.group, "ingest cards round-robin");
  expect(again.expected[1].value == 2, "running count");
  expect(again.expected[0].value ==
             first.expected[0].value + again.event.values[1].as_double(),
         "running sum");
  fprintf(stderr, "self-test %s\n", ok ? "passed" : "FAILED");
  return ok;
}

}  // namespace perfbench
