// bench_wire_decode: decode throughput of the bus->unit poll hot path.
//
// A kPollColumnar response payload is decoded two ways:
//   columnar:  GetColumnarMessageList into Slice-backed MessageViews,
//              lengths validated column-wise
//   pooled:    the end-to-end loop (acquire buffer -> copy wire bytes ->
//              decode columnar), which demonstrates zero steady-state
//              allocations via the BufferPool hit/miss counters.
//
//   RAILGUN_BENCH_MESSAGES  messages per batch     (default 256)
//   RAILGUN_BENCH_ITERS     decode iterations      (default 2000)
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "common/clock.h"
#include "msg/batch.h"
#include "msg/buffer_pool.h"
#include "msg/message.h"
#include "msg/remote/wire.h"

using namespace railgun;
using msg::BufferPool;
using msg::BufferRef;
using msg::Message;
using msg::MessageBatch;

namespace {

std::vector<Message> BuildBatch(int64_t count) {
  std::vector<Message> messages;
  messages.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    Message m;
    m.topic = "payments.cardId";
    m.partition = 0;
    m.offset = static_cast<uint64_t>(i);
    m.key = "card" + std::to_string(i % 64);
    // Envelope-sized payload: what a TaskProcessor poll really carries.
    m.payload = std::string(120 + (i % 5) * 16, 'e');
    m.publish_time = 1700000000000000 + i * 250;
    m.visible_time = m.publish_time + 500;
    messages.push_back(std::move(m));
  }
  return messages;
}

double EventsPerSec(int64_t events, Micros elapsed) {
  if (elapsed <= 0) return 0;
  return static_cast<double>(events) * kMicrosPerSecond /
         static_cast<double>(elapsed);
}

}  // namespace

int main() {
  const int64_t batch_messages = bench::EnvInt("RAILGUN_BENCH_MESSAGES", 256);
  const int64_t iters = bench::EnvInt("RAILGUN_BENCH_ITERS", 2000);
  const int64_t total = batch_messages * iters;
  Clock* clock = MonotonicClock::Default();

  const std::vector<Message> messages = BuildBatch(batch_messages);
  std::string columnar_encoded;
  msg::remote::PutColumnarMessageList(&columnar_encoded, messages);
  printf("bench_wire_decode: %lld msgs/batch x %lld iters\n",
         static_cast<long long>(batch_messages),
         static_cast<long long>(iters));
  printf("  encoded bytes: columnar %zu\n", columnar_encoded.size());

  uint64_t sink = 0;  // Defeats dead-code elimination.

  // (a) Columnar encoding, zero-copy views.
  MessageBatch batch;
  const Micros col_start = clock->NowMicros();
  for (int64_t it = 0; it < iters; ++it) {
    Slice in(columnar_encoded);
    batch.Clear();
    if (!msg::remote::GetColumnarMessageList(&in, &batch)) return 1;
    sink += batch[batch.size() - 1].offset + batch[0].payload.size();
  }
  const double col_eps = EventsPerSec(total, clock->NowMicros() - col_start);

  // (b) Pooled end-to-end: lease a buffer, land the wire bytes in it,
  // decode columnar out of it — the shape of ReadFramePooled + poll.
  BufferPool pool(4);
  uint64_t steady_misses = 0;
  const Micros pooled_start = clock->NowMicros();
  for (int64_t it = 0; it < iters; ++it) {
    // Release the previous iteration's buffer first, as a real consumer
    // does when it finishes a batch — otherwise nothing ever recycles.
    batch.Clear();
    BufferRef buffer = pool.Acquire(columnar_encoded.size());
    std::memcpy(buffer->data(), columnar_encoded.data(),
                columnar_encoded.size());
    Slice in(buffer->data(), columnar_encoded.size());
    if (!msg::remote::GetColumnarMessageList(&in, &batch)) return 1;
    batch.BorrowBuffer(buffer);
    sink += batch[batch.size() - 1].offset;
    if (it == iters / 2) steady_misses = pool.misses();
  }
  const double pooled_eps =
      EventsPerSec(total, clock->NowMicros() - pooled_start);
  batch.Clear();  // Returns the last buffer before the pool dies.
  const uint64_t late_misses = pool.misses() - steady_misses;

  const double ns_per_event = [](double eps) {
    return eps > 0 ? 1e9 / eps : 0;
  }(col_eps);
  printf("  columnar  %12.0f ev/s   (%.1f ns/event)\n", col_eps,
         ns_per_event);
  printf("  pooled    %12.0f ev/s   (%llu second-half misses)\n",
         pooled_eps, static_cast<unsigned long long>(late_misses));
  printf("  sink %llu\n", static_cast<unsigned long long>(sink));

  bench::JsonResult json("bench_wire_decode");
  json.Add("batch_messages", batch_messages)
      .Add("iters", iters)
      .Add("columnar_bytes", static_cast<uint64_t>(columnar_encoded.size()))
      .Add("columnar_events_per_sec", col_eps)
      .Add("pooled_events_per_sec", pooled_eps)
      .Add("pool_hits", pool.hits())
      .Add("pool_misses", pool.misses())
      .Add("pool_steady_state_misses", late_misses);
  json.Write();

  // The zero-copy contract: no steady-state pool misses. Fail loudly
  // so CI smoke catches decay.
  if (late_misses != 0) {
    fprintf(stderr, "FAIL: %llu pool misses after warmup\n",
            static_cast<unsigned long long>(late_misses));
    return 1;
  }
  return 0;
}
