#include "load.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <iterator>
#include <list>
#include <mutex>
#include <thread>

#include "oracle.h"

namespace perfbench {

namespace {

// Snapshot of process and host counters at a phase boundary.
void MarkStart(PhaseResult* r) {
  r->host_before = ReadHostCpu();
  r->io_before = ReadProcIo();
  r->cpu_us = ProcessCpuUs();
}

void MarkEnd(PhaseResult* r, double start_us) {
  r->elapsed_us = NowUs() - start_us;
  r->cpu_us = ProcessCpuUs() - r->cpu_us;
  r->host_after = ReadHostCpu();
  r->io_after = ReadProcIo();
}

void Record(const railgun::api::EventResult& result, const GenEvent& event,
            double latency_us, PhaseResult* r) {
  ++r->attempted;
  if (!CheckReply(result, event.group, event.expected)) ++r->failed;
  r->latency_us.push_back(latency_us);
}

}  // namespace

PhaseResult RunClosedLoop(Stack* stack, EventSource* source,
                          const WorkloadSpec& spec, uint64_t events,
                          double seconds) {
  struct Batch {
    double handoff = 0;
    std::vector<GenEvent> events;
    std::vector<Pending> replies;
  };
  PhaseResult r;
  const double start = NowUs();
  std::deque<Batch> in_flight;
  auto complete_oldest = [&] {
    Batch& b = in_flight.front();
    for (size_t i = 0; i < b.replies.size(); ++i) {
      const railgun::api::EventResult result = b.replies[i].Get();
      Record(result, b.events[i], NowUs() - b.handoff, &r);
    }
    in_flight.pop_front();
  };

  const double deadline = start + seconds * 1e6;
  const double submit_before = stack->submit_us();
  MarkStart(&r);
  uint64_t submitted = 0;
  while (events > 0 ? submitted < events : NowUs() < deadline) {
    if (in_flight.size() >= spec.depth) complete_oldest();
    const double gen_start = NowUs();
    Batch b;
    size_t n = spec.batch;
    if (events > 0) n = static_cast<size_t>(std::min<uint64_t>(n, events - submitted));
    b.events.resize(n);
    for (GenEvent& e : b.events) source->Next(&e);
    r.gen_us += NowUs() - gen_start;
    b.handoff = NowUs();
    stack->SubmitBatch(b.events, &b.replies);
    submitted += n;
    in_flight.push_back(std::move(b));
    r.pending_max = std::max(r.pending_max, stack->FrontEndPending());
    r.backlog_max = std::max(r.backlog_max, stack->Backlog());
  }
  while (!in_flight.empty()) complete_oldest();
  MarkEnd(&r, start);
  r.submit_us = stack->submit_us() - submit_before;
  return r;
}

PhaseResult RunOpenLoop(Stack* stack, EventSource* source,
                        const WorkloadSpec& spec, uint64_t events) {
  struct Sent {
    double scheduled = 0;
    GenEvent event;
    Pending reply;
  };
  PhaseResult r;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Sent> queue;  // Guarded by mu.
  bool done = false;       // Guarded by mu.

  const double interval_us =
      1e6 * static_cast<double>(spec.send_batch) / spec.rate;
  const double submit_before = stack->submit_us();
  MarkStart(&r);
  const double start = NowUs() + 1000;
  // Completions are collected on their own thread, so the sender never
  // waits on a reply. Replies are taken in send order; when the oldest is
  // still out after a short wait, the younger ones already in are timed
  // then, so a stalled partition delays the timing of the others by at
  // most one wait slice.
  constexpr double kSliceUs = 200;
  std::thread collector([&] {
    std::list<Sent> outstanding;  // O(1) erase from the middle.
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (outstanding.empty()) {
          cv.wait(lock, [&] { return done || !queue.empty(); });
        }
        while (!queue.empty()) {
          outstanding.push_back(std::move(queue.front()));
          queue.pop_front();
        }
        if (outstanding.empty() && done) return;
      }
      if (outstanding.front().reply.Wait(kSliceUs)) {
        // Take the oldest and every reply behind it that is in too.
        while (!outstanding.empty() && outstanding.front().reply.ready()) {
          const Sent& s = outstanding.front();
          Record(s.reply.Get(), s.event, NowUs() - s.scheduled, &r);
          outstanding.pop_front();
        }
        continue;
      }
      for (auto it = std::next(outstanding.begin()); it != outstanding.end();) {
        if (!it->reply.ready()) {
          ++it;
          continue;
        }
        Record(it->reply.Get(), it->event, NowUs() - it->scheduled, &r);
        it = outstanding.erase(it);
      }
    }
  });

  std::vector<GenEvent> sends(spec.send_batch);
  std::vector<Pending> replies;
  for (uint64_t i = 0; i * sends.size() < events; ++i) {
    const double gen_start = NowUs();
    for (GenEvent& e : sends) source->Next(&e);
    r.gen_us += NowUs() - gen_start;
    const double due = start + static_cast<double>(i) * interval_us;
    const double wait = due - NowUs();
    if (wait > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(wait));
    }
    r.lag_us.push_back(NowUs() - due);
    replies.clear();
    stack->SubmitBatch(sends, &replies);
    {
      std::lock_guard<std::mutex> lock(mu);
      for (size_t k = 0; k < sends.size(); ++k) {
        queue.push_back(Sent{due, std::move(sends[k]), replies[k]});
      }
    }
    cv.notify_one();
    r.pending_max = std::max(r.pending_max, stack->FrontEndPending());
    r.backlog_max = std::max(r.backlog_max, stack->Backlog());
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();
  MarkEnd(&r, start);
  r.submit_us = stack->submit_us() - submit_before;
  return r;
}

}  // namespace perfbench
