// Load loops. The closed loop keeps `depth` batches of `batch` rows in
// flight and times each event from its batch's handoff to the client; the
// open loop sends one event per slot of a fixed schedule and times each
// event from its scheduled send, so a stall also delays the events queued
// behind it (no coordinated omission). Every reply is checked against the
// workload's reference values.
#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cstdint>
#include <vector>

#include "stack.h"
#include "util.h"
#include "workload.h"

namespace perfbench {

// Unmeasured load before every measured phase, in seconds.
constexpr double kWarmupSeconds = 1.0;

struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // Non-OK replies, timeouts and oracle mismatches.
  std::vector<double> latency_us;  // One per attempted event.
  std::vector<double> lag_us;      // Open loop: send time - scheduled.
  double elapsed_us = 0;
  double cpu_us = 0;
  double gen_us = 0;     // Generating events and building requests.
  double submit_us = 0;  // Inside the client's submit calls.
  size_t pending_max = 0;
  uint64_t backlog_max = 0;
  HostCpu host_before;
  HostCpu host_after;
  ProcIo io_before;
  ProcIo io_after;
};

// Closed loop until `events` have completed (events > 0) or until
// `seconds` of wall time have passed.
PhaseResult RunClosedLoop(Stack* stack, EventSource* source,
                          const WorkloadSpec& spec, uint64_t events,
                          double seconds);

// Open loop at spec.rate: `events` sends on a fixed schedule.
PhaseResult RunOpenLoop(Stack* stack, EventSource* source,
                        const WorkloadSpec& spec, uint64_t events);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
