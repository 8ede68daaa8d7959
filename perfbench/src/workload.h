// The benchmark's workloads: stream and metric DDL, the seeded event
// source, and the reference values every reply must carry.
//
//   ingest        quickstart stream + metric, 1024 cards round-robin,
//                 open loop of 256-row batches at 25k events/s.
//   fraud_windows the paper's 103-field fraud stream (Zipf 0.99 over 20k
//                 cards), 12 misaligned delayed sliding windows, history
//                 seeded before the run, open loop at 1000 events/s.
//   remote_ingest ingest's load and data through a loopback TCP client.
//
// Every workload is measured in an open loop; the traced run adds a
// closed-loop burst (batch x depth in flight) for saturation throughput.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "oracle.h"
#include "reservoir/event.h"
#include "workload/generator.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  bool remote = false;    // Client attaches over loopback TCP.
  double rate = 0;        // Open loop: events per second.
  size_t send_batch = 1;  // Open loop: events per scheduled send.
  size_t batch = 1;       // Closed loop (seeding, saturation): rows per
  size_t depth = 1;       // SubmitBatch, and batches in flight.
  size_t history = 0;      // Events seeded before the measured phase.
  std::string stream;
  std::string create_stream;
  std::vector<std::string> metrics;  // ADD METRIC statements.
};

// Returns false for an unknown workload name.
bool LookupWorkload(const std::string& name, WorkloadSpec* spec);

// One generated event plus what its reply must say.
struct GenEvent {
  railgun::reservoir::Event event;
  std::string group;               // cardId value (the reply's group).
  std::vector<Expected> expected;  // Reference metric values.
};

// Deterministic event stream for a workload and seed. Events come out in
// submission order with strictly increasing timestamps; the reference
// values assume exactly this order per card, which the engine preserves.
class EventSource {
 public:
  EventSource(const WorkloadSpec& spec, uint64_t seed);

  const std::vector<railgun::reservoir::SchemaField>& fields() const {
    return fields_;
  }
  void Next(GenEvent* out);
  uint64_t generated() const { return next_index_; }

 private:
  struct MetricRef {
    std::string name;  // Decorated metric name as replies carry it.
    bool is_sum = false;
    WindowBounds window;
  };

  WorkloadSpec spec_;
  std::vector<railgun::reservoir::SchemaField> fields_;
  std::vector<MetricRef> refs_;
  railgun::Random64 rng_;
  std::unique_ptr<railgun::workload::FraudStreamGenerator> fraud_;
  RunningOracle running_;
  WindowOracle windows_;
  uint64_t next_index_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
